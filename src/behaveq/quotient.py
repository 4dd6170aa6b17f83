"""Equivalence-respecting subautomata and the membership witness
relation.

The pipeline: build the family of subsets that cannot tell equivalent
subset-states apart, restrict the backward dynamics (the reversed
automaton's `post`) to that family (closure is checked, not assumed),
and verify that the membership relation x related-to W iff x in W is a
homomorphism from the automaton into the restriction.

The family is the union closure of its generators.  A subset U meets
pre_w(F), the states with a w-path into the accepting set F, exactly
when U accepts w; so the subsets that respect language equivalence are
the unions of the sets reached backward from F (Brzozowski's double
reversal; Bonchi et al., ACM TOCL 2014), and under the identity they
are the unions of singletons.  `respecting_subsets` tests every subset
against every class instead, and stays as the brute-force reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import CapExceeded, block_classes, subset_label
from .systems import Nda, moore_determinize

RESPECTING_CAP = 12
REFERENCE_CAP = 6


class ClosureViolation(ValueError):
    """The respecting family is not closed under the backward dynamics."""


def union_closure(generators: Iterable[int]) -> tuple[int, ...]:
    """Every union of `generators`, the empty union included, ascending."""
    family = {0}
    for g in generators:
        # a union-closed family that holds g is closed under | g already
        if g not in family:
            family |= {w | g for w in family}
    return tuple(sorted(family))


def respecting_family(nda: Nda, identity: bool = False) -> tuple[int, ...]:
    """The subsets that respect language equivalence, ascending: the
    union closure of the positions of the backward subset construction
    from the accepting set.  Under `identity`, every subset, as the union
    closure of the singletons.

    Refuses more than `RESPECTING_CAP` states with `CapExceeded` before
    any work over the powerset."""
    n = len(nda.states)
    if n > RESPECTING_CAP:
        raise CapExceeded(f"respecting family over {n} states exceeds cap "
                          f"{RESPECTING_CAP}")
    if identity:
        return union_closure(1 << x for x in range(n))
    return union_closure(
        moore_determinize(nda.reverse(), [nda.accepting]).subset_states)


def respecting_subsets(nda: Nda, blocks: Sequence) -> tuple[int, ...]:
    """Subsets W that cannot separate equivalent subset-states: the
    brute-force reference for `respecting_family`, which the `quotient`
    command runs.

    `blocks` is an equivalence on the full powerset as a block array,
    one hashable key per subset mask.  W qualifies iff for every pair
    (U, V) of one block: U meets W exactly when V meets W.  Checked
    over all masks against every class, hence the small cap.
    """
    n = len(nda.states)
    if n > REFERENCE_CAP:
        raise CapExceeded(f"respecting-subset search over {n} states exceeds cap "
                          f"{REFERENCE_CAP}")
    if len(blocks) != 1 << n:
        raise ValueError("equivalence must live on the full powerset carrier")
    classes = block_classes(blocks)
    out = []
    for w in range(1 << n):
        ok = True
        for cls in classes:
            meets = bool(cls[0] & w)
            if any(bool(u & w) != meets for u in cls[1:]):
                ok = False
                break
        if ok:
            out.append(w)
    return tuple(out)


@dataclass(frozen=True)
class RespectingAutomaton:
    """Backward dynamics restricted to the respecting family.

    `carrier` lists member masks ascending; `trans[i][a]` indexes into
    `carrier`; `accepting` is the designated member holding the
    accepting states.  The witness relation relates a source state x to
    every member containing it.
    """

    base: Nda
    carrier: tuple[int, ...]
    trans: tuple[tuple[int, ...], ...]
    accepting: int

    def witness_sets(self, x: int) -> tuple[int, ...]:
        return tuple(w for w in self.carrier if w >> x & 1)

    def witness_image(self, mask: int) -> tuple[int, ...]:
        """Members met by a subset-state: the forgetful image of the witness."""
        return tuple(w for w in self.carrier if w & mask)

    def labels(self) -> tuple[str, ...]:
        return tuple(subset_label(self.base.states, w) for w in self.carrier)


def build_respecting_automaton(nda: Nda, family: Iterable[int]) -> RespectingAutomaton:
    """Restrict the backward dynamics to a family of subset masks, such
    as `respecting_family(nda)`.

    The subset construction of the reversed automaton from the family
    numbers its members first, ascending; closure is verified, and a
    target past them is an escaping transition, an error naming the
    edge rather than a silent truncation.
    """
    carrier = tuple(sorted(set(family)))
    names = nda.states
    if nda.accepting not in carrier:
        raise ClosureViolation(
            f"designated accepting member {subset_label(names, nda.accepting)} "
            "is outside the respecting family")
    machine = moore_determinize(nda.reverse(), carrier)
    size = len(carrier)
    trans = machine.trans[:size]
    for w, row in zip(carrier, trans):
        for a, t in enumerate(row):
            if t >= size:
                raise ClosureViolation(
                    f"backward transition {subset_label(names, w)} "
                    f"--{nda.alphabet.label(a)}--> {machine.label(t)} "
                    "leaves the respecting family")
    return RespectingAutomaton(nda, carrier, trans, nda.accepting)


@dataclass(frozen=True)
class HomomorphismVerdict:
    ok: bool
    witness: str | None

    def __bool__(self) -> bool:
        return self.ok


def verify_witness_homomorphism(nda: Nda, auto: RespectingAutomaton) -> HomomorphismVerdict:
    """Check that the membership relation is a coalgebra homomorphism.

    Both composites are computed extensionally as relations from source
    states to one-step behaviours over the restricted carrier: stepping
    first and then witnessing must equal witnessing first and then
    running the restricted dynamics.  Returns the first differing pair
    on failure.
    """
    n = len(nda.states)
    num_actions = len(nda.alphabet)
    for x in range(n):
        lhs = set()
        if nda.accepting >> x & 1:
            lhs.add("stop")
        for a in range(num_actions):
            succ = nda.delta[x][a]
            for w in auto.carrier:
                if succ & w:
                    lhs.add((a, w))
        rhs = set()
        if auto.accepting >> x & 1:
            rhs.add("stop")
        for i, v in enumerate(auto.carrier):
            for a in range(num_actions):
                target = auto.carrier[auto.trans[i][a]]
                if target >> x & 1:
                    rhs.add((a, v))
        if lhs != rhs:
            diff = (lhs - rhs) | (rhs - lhs)
            sample = sorted(str(d) for d in diff)[0]
            return HomomorphismVerdict(
                False, f"state {nda.states.label(x)} differs at {sample}")
    return HomomorphismVerdict(True, None)


def redundant_members(auto: RespectingAutomaton) -> tuple[int, ...]:
    """Members expressible as unions of smaller members, ascending.

    These are the states a smallest equivalence-respecting subautomaton
    can drop; the empty set is the empty union and always redundant.

    The carrier is union-closed, as every respecting family is, so the
    members inside a mask s have a largest one, top[s].  A member
    strictly inside m misses some x of m, so the union of all of them is
    the union of top[m - {x}] over x in m; one pass over the masks in
    ascending order fills `top` that way, in O(2^n * n) for n states.
    """
    member = bytearray(1 << len(auto.base.states))
    for w in auto.carrier:
        member[w] = 1
    top = [0] * len(member)
    out = [0] if member[0] else []
    for s in range(1, len(member)):
        below, rest = 0, s
        while rest:
            low = rest & -rest
            below |= top[s ^ low]
            rest ^= low
        if not member[s]:
            top[s] = below
        else:
            top[s] = s
            if below == s:
                out.append(s)
    return tuple(out)
