"""Equivalence-respecting subautomata and the membership witness
relation.

The pipeline: carve out the family of subsets that cannot
tell equivalent subset-states apart, restrict the backward dynamics
(the reversed automaton's `post`) to that family (closure is checked,
not assumed), and verify that the membership relation x related-to W iff
x in W is a homomorphism from the automaton into the restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BitRel, CapExceeded, subset_label
from .systems import Nda, moore_determinize

RESPECTING_CAP = 6


class ClosureViolation(ValueError):
    """The respecting family is not closed under the backward dynamics."""


def respecting_subsets(nda: Nda, eq: BitRel) -> tuple[int, ...]:
    """Subsets W that cannot separate eq-related subset-states.

    W qualifies iff for every related pair (U, V): U meets W exactly
    when V meets W.  Checked by brute force over all masks, hence the
    small cap.
    """
    n = len(nda.states)
    if n > RESPECTING_CAP:
        raise CapExceeded(f"respecting-subset search over {n} states exceeds cap "
                          f"{RESPECTING_CAP}")
    if eq.size != 1 << n:
        raise ValueError("equivalence must live on the full powerset carrier")
    if not eq.is_equivalence():
        raise ValueError("relation is not an equivalence")
    classes = eq.classes()
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


def build_respecting_automaton(nda: Nda, eq: BitRel) -> RespectingAutomaton:
    """Restrict the backward dynamics to the respecting family.

    The family is ascending, so the subset construction of the reversed
    automaton from it numbers its members first; closure is verified,
    and a target past them is an escaping transition, an error naming
    the edge rather than a silent truncation.
    """
    carrier = respecting_subsets(nda, eq)
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
    """Members expressible as unions of smaller members.

    These are the states a smallest equivalence-respecting subautomaton
    can drop; the empty set is the empty union and always redundant.
    """
    out = []
    for w in auto.carrier:
        union = 0
        for v in auto.carrier:
            if v != w and v & ~w == 0:
                union |= v
        if union == w:
            out.append(w)
    return tuple(out)
