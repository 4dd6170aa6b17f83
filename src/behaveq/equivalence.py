"""Behavioural-equivalence engines for the four families.

The subset engine (`moore_equiv`, for Moore systems and for automata,
their two-element case) and the conditional engine compute the greatest
fixpoint of their relation lifting as the coarsest stable partition,
by the signature-refinement rounds of `core.refine`; the weighted
engine answers from Krylov bases: a forward basis of p - q for a pair
verdict and its witness, a backward basis of the output vector for the
classes.  The subset and conditional engines return each equivalence
as a block array, one class id per position.  The test suite replays
each engine against an independent reference: the breadth-first word
search over subset pairs (`moore_pair_oracle`) for the subset engine,
and the observability chain, the greatest fixpoint of the weighted
relation lifting, for the weighted engine.  The tests keep the other
references themselves: Kleene iterations of the relation liftings, and
a word search over weighted configurations bounded by |states| letters.
Relations on weighted configuration spaces are represented as
difference subspaces: p related to q iff p - q lies in the subspace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .core import (
    CapExceeded,
    DimensionMismatch,
    Semilattice,
    Subspace,
    bits,
    block_classes,
    nullspace,
    orthogonal_tests,
    refine,
    subset_label,
)
from .liftings import lwa_lift_rows
from .systems import (
    Cts,
    DeterminizedMachine,
    Lwa,
    Nda,
    OutputLts,
    eval_word,
    lattice_lts,
    moore_determinize,
)


@dataclass(frozen=True)
class MachineEquiv:
    """Coarsest bisimulation on a determinized machine.

    `blocks` assigns each machine position its class id; `related`
    answers queries by subset mask.
    """

    machine: DeterminizedMachine
    iterations: int
    blocks: tuple[int, ...]

    def related(self, mask_u: int, mask_v: int) -> bool:
        pos = self.machine.pos
        return self.blocks[pos(mask_u)] == self.blocks[pos(mask_v)]

    def classes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(
            tuple(self.machine.label(i) for i in cls)
            for cls in block_classes(self.blocks)
        )


def machine_equiv(machine: DeterminizedMachine) -> MachineEquiv:
    """Refine by output and the block of every action successor."""
    out, trans = machine.out, machine.trans
    blocks, rounds = refine(
        len(machine.subset_states),
        lambda i, blocks: (out[i], *[blocks[t] for t in trans[i]]), trans)
    return MachineEquiv(machine, rounds, blocks)


@dataclass(frozen=True)
class OracleVerdict:
    equivalent: bool
    witness: tuple[int, ...] | None


class UnionFind:
    """Disjoint classes of hashable items, each item alone until merged.

    `find` returns the root of an item's class, halving the path it
    walks; `union` merges two classes.  A root may carry a label in
    `labels`, and a merge keeps a labelled root as the root, so the
    label names the merged class.
    """

    def __init__(self):
        self.parent: dict = {}
        self.labels: dict = {}

    def find(self, x):
        parent = self.parent
        while (up := parent.get(x, x)) != x:
            top = parent.get(up, up)
            parent[x] = top
            x = top
        return x

    def union(self, x, y) -> None:
        x, y = self.find(x), self.find(y)
        if x != y:
            if y in self.labels:
                x, y = y, x
            self.parent[y] = x


def _word_search(system, u, v, known: UnionFind | None = None) -> OracleVerdict:
    """Breadth-first product search for the first word, in
    length-then-action order, at which u and v are observed apart.  It
    runs on subset systems, whose configuration pairs are finitely many,
    straight off the successor masks, independently of the determinized
    machine and the refinement engine.

    A configuration pair reached again by a later word is skipped: every
    extension of the later word is preceded by the same extension of
    the earlier one.

    `known`, if given, must relate only equivalent configurations.  A
    pair whose sides share a root there is not explored, which keeps the
    first separating word: no separating word passes through an
    equivalent pair.  An equivalent verdict merges in `known` every pair
    the search saw, since each was reached from u and v by one word.
    """
    post, observe = system.post, system.observe
    if observe(u) != observe(v):
        return OracleVerdict(False, ())
    find = known.find if known is not None else None
    if find and find(u) == find(v):
        return OracleVerdict(True, None)
    num_actions = len(system.alphabet)
    queue = deque([(u, v, ())])
    seen = {(u, v)}
    # pairs are observed as they are reached, which is in
    # length-then-action order too
    while queue:
        x, y, word = queue.popleft()
        for a in range(num_actions):
            pair = post(x, a), post(y, a)
            if pair not in seen:
                seen.add(pair)
                if find and find(pair[0]) == find(pair[1]):
                    continue
                if observe(pair[0]) != observe(pair[1]):
                    return OracleVerdict(False, word + (a,))
                queue.append((*pair, word + (a,)))
    if known is not None:
        for pair in seen:
            known.union(*pair)
    return OracleVerdict(True, None)


# The subset oracle's one public name: a Moore system and an automaton
# (the two-element case) are searched alike.
moore_pair_oracle = _word_search

# Kept only because perfbench/spans.py rebinds these names.
nda_pair_oracle = moore_pair_oracle
lwa_trace = eval_word


def moore_equiv(system: Nda | OutputLts, initials: Iterable[int] | None = None,
                cap: int = 12) -> MachineEquiv:
    """Behavioural equivalence between subset states of an automaton or
    Moore system, restricted to the part reachable from `initials` (the
    whole powerset when omitted).

    The one subset engine: an automaton is the case of the two-element
    semilattice, where a subset's output is whether it accepts, and its
    behavioural equivalence is language equivalence.  Either way the
    machine holds at most 2^cap positions.
    """
    n = len(system.states)
    if initials is None:
        if n > cap:
            raise CapExceeded(f"full powerset over {n} states exceeds cap {cap}")
        initials = range(1 << n)
    return machine_equiv(moore_determinize(system, initials, cap))


# ------------------------------------------------------------- weighted

def lwa_observability_chain(lwa: Lwa) -> list[Subspace]:
    """Descending chain of unobservable subspaces, from ker(out) down.

    The Kleene iteration, from the full space, of the weighted relation
    lifting (`lwa_lift_rows`, the lifting the law suite checks) pulled
    back along the automaton, whose step sends v to its stop weight
    v . out and its action slices v . M_a.  A level W is followed by
    the v with v . out = 0 and every v . M_a in W; the first level is
    ker(out).  Dimensions strictly decrease until stable, so the chain
    has at most |states| strict steps.  That bound is asserted.
    """
    n, m = len(lwa.states), len(lwa.alphabet)
    # nonzero entries of each column of the step matrix, in the lifting's
    # coordinates: slice a holds the columns of M_a, then the stop slot
    columns = [[(x, row[y]) for x, row in enumerate(mat) if row[y]]
               for mat in lwa.mat for y in range(n)]
    columns.append([(x, w) for x, w in enumerate(lwa.out) if w])

    def pullback(row):
        image = [Fraction(0)] * n
        for r, column in zip(row, columns):
            if r:
                for x, c in column:
                    image[x] += c * r
        return image

    chain: list[Subspace] = []
    tests: tuple = ()                       # the full space has no tests
    while True:
        level = nullspace([pullback(row) for row in lwa_lift_rows(tests, n, m)], n)
        if chain and level == chain[-1]:
            break
        chain.append(level)
        if len(chain) - 1 > n:
            raise RuntimeError("observability chain exceeded the state count")
        if level.is_zero():
            break
        tests = orthogonal_tests(level)
    return chain


def lwa_unobservable_subspace(lwa: Lwa) -> Subspace:
    """Largest subspace of ker(out) invariant under every step matrix.

    Two configurations are weighted-language equivalent iff their
    difference lies in this subspace.
    """
    return lwa_observability_chain(lwa)[-1]


def _integral(vec: Sequence[Fraction]) -> list[int]:
    """The integer vector with coprime entries that is a positive
    multiple of `vec` (all zeros for the zero vector)."""
    scale = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (scale // v.denominator) for v in vec]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _krylov(start: Sequence[Fraction], mats: Sequence[Sequence[Sequence[Fraction]]],
            row_vector: bool) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Kept words of a breadth-first Krylov search from `start`, each
    with a positive multiple of its vector, in coprime integers.

    Words are visited in length-then-action order.  The vector of w.a
    is the vector of w times mats[a] when `row_vector`, else mats[a]
    times it.  A word is kept, yielded and extended only when its
    vector is independent of the vectors kept before it, so at most
    dim vectors are kept and at most 1 + dim * |mats| words are
    visited.  The vectors kept up to length i span those of all words
    up to length i: a dropped vector is a combination of earlier kept
    ones, and so are its extensions.  Scaling a vector changes neither
    its independence nor whether a weight is 0, so the search runs on
    integers; the independence test is fraction-free (Bareiss)
    elimination, whose exact divisions keep every entry a minor of the
    kept vectors.
    """
    # lines[a][j] is the line of mats[a] whose dot product with a vector
    # gives entry j of its image: a column for a row vector, else a row
    lines = []
    for mat in mats:
        scale = lcm(*(v.denominator for row in mat for v in row))
        ints = [[v.numerator * (scale // v.denominator) for v in row] for row in mat]
        lines.append(list(zip(*ints)) if row_vector else ints)
    # each kept vector eliminated against the ones before it: (pivot, row)
    echelon: list[tuple[int, list[int]]] = []
    queue = deque([((), _integral(start))])
    while queue:
        word, vec = queue.popleft()
        rest, prev = vec, 1
        for pivot, row in echelon:
            f, lead = rest[pivot], row[pivot]
            rest = [(lead * a - f * b) // prev for a, b in zip(rest, row)]
            prev = lead
        pivot = next((i for i, v in enumerate(rest) if v), None)
        if pivot is None:
            continue
        echelon.append((pivot, rest))
        yield word, vec
        for a, image_lines in enumerate(lines):
            image = [sum(map(mul, vec, line)) for line in image_lines]
            g = gcd(*image)
            if g > 1:
                image = [v // g for v in image]
            queue.append((word + (a,), image))


def lwa_observation_basis(lwa: Lwa) -> list[tuple[tuple[int, ...], list[int]]]:
    """Backward Krylov basis, breadth-first from out (Schützenberger's
    minimisation): the kept words w, each with a positive multiple of
    M_w . out in coprime integers.

    The words kept up to length i number |states| minus the rank of
    level i of the observability chain, whose vectors are exactly those
    that these vectors annihilate.
    """
    return list(_krylov(lwa.out, lwa.mat, row_vector=False))


def lwa_classes(lwa: Lwa) -> tuple[tuple[int, ...], ...]:
    """Classes of states whose unit configurations are equivalent.

    e_x - e_y weighs 0 on every word iff every vector M_w . out of the
    backward basis takes the same value at x and at y (a property that
    scaling a vector keeps), so states are grouped by their column of
    basis values.
    """
    basis = [vec for _, vec in lwa_observation_basis(lwa)]
    keys: dict[tuple, int] = {}
    return block_classes([
        keys.setdefault(tuple(v[x] for v in basis), len(keys))
        for x in range(len(lwa.states))])


def lwa_pair(lwa: Lwa, p: Sequence, q: Sequence) -> OracleVerdict:
    """Verdict and first distinguishing word, in length-then-action
    order, from a forward Krylov basis of d = p - q.

    The first kept word with d . M_w . out != 0 is that word.  Let w be
    the first distinguishing word, and suppose a prefix of w is dropped;
    take the shortest, u, with w = u.s.  Then d . M_u combines the
    vectors of kept words v before u, so d . M_w combines those of the
    words v.s, which come before w and weigh 0; w would weigh 0 too.
    So w is visited, and kept, since the kept words before it weigh 0.
    """
    n = len(lwa.states)
    if len(p) != n or len(q) != n:
        raise DimensionMismatch("configuration length does not match state count")
    diff = [Fraction(a) - Fraction(b) for a, b in zip(p, q)]
    out = _integral(lwa.out)
    for word, vec in _krylov(diff, lwa.mat, row_vector=True):
        if sum(map(mul, vec, out)):
            return OracleVerdict(False, word)
    return OracleVerdict(True, None)


# ------------------------------------------------------------ conditional

@dataclass(frozen=True)
class CtsBisimResult:
    """`blocks[k]` is condition k's partition as a block id per state;
    conditional bisimilarity relates only positions of one condition."""

    iterations: int
    blocks: tuple[tuple[int, ...], ...]

    def classes(self, k: int) -> tuple[tuple[int, ...], ...]:
        return block_classes(self.blocks[k])


def cts_conditional_bisim(cts: Cts) -> CtsBisimResult:
    """Greatest conditional bisimulation on condition/state positions.

    Conditions never interact, so each slice is refined on its own by
    the blocks of its successor set; the rounds of the joint fixpoint
    are the most any slice takes (one when there are no conditions).
    """
    n = len(cts.states)
    blocks, rounds = [], 1
    for row in cts.delta:
        succ = [list(bits(mask)) for mask in row]
        slice_blocks, slice_rounds = refine(
            n, lambda x, blocks: frozenset([blocks[y] for y in succ[x]]), succ)
        blocks.append(slice_blocks)
        rounds = max(rounds, slice_rounds)
    return CtsBisimResult(rounds, tuple(blocks))


# ------------------------------------------------------------------ Moore

def enabled_actions(delta: Sequence[Sequence[int]], x: int) -> int:
    """Mask of the actions x can take."""
    return sum(1 << a for a, mask in enumerate(delta[x]) if mask)


def refusal_output(delta: Sequence[Sequence[int]], num_actions: int, x: int) -> int:
    """Sets of actions the state can refuse: disjoint from its enabled set.

    "Refused" is taken as Z with Z and enabled(x) disjoint; reports that
    rely on it carry the assumption explicitly.  The result sets bit Z
    for every refused action mask Z: each refusable action a adds Z | a
    for every Z so far.
    """
    out = 1
    for a in bits(((1 << num_actions) - 1) & ~enabled_actions(delta, x)):
        out |= out << (1 << a)
    return out


def ready_output(delta: Sequence[Sequence[int]], x: int) -> int:
    """The singleton holding exactly the enabled-action set."""
    return 1 << enabled_actions(delta, x)


REFUSAL_ASSUMPTION = ("refusal: Z is refused at x iff Z and the enabled set "
                      "of x are disjoint")

SEMANTICS = ("trace", "failure", "ready")


def _set_of_sets_label(alphabet, value: int) -> str:
    """The action sets whose bits `value` sets, smaller sets first, sets
    of one size in the order of their sorted actions."""
    members = sorted(bits(value), key=lambda z: (z.bit_count(), tuple(bits(z))))
    return "{" + ",".join(subset_label(alphabet, z) for z in members) + "}"


def build_output_lts(states, alphabet, delta, semantics: str) -> OutputLts:
    """Equip a bare LTS with trace, failure or ready outputs.

    Trace outputs are the top of the two-element lattice.  Failure and
    ready outputs are sets of action sets, one bit per action mask, so
    a subset observes the union of its members' sets.
    """
    delta = tuple(tuple(row) for row in delta)
    if semantics == "trace":
        return lattice_lts(states, alphabet, delta, Semilattice.boolean(),
                           (1,) * len(states))
    if semantics == "failure":
        output = [refusal_output(delta, len(alphabet), x) for x in range(len(states))]
    elif semantics == "ready":
        output = [ready_output(delta, x) for x in range(len(states))]
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
    return OutputLts(states, alphabet, delta, tuple(output),
                     partial(_set_of_sets_label, alphabet))
