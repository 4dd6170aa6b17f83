"""The four system families and their determinisations.

Nondeterministic automata, rational-weighted automata, conditional
transition systems and LTSs whose outputs are sets joined by union, all
as immutable values that refuse a malformed shape at construction with
a `ValueError`: a table of the wrong size, a successor or accepting
mask outside the states, an output table of the wrong length, or a
weight that is not an exact rational.  Subsets of a state carrier are
n-bit little-endian masks throughout, and so are output sets.

The three word-reading families share one-step dynamics:
`post(config, a)` is the configuration after action a and
`observe(config)` what is seen of it.  Configurations are subset masks
observed by acceptance (Nda) or by the union of the members' output
sets (OutputLts), and weight vectors by their output weight (Lwa).
Determinization, word search, theory tables and word evaluation are all
built on this pair; the full-powerset machine reads it for every subset
at once, through `post_all` and `observe_all`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .core import (
    CHUNK,
    CHUNK_MASK,
    CapExceeded,
    Carrier,
    DimensionMismatch,
    Semilattice,
    bits,
    qadd,
    qmul,
    rationals,
    subset_label,
)

_ZERO = Fraction(0)


def _every_union(masks: Sequence[int]) -> list[int]:
    """The union of `masks[x]` over each subset of the indices x, in mask
    order: the subsets with index j are those without it, joined with
    `masks[j]`."""
    table = [0]
    for mask in masks:
        table += [rest | mask for rest in table]
    return table


def _union_tables(masks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """`_every_union` of each chunk of `CHUNK` consecutive states."""
    return tuple(tuple(_every_union(masks[base:base + CHUNK]))
                 for base in range(0, len(masks), CHUNK))


def _check_table(delta, rows: int, cols: int, n: int, where) -> None:
    """Refuse a `delta` that is not a rows x cols table of masks over n
    states; `where(r, c)` names the entry whose successors leave them."""
    if len(delta) != rows or any(len(row) != cols for row in delta):
        raise ValueError(f"delta is not a {rows}x{cols} table")
    for r, row in enumerate(delta):
        for mask in row:
            if mask >> n:       # nonzero for a negative mask too
                raise ValueError(f"successors of {where(r, row.index(mask))} "
                                 "leave the carrier")


class _SubsetSystem:
    """One step of an Nda or OutputLts: `delta[x][a]` is the successor
    mask of state x under action a, and a subset steps to the union of
    its members' successors.

    Unions over a subset are read from per-chunk union tables, built on
    first use, one lookup per chunk of the mask; a mask with a member
    outside the carrier, or an action outside the alphabet, is refused.
    `post_all` and `observe_all` give the step of every subset at once,
    in mask order, for the full-powerset machine."""

    def __post_init__(self):
        _check_table(self.delta, len(self.states), len(self.alphabet),
                     len(self.states), lambda x, a: self.states.label(x))

    @cached_property
    def _post_tables(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        # keyed by action index, so that a negative index misses
        return {a: _union_tables([row[a] for row in self.delta])
                for a in range(len(self.alphabet))}

    def _joined(self, tables, mask: int) -> int:
        out, rest = 0, mask
        try:
            for table in tables:
                out |= table[rest & CHUNK_MASK]
                rest >>= CHUNK
        except IndexError:      # a member past the last, partial chunk
            rest = -1
        if rest:
            raise ValueError(f"subset mask {mask} out of range for "
                             f"{len(self.states)} states")
        return out

    def post(self, mask: int, a: int) -> int:
        try:
            tables = self._post_tables[a]
        except KeyError:
            raise ValueError(f"unknown action index {a}") from None
        return self._joined(tables, mask)

    def post_all(self, a: int) -> list[int]:
        """`post(mask, a)` for every mask of the carrier, in mask order."""
        if not 0 <= a < len(self.alphabet):
            raise ValueError(f"unknown action index {a}")
        return _every_union([row[a] for row in self.delta])

    def reverse(self):
        """Every edge turned round, with the same outputs (accepting
        mask): its `post(mask, a)` is the set of states with an a-step
        into `mask`, so determinizing it is the backward (predicate)
        determinization."""
        rows = [[0] * len(self.alphabet) for _ in self.delta]
        for x, row in enumerate(self.delta):
            for a, succ in enumerate(row):
                for y in bits(succ):
                    rows[y][a] |= 1 << x
        return replace(self, delta=tuple(map(tuple, rows)))


@dataclass(frozen=True)
class Nda(_SubsetSystem):
    """Nondeterministic automaton with a termination/acceptance marker.

    `delta[x][a]` is the successor mask of x under a, `accepting` the
    bitmask of accepting states.  Determinized, it is the Moore machine
    over the two-element semilattice: a subset is observed accepting
    when it meets `accepting`.
    """

    states: Carrier
    alphabet: Carrier
    delta: tuple[tuple[int, ...], ...]
    accepting: int

    def __post_init__(self):
        super().__post_init__()
        if self.accepting >> len(self.states):
            raise ValueError("accepting mask has bits outside the state carrier")

    def observe(self, mask: int) -> bool:
        if mask >> len(self.states):    # nonzero for a negative mask too
            raise ValueError(f"subset mask {mask} out of range for "
                             f"{len(self.states)} states")
        return bool(mask & self.accepting)

    def observe_all(self) -> list[bool]:
        """`observe(mask)` for every mask of the carrier, in mask order."""
        accepting = self.accepting
        return [mask & accepting != 0 for mask in range(1 << len(self.states))]


@dataclass(frozen=True)
class Lwa:
    """Weighted automaton over exact rationals.

    Row-vector convention: configurations are row vectors p over the
    states, one step under action a is p . mat[a], the output weight is
    p . out.
    """

    states: Carrier
    alphabet: Carrier
    out: tuple[Fraction, ...]
    mat: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        n, m = len(self.states), len(self.alphabet)
        if len(self.out) != n:
            raise ValueError(f"output vector has length {len(self.out)}, expected {n}")
        if len(self.mat) != m:
            raise ValueError(f"{len(self.mat)} matrices for {m} actions")
        for a, mat in enumerate(self.mat):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"matrix for {self.alphabet.label(a)} is not {n}x{n}")
        for vec in (self.out, *(row for mat in self.mat for row in mat)):
            for v in vec:
                # Fraction first: almost every weight is one
                if not isinstance(v, Fraction) and (
                        not isinstance(v, int) or isinstance(v, bool)):
                    raise ValueError(f"non-rational weight {v!r}")

    def post(self, p: Sequence, a: int) -> tuple[Fraction, ...]:
        """One weighted step: p . mat[a]; rows where p is zero are not read."""
        if not (0 <= a < len(self.alphabet)):
            raise ValueError(f"unknown action index {a}")
        p = self._config(p)
        add, mul = qadd, qmul
        out = [_ZERO] * len(p)
        for c, row in zip(p, self.mat[a]):
            if c:
                for j, x in enumerate(row):
                    if x:
                        out[j] = add(out[j], mul(c, x))
        return tuple(out)

    def observe(self, p: Sequence) -> Fraction:
        """Output weight of a configuration: p . out."""
        add, mul = qadd, qmul
        total = _ZERO
        for c, w in zip(self._config(p), self.out):
            if c and w:
                total = add(total, mul(c, w))
        return total

    def _config(self, p: Sequence) -> list[Fraction]:
        try:
            size = len(p)
        except TypeError:
            raise DimensionMismatch(f"configuration {p!r} is not a vector") from None
        if size != len(self.states):
            raise DimensionMismatch("vector length does not match state count")
        return rationals(p)


@dataclass(frozen=True)
class Cts:
    """Conditional transition system: delta[k][x] is a successor mask."""

    conditions: Carrier
    states: Carrier
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        names, conditions = self.states, self.conditions
        _check_table(self.delta, len(conditions), len(names), len(names),
                     lambda k, x: f"{names.label(x)} under {conditions.label(k)}")


@dataclass(frozen=True)
class OutputLts(_SubsetSystem):
    """LTS whose outputs are sets joined by union.

    `delta[x][a]` is a successor mask and `output[x]` the mask of the
    set state x outputs; `show` renders an observed mask.
    """

    states: Carrier
    alphabet: Carrier
    delta: tuple[tuple[int, ...], ...]
    output: tuple[int, ...]
    show: Callable[[int], str] = field(compare=False)

    def __post_init__(self):
        super().__post_init__()
        if len(self.output) != len(self.states):
            raise ValueError("output table length does not match state count")

    @cached_property
    def _output_tables(self) -> tuple[tuple[int, ...], ...]:
        return _union_tables(self.output)

    def observe(self, mask: int) -> int:
        """Union of the members' outputs; the empty subset observes 0."""
        return self._joined(self._output_tables, mask)

    def observe_all(self) -> list[int]:
        """`observe(mask)` for every mask of the carrier, in mask order."""
        return _every_union(self.output)


def lattice_lts(states: Carrier, alphabet: Carrier, delta, lattice: Semilattice,
                outputs: Sequence[int]) -> OutputLts:
    """The Moore system whose state x outputs element `outputs[x]` of an
    explicit semilattice, each element embedded as its set `as_sets()`
    and shown by its name.  A table that fails `diagnostics` is refused."""
    if lattice.problems:
        raise ValueError(lattice.problems[0])
    sets = lattice.as_sets()
    for x, o in enumerate(outputs):
        if not 0 <= o < len(sets):
            raise ValueError(f"output of {states.label(x)} is not a lattice element")
    return OutputLts(states, alphabet, delta, tuple(sets[o] for o in outputs),
                     dict(zip(sets, lattice.names)).__getitem__)


@dataclass(frozen=True)
class DeterminizedMachine:
    """Reachable subset machine of an Nda or OutputLts.

    States are subset masks in BFS discovery order starting from the
    sorted initial masks, so construction is deterministic.  `out` holds
    booleans for automata and output-set masks for Moore machines.
    """

    base: object
    alphabet: Carrier
    subset_states: tuple[int, ...]
    trans: tuple[tuple[int, ...], ...]
    out: tuple[object, ...]

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {mask: i for i, mask in enumerate(self.subset_states)}

    def pos(self, mask: int) -> int:
        try:
            return self._pos[mask]
        except KeyError:
            raise ValueError(f"subset mask {mask} is not a reachable state") from None

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The subset label of each position, in position order."""
        states = self.base.states
        return tuple([subset_label(states, mask) for mask in self.subset_states])

    def label(self, i: int) -> str:
        return self.labels[i]


def _check_masks(n: int, initials: Iterable[int]) -> list[int]:
    top = 1 << n
    masks = sorted(set(initials))
    for m in masks:
        if not (0 <= m < top):
            raise ValueError(f"subset mask {m} out of range for {n} states")
    return masks


def moore_determinize(system, initials: Iterable[int],
                      cap: int = 12) -> DeterminizedMachine:
    """Reachable subset machine of an Nda or OutputLts from `initials`,
    with the members' outputs joined (acceptance, for an automaton).

    When every subset is initial, the machine is the full powerset:
    position i is mask i, and its rows come from `post_all` and
    `observe_all`, with no search.  Otherwise positions are found by
    breadth-first search from the sorted initials.

    Refuses with `CapExceeded` as soon as the breadth-first queue holds
    more than 2^cap positions, so a full powerset past the cap at once;
    the full powerset of n <= cap states fits."""
    num_actions = len(system.alphabet)
    n = len(system.states)
    order = _check_masks(n, initials)
    # no machine passes 2^n positions, so a larger cap bounds nothing
    limit = 1 << max(0, min(cap, n))
    # past the cap, the full powerset is refused by the search's first check
    if len(order) == 1 << n and len(order) <= limit:
        cols = [system.post_all(a) for a in range(num_actions)]
        return DeterminizedMachine(
            base=system,
            alphabet=system.alphabet,
            subset_states=tuple(order),
            trans=tuple(zip(*cols)) if cols else ((),) * len(order),
            out=tuple(system.observe_all()),
        )
    post, observe = system.post, system.observe
    pos = {m: i for i, m in enumerate(order)}
    trans: list[list[int]] = []
    queue = list(order)
    head = 0
    while head < len(queue):
        if len(queue) > limit:
            raise CapExceeded(f"subset machine reaches {len(queue)} positions, "
                              f"past the cap of 2^{cap}")
        mask = queue[head]
        head += 1
        row = []
        for a in range(num_actions):
            target = post(mask, a)
            if target not in pos:
                pos[target] = len(queue)
                queue.append(target)
            row.append(pos[target])
        trans.append(row)
    return DeterminizedMachine(
        base=system,
        alphabet=system.alphabet,
        subset_states=tuple(queue),
        trans=tuple(tuple(r) for r in trans),
        out=tuple(observe(m) for m in queue),
    )


# The automaton's name for the same construction.
forward_determinize = moore_determinize


def word_dynamics(system):
    """The post/observe pair of an automaton, weighted automaton, Moore
    system or any other object with those two methods; a system without
    them (a Cts) reads no words."""
    try:
        return system.post, system.observe
    except AttributeError:
        raise ValueError(f"{type(system).__name__} reads no words") from None


def eval_word(system, start, word: Sequence[int]):
    """What is observed of configuration `start` after reading `word`."""
    post, observe = word_dynamics(system)
    for a in word:
        start = post(start, a)
    return observe(start)
