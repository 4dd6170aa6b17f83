"""Exact-arithmetic and relation-lattice kernel.

Everything downstream (system families, equivalence engines, quotients,
logics) is built on four small value types: finite labelled carriers,
bit-matrix relations, exact rational subspaces in reduced row-echelon
form, and finite join-semilattices.  All values are immutable after
construction and all operations are pure, so they are safe to share
across threads.

Two fixpoint routines sit on top: `refine`, signature refinement to
the coarsest stable partition (the automaton, Moore and conditional
engines), and `gfp`, Kleene iteration on any relation lattice.  No
engine runs `gfp`: it is kept because the tests' Kleene references run
on it and on `GfpResult`, and the benchmark's tracer wraps it.  An
equivalence is a block array, one hashable key or id per position, from
the engines to every report; `BitRel` is the gfp lattice and the input
of the conditional relation lifting and the law suite.

Rationals are `fractions.Fraction` (re-exported as `Rational`): always
in lowest terms, positive denominator, arbitrary-precision integers,
never floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

Rational = Fraction

Vector = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Vectors or matrices with incompatible ambient dimensions."""


class CapExceeded(ValueError):
    """A construction would blow past its configured size cap."""


def bits(mask: int) -> Iterator[int]:
    """Positions of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise DimensionMismatch(f"not an exact rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Canonical text form: bare integer, else 'p/q'."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Carrier:
    """Ordered finite set of uniquely labelled elements."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            dup = sorted(n for n in set(self.names) if self.names.count(n) > 1)
            raise ValueError(f"duplicate carrier labels: {dup}")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValueError(f"unknown label {label!r}") from None

    def label(self, i: int) -> str:
        return self.names[i]

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)


def subset_label(base: Carrier, mask: int) -> str:
    """Canonical label of a subset of `base`, members in carrier order."""
    return "{" + ",".join(base.names[i] for i in bits(mask)) + "}"


def parse_subset_label(base: Carrier, text: str) -> int:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"subset must be written '{{x,y}}', got {text!r}")
    body = text[1:-1].strip()
    mask = 0
    if body:
        for part in body.split(","):
            mask |= 1 << base.index(part.strip())
    return mask


@dataclass(frozen=True)
class BitRel:
    """Binary relation on 0..size-1 stored as per-row bitmasks: the
    lattice that `gfp` iterates on, and the relations that the
    conditional relation lifting and the law suite take.  Equivalences
    are block arrays; `from_blocks` gives one as a relation."""

    size: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.size:
            raise ValueError("row count does not match carrier size")
        valid = (1 << self.size) - 1
        for i, row in enumerate(self.rows):
            if row & ~valid:
                raise ValueError(f"row {i} has bits outside the carrier")

    @classmethod
    def empty(cls, size: int) -> "BitRel":
        return cls(size, (0,) * size)

    @classmethod
    def full(cls, size: int) -> "BitRel":
        return cls(size, ((1 << size) - 1,) * size)

    @classmethod
    def identity(cls, size: int) -> "BitRel":
        return cls(size, tuple(1 << i for i in range(size)))

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "BitRel":
        rows = [0] * size
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"pair ({i},{j}) outside carrier of size {size}")
            rows[i] |= 1 << j
        return cls(size, tuple(rows))

    @classmethod
    def from_blocks(cls, blocks: Sequence[int]) -> "BitRel":
        """The equivalence whose classes are the blocks of a block array;
        related elements share one row mask."""
        masks: dict[int, int] = {}
        for i, b in enumerate(blocks):
            masks[b] = masks.get(b, 0) | 1 << i
        return cls(len(blocks), tuple(masks[b] for b in blocks))

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            for j in bits(row):
                yield i, j

    def __and__(self, other: "BitRel") -> "BitRel":
        if self.size != other.size:
            raise DimensionMismatch("relation sizes differ")
        return BitRel(self.size, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def __le__(self, other: "BitRel") -> bool:
        return self.size == other.size and all(
            a & ~b == 0 for a, b in zip(self.rows, other.rows)
        )


@dataclass(frozen=True)
class GfpResult:
    """Greatest fixpoint plus the number of step applications taken."""

    relation: object
    iterations: int


def gfp(step: Callable, top, *, debug: bool = False) -> GfpResult:
    """Greatest R <= top with R <= step(R), by Kleene iteration from the top.

    `step` must be monotone w.r.t. inclusion; that is the caller's
    obligation.  With debug=True the images along the descending chain
    are checked to be descending too, which catches most monotonicity
    bugs cheaply.  Termination is guaranteed on any finite lattice.
    """
    cur = top
    prev_image = None
    iterations = 0
    while True:
        iterations += 1
        image = step(cur)
        if debug and prev_image is not None and not (image <= prev_image):
            raise ValueError("step operator is not monotone along the iteration chain")
        prev_image = image
        nxt = cur & image
        if nxt == cur:
            return GfpResult(cur, iterations)
        cur = nxt


_NO_SIGNATURE = object()


def refine(size: int, signature: Callable,
           successors: Sequence[Iterable[int]]) -> tuple[tuple[int, ...], int]:
    """Coarsest stable partition of 0..size-1 by signature refinement.

    `signature(i, blocks)` reads `blocks` only at `successors[i]`, and
    whether two signatures are equal must not depend on which ids the
    blocks carry (true of any signature built from the ids one to one).

    Round 1 keys every element by its signature under the one-block
    partition.  Round r+1 re-keys only the dirty elements: those with a
    successor whose id changed in round r.  Within each block, the
    elements are split by signature; when a block splits, its largest
    part keeps the block's id and the other parts get new ids, so only
    their members change id.  Sizes are kept as counters, and each
    block records `shared[b]`, the signature that all its members had
    when they were last keyed.

    A member of block b that is not re-keyed stays in b: it was last
    keyed under ids that its successors still carry, so its signature
    now is still shared[b].  A re-keyed member whose signature equals
    shared[b] stays with them; the others are grouped by signature.  So
    each round splits each block exactly as re-keying every element by
    (block, signature) would, and by induction every round yields the
    same partition as that plain iteration.  The first round that
    splits no block (one with no dirty element, or whose dirty elements
    all match) confirms stability and is counted, so the rounds are the
    plain iteration's too, and round t yields the relation that gfp
    reaches at iteration t from the full relation when the step relates
    two elements iff their signatures agree.  The ids are renumbered by
    first occurrence at the end.  Returns (block ids, rounds).
    """
    preds: list[list[int]] = [[] for _ in range(size)]
    for i, row in enumerate(successors):
        for j in row:
            preds[j].append(i)
    blocks = [0] * size
    sizes = [size]
    # each block's members, and perhaps some that have left it since
    members: list = [range(size)]
    shared = [_NO_SIGNATURE]
    dirty: Iterable[int] = range(size)
    rounds = 0
    while True:
        rounds += 1
        keys: dict = {}
        kid = [keys.setdefault((blocks[i], signature(i, blocks)), len(keys))
               for i in dirty]
        count = Counter(kid)
        # the parts that leave their block, and the largest per block;
        # sizes[b] becomes the size of the part that stays
        leaving = [(b, s, k) for (b, s), k in keys.items() if s != shared[b]]
        largest: dict[int, int] = {}
        for b, s, k in leaving:
            n = count[k]
            sizes[b] -= n
            if n > count[largest.setdefault(b, k)]:
                largest[b] = k
        # the new id of each key's part; -1 where the part keeps its id
        target = [-1] * len(keys)
        kept, swaps = set(), []
        for b, k in largest.items():
            if not sizes[b]:
                kept.add(k)  # nobody stays: the largest part keeps b
            elif sizes[b] < count[k]:
                swaps.append((b, k))
        fresh = len(sizes)
        for b, s, k in leaving:
            if k in kept:
                sizes[b], shared[b] = count[k], s
            else:
                target[k] = len(sizes)
                sizes.append(count[k])
                shared.append(s)
                members.append([])
        if fresh == len(sizes):
            ids: dict[int, int] = {}
            return tuple([ids.setdefault(b, len(ids)) for b in blocks]), rounds
        for i, k in zip(dirty, kid):
            c = target[k]
            if c >= 0:
                blocks[i] = c
                members[c].append(i)
        # a leaving part larger than the part that stays swaps ids with it
        for b, k in swaps:
            c = target[k]
            stay = [m for m in members[b] if blocks[m] == b]
            for m in stay:
                blocks[m] = c
            for m in members[c]:
                blocks[m] = b
            members[b], members[c] = members[c], stay
            sizes[b], sizes[c] = sizes[c], sizes[b]
            shared[b], shared[c] = shared[c], shared[b]
        dirty = {p for part in members[fresh:] for m in part for p in preds[m]}


def block_classes(blocks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Members of each block, ascending, ordered by least member."""
    groups: dict[int, list[int]] = {}
    for i, b in enumerate(blocks):
        groups.setdefault(b, []).append(i)
    return tuple(tuple(g) for g in groups.values())


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _nonzero(row: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """The (column, value) pairs of a row's nonzero entries, ascending."""
    return [(c, v) for c, v in enumerate(row) if v]


def _rref(rows: list[list[Fraction]]) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """In-place reduced row echelon form; returns (pivot rows, pivot columns).

    Only nonzero entries are touched: a row whose entry in the pivot
    column is zero is skipped, a lead that is already 1 divides nothing,
    and each update runs over the pivot row's nonzero entries.  The
    reduced form is unique, so the result is the canonical basis.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][c]
        if lead != 1:
            rows[r] = [v / lead if v else v for v in rows[r]]
        entries = _nonzero(rows[r])
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j, b in entries:
                    row[j] -= f * b
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^dim with a canonical reduced row-echelon basis.

    Two subspaces are equal iff their canonical bases are identical, so
    dataclass equality is semantic equality.
    """

    dim: int
    basis: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def _sparse_basis(self) -> tuple[tuple[int, list[tuple[int, Fraction]]], ...]:
        """Each basis row as (lead column, nonzero entries); every lead is 1."""
        return tuple((entries[0][0], entries)
                     for entries in map(_nonzero, self.basis))

    def contains(self, vector: Sequence) -> bool:
        return subspace_contains(self, vector)

    def is_zero(self) -> bool:
        return not self.basis


def echelonize(vectors: Iterable[Sequence], dim: int | None = None) -> Subspace:
    """Canonical basis of the span of `vectors`.

    `dim` is required when the list is empty; otherwise it must agree
    with the vectors' shared length.
    """
    rows = [[as_rational(v) for v in vec] for vec in vectors]
    if rows:
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise DimensionMismatch(f"mixed vector lengths {sorted(widths)}")
        width = widths.pop()
        if dim is not None and dim != width:
            raise DimensionMismatch(f"vectors have length {width}, expected {dim}")
        dim = width
    elif dim is None:
        raise DimensionMismatch("empty span needs an explicit ambient dimension")
    basis, _ = _rref(rows)
    return Subspace(dim, tuple(basis))


def subspace_contains(space: Subspace, vector: Sequence) -> bool:
    """Exact membership test by elimination against the canonical basis."""
    v = [as_rational(x) for x in vector]
    if len(v) != space.dim:
        raise DimensionMismatch(f"vector length {len(v)}, ambient {space.dim}")
    for lead, entries in space._sparse_basis:
        f = v[lead]
        if f:
            for c, b in entries:
                v[c] -= f * b
    return not any(v)


def nullspace(rows: Iterable[Sequence], dim: int) -> Subspace:
    """All v with row . v = 0 for every row, as a canonical subspace.

    The rows are reduced with their columns in reverse order.  Then the
    solution with a 1 at free column f has its other nonzero entries
    only at pivot columns below f in that order, which lie after f in
    the original order, so these solutions already form the canonical
    basis and need no second elimination.
    """
    mat = [[as_rational(v) for v in reversed(row)] for row in rows]
    for row in mat:
        if len(row) != dim:
            raise DimensionMismatch(f"row length {len(row)}, expected {dim}")
    basis, pivots = _rref(mat)
    pivot_set = set(pivots)
    vecs = []
    for f in reversed(range(dim)):
        if f in pivot_set:
            continue
        v = [_ZERO] * dim
        v[dim - 1 - f] = _ONE
        for row, c in zip(basis, pivots):
            if c > f:
                break
            if row[f]:
                v[dim - 1 - c] = -row[f]
        vecs.append(tuple(v))
    return Subspace(dim, tuple(vecs))


def orthogonal_tests(space: Subspace) -> tuple[Vector, ...]:
    """Vectors z such that v in `space` iff v . z = 0 for all z."""
    return nullspace(space.basis, space.dim).basis


def preimage_subspace(matrix: Sequence[Sequence], space: Subspace) -> Subspace:
    """{v | v . matrix in space} for a dom x cod matrix, row-vector convention."""
    mat = [[as_rational(x) for x in row] for row in matrix]
    for row in mat:
        if len(row) != space.dim:
            raise DimensionMismatch("matrix codomain does not match subspace")
    constraints = []
    for z in orthogonal_tests(space):
        entries = _nonzero(z)
        constraints.append([sum((row[j] * b for j, b in entries if row[j]), _ZERO)
                            for row in mat])
    return nullspace(constraints, len(mat))


@dataclass(frozen=True)
class Semilattice:
    """Finite join-semilattice given by an explicit join table.

    `table[i][j]` is the index of join(i, j); `bottom` is the unit.
    Use `create` to get the laws verified exhaustively; raw construction
    is allowed so that ill-formed tables can be diagnosed by
    `diagnostics` instead of an exception.  `problems` runs
    `diagnostics` once per lattice, so a table checked by `create` is
    not checked again by `systems.lattice_lts`.
    """

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    bottom: int

    @classmethod
    def create(cls, names, table, bottom) -> "Semilattice":
        lat = cls(tuple(names), tuple(tuple(row) for row in table), bottom)
        if lat.problems:
            raise ValueError(lat.problems[0])
        return lat

    @classmethod
    def boolean(cls) -> "Semilattice":
        return cls(("0", "1"), ((0, 1), (1, 1)), 0)

    def as_sets(self) -> tuple[int, ...]:
        """Each element v as the mask of the elements u with v not below u
        (join(v, u) != u).  On a table that passes `diagnostics` the map
        is injective, sends bottom to 0 and joins to unions, so the
        semilattice is a union-closed family of sets."""
        return tuple(sum(1 << u for u, j in enumerate(row) if j != u)
                     for row in self.table)

    @cached_property
    def problems(self) -> tuple[str, ...]:
        return tuple(self.diagnostics())

    def diagnostics(self) -> list[str]:
        n = len(self.names)
        probs = []
        if len(self.table) != n or any(len(row) != n for row in self.table):
            return [f"join table is not {n}x{n}"]
        for i in range(n):
            for j in range(n):
                if not (0 <= self.table[i][j] < n):
                    return [f"join({self.names[i]},{self.names[j]}) out of range"]
        if not (0 <= self.bottom < n):
            return ["bottom element out of range"]
        for i in range(n):
            if self.table[i][i] != i:
                probs.append(f"join not idempotent at {self.names[i]}")
        for i in range(n):
            for j in range(i + 1, n):
                if self.table[i][j] != self.table[j][i]:
                    probs.append(
                        f"join not commutative at ({self.names[i]},{self.names[j]})")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        probs.append(
                            "join not associative at "
                            f"({self.names[i]},{self.names[j]},{self.names[k]})")
                        return probs
        for i in range(n):
            if self.table[self.bottom][i] != i:
                probs.append(f"bottom is not a unit at {self.names[i]}")
        return probs

    def __len__(self) -> int:
        return len(self.names)
