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
from itertools import accumulate, chain, compress, count, filterfalse
from operator import itemgetter
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


# Members per chunk of a subset table: a table has one entry per subset
# of its chunk, so a subset of n members is read in ceil(n / 8) lookups.
CHUNK = 8
CHUNK_MASK = (1 << CHUNK) - 1


def as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise DimensionMismatch(f"not an exact rational: {value!r}")


def rationals(values: Iterable) -> list[Fraction]:
    """`as_rational` of each value, in order, with no call for a value
    that is a Fraction already."""
    return [v if v.__class__ is Fraction else as_rational(v) for v in values]


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

    @cached_property
    def _subset_names(self) -> tuple[tuple[str, ...], ...]:
        # per chunk of members, the comma-joined names of each subset of
        # the chunk, indexed by its bits: the subsets with member j are
        # those without it, with its name appended
        tables = []
        for base in range(0, len(self.names), CHUNK):
            table = [""]
            for name in self.names[base:base + CHUNK]:
                table += [f"{rest},{name}" if rest else name for rest in table]
            tables.append(tuple(table))
        return tuple(tables)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)


def subset_label(base: Carrier, mask: int) -> str:
    """Canonical label of a subset of `base`, members in carrier order,
    read one chunk of the mask at a time from the carrier's tables; a
    mask with a member outside the carrier is refused."""
    if mask >> len(base.names):     # nonzero for a negative mask too
        raise ValueError(f"subset mask {mask} out of range for "
                         f"{len(base.names)} members")
    parts = []
    for table in base._subset_names:
        if mask & CHUNK_MASK:
            parts.append(table[mask & CHUNK_MASK])
        mask >>= CHUNK
    return "{" + ",".join(parts) + "}"


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


# The share of the carrier below which a round re-keys only the dirty
# elements.  A round that re-keys the whole carrier costs about 0.2 us
# per element and a dirty-set round 0.5-0.8 us per dirty element, and
# switching to dirty-set rounds costs about one more full round
# (measured on full powersets of 12 states and k-th-from-end machines,
# Python 3.11 on a shared 2-CPU host).
FULL_ROUND_SHARE = 0.15


def refine(size: int, signature: Callable, successors: Sequence[Iterable[int]],
           start: Sequence[int] | None = None) -> tuple[tuple[int, ...], int]:
    """Coarsest stable partition of 0..size-1 by signature refinement.

    `start`, when given, is the block array that round 1 yields, with
    ids below `size`: a caller that knows it (the elements split by what
    they output) passes it, and round 1 is counted but not run, so that
    the signature is first called in round 2 and need not repeat it.

    `signature(elements, blocks)` is called once per round.  It returns
    columns, each an iterable with one entry per element of `elements`
    in their order, and each element is keyed by the flat tuple of its
    block id and its entries.  `elements` is `range(size)` when the
    round re-keys the whole carrier and the set of dirty elements
    otherwise.  Element i's entries read `blocks` only at
    `successors[i]`, and whether two elements' entries are equal must
    not depend on which ids the blocks carry (true of entries built from
    the ids one to one).

    A full-carrier round keys every element with one zip, one dict and
    one map, all C-level passes: `dict.setdefault` names each element's
    new block by its least member.  A dirty-set round re-keys only the
    dirty elements: those with a successor whose id changed in the round
    before.  Within each block, the re-keyed elements are split by
    signature; when a block splits, its largest part keeps the block's
    id and the other parts get new ids, so only their members move.
    Each block keeps its size, its members, and `shared[b]`, the
    signature that all its members had when they were last keyed.

    A member of block b that is not re-keyed stays in b: it was last
    keyed under ids that its successors still carry, so its signature
    now is still shared[b].  A re-keyed member whose signature equals
    shared[b] stays with them; the others are grouped by signature.  So
    each dirty-set round splits each block exactly as re-keying every
    element by (block, signature) would, as a full-carrier round does,
    and by induction every round yields the same partition as that plain
    iteration.  The first round that splits no block (one with no dirty
    element, or whose re-keyed elements all match) confirms stability
    and is counted, so the rounds are the plain iteration's too, and
    round t yields the relation that gfp reaches at iteration t from the
    full relation when the step relates two elements iff their
    signatures agree.

    The switch rule: round 1 re-keys the whole carrier, and a round
    re-keys only the dirty elements when fewer than FULL_ROUND_SHARE of
    the carrier moved in the round before and fewer than that share is
    dirty.  After a full-carrier round, the new blocks it made are a
    floor on the elements that moved, and the sizes of its parts give
    their number, so the dirty set is listed only when both are small.
    The switch then gives each block's largest part the block's id and
    the other parts new ids and groups the carrier by block with one
    sort, in C-level passes, and lists the dirty set in time linear in
    the moved elements' predecessors.  The one Python-level pass over
    the carrier is the inversion of `successors`, made once, the first
    time a dirty set is listed.  The ids are renumbered by first occurrence at the end.
    Returns (block ids, rounds).
    """
    everyone = range(size)
    floor = FULL_ROUND_SHARE * size
    blocks, nblocks = [0] * size, min(size, 1)
    fresh = size            # the least id no block has had
    preds = None
    full, rounds = True, 0
    if start is not None:
        rounds = 1
        split = len(set(start))
        if split == nblocks:    # round 1 split nothing and confirmed it
            return (0,) * size, rounds
        blocks, nblocks = list(start), split
    while True:
        rounds += 1
        if full:
            # each element's new block, named by its least member
            first: dict = {}
            parts = list(map(first.setdefault,
                             zip(blocks, *signature(everyone, blocks)), everyone))
            grown, nblocks = len(first) - nblocks, len(first)
            if not grown:
                break
            # each new block moved at least one element
            if grown >= floor:
                blocks = parts
                continue
            size_of = Counter(parts)
            leads = list(first.values())
            ranked = sorted(leads, key=size_of.__getitem__)
            # the largest part of each old block, the last in size order
            largest = dict(zip(map(blocks.__getitem__, ranked), ranked))
            if size - sum(map(size_of.__getitem__, largest.values())) >= floor:
                blocks = parts
                continue
            # the largest part keeps its block's id; the others get new ids
            ids = dict(zip(largest.values(), largest))
            movers = list(filterfalse(ids.__contains__, leads))
            ids.update(zip(movers, count(fresh)))
            blocks = list(map(ids.__getitem__, parts))
            if preds is None:
                preds = [[] for _ in everyone]
                for i, row in enumerate(successors):
                    for j in row:
                        preds[j].append(i)
            # the members of the parts that took new ids
            moved = compress(everyone, map(fresh.__le__, blocks))
            dirty = {p for m in moved for p in preds[m]}
            fresh += len(movers)
            if len(dirty) >= floor:
                continue
            full = False
            # per block: its size, the signature its members were keyed
            # with, and its members (one sort of the carrier by block;
            # later rounds leave in it some members that have moved on)
            named = list(map(ids.__getitem__, leads))
            sizes = dict(zip(named, map(size_of.__getitem__, leads)))
            shared = dict(zip(named, map(itemgetter(slice(1, None)), first)))
            named.sort()
            ends = list(accumulate(map(sizes.__getitem__, named)))
            grouped = sorted(everyone, key=blocks.__getitem__)
            members = dict(zip(named, map(grouped.__getitem__,
                                          map(slice, chain((0,), ends), ends))))
            continue
        keys = list(zip(map(blocks.__getitem__, dirty), *signature(dirty, blocks)))
        tally: dict = {}
        for key in keys:
            tally[key] = tally.get(key, 0) + 1
        # the parts that leave their block, and the largest per block;
        # sizes[b] becomes the size of the part that stays
        leaving = []
        largest = {}
        for key, n in tally.items():
            b, s = key[0], key[1:]
            if s != shared[b]:
                leaving.append((b, s, key))
                sizes[b] -= n
                if n > tally[largest.setdefault(b, key)]:
                    largest[b] = key
        kept, swaps = set(), []
        for b, key in largest.items():
            if not sizes[b]:
                kept.add(key)  # nobody stays: the largest part keeps b
            elif sizes[b] < tally[key]:
                swaps.append((b, key))
        target, created = {}, []
        for b, s, key in leaving:
            if key in kept:
                sizes[b], shared[b] = tally[key], s
            else:
                target[key] = fresh
                sizes[fresh], shared[fresh], members[fresh] = tally[key], s, []
                created.append(fresh)
                fresh += 1
        if not created:
            break
        for i, c in zip(dirty, map(target.get, keys)):
            if c is not None:
                blocks[i] = c
                members[c].append(i)
        # a leaving part larger than the part that stays swaps ids with it
        for b, key in swaps:
            c = target[key]
            stay = [m for m in members[b] if blocks[m] == b]
            for m in stay:
                blocks[m] = c
            for m in members[c]:
                blocks[m] = b
            members[b], members[c] = members[c], stay
            sizes[b], sizes[c] = sizes[c], sizes[b]
            shared[b], shared[c] = shared[c], shared[b]
        nblocks = len(sizes)
        dirty = {p for c in created for m in members[c] for p in preds[m]}
        full = len(dirty) >= floor
    ids = dict(zip(dict.fromkeys(blocks), count()))
    return tuple(map(ids.__getitem__, blocks)), rounds


def block_classes(blocks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Members of each block, ascending, ordered by least member."""
    groups: dict[int, list[int]] = {}
    for i, b in enumerate(blocks):
        groups.setdefault(b, []).append(i)
    return tuple(tuple(g) for g in groups.values())


_ZERO = Fraction(0)
_ONE = Fraction(1)


# The exact arithmetic of the linear algebra, the weighted automata and
# the weighted law suite goes through these two.  Most of its operands
# are 0 (accumulators) or units (weights, pivots), and a Fraction
# operation costs about 1 us.  A rational has one lowest-terms form, so
# the skipped operation's result is the returned operand in value and
# type.  They read Fraction's lowest-terms slots `_numerator` and
# `_denominator`: its `numerator` and `denominator` properties cost a
# call each, as much as the test saves.

def qadd(x, y):
    """`x + y`; for two Fractions, the other operand when one is 0."""
    if x.__class__ is Fraction is y.__class__:
        if not y._numerator:
            return x
        if not x._numerator:
            return y
    return x + y


def qmul(x, y):
    """`x * y`; for two Fractions, the zero when one is 0, and the other
    factor or its negation when one is 1 or -1."""
    if x.__class__ is Fraction is y.__class__:
        if x._denominator == 1 and -1 <= x._numerator <= 1:
            return y if x._numerator == 1 else -y if x._numerator else x
        if y._denominator == 1 and -1 <= y._numerator <= 1:
            return x if y._numerator == 1 else -x if y._numerator else y
    return x * y


def _nonzero(row: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """The (column, value) pairs of a row's nonzero entries, ascending."""
    return [(c, v) for c, v in enumerate(row) if v]


def _rref(rows: list[list[Fraction]]) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """In-place reduced row echelon form; returns (pivot rows, pivot columns).

    Only nonzero entries are touched: a row whose entry in the pivot
    column is zero is skipped, a lead that is not 1 is set to 1 and
    divides the entries after it, and in every other row the pivot
    column is set to 0 and each update row[j] - f * b runs as
    row[j] + f * (-b) over the pivot row's other nonzero entries, which
    are negated once per pivot that updates a row.  The reduced form is
    unique, so the result is the canonical basis.
    """
    if not rows:
        return [], []
    add, mul = qadd, qmul
    ncols, nrows = len(rows[0]), len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for pivot_row in range(r, nrows):
            if rows[pivot_row][c]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot, rest = rows[r], None
        lead = pivot[c]
        if lead != 1:
            # the entries before c are 0, and the lead becomes 1
            pivot[c] = _ONE
            for j in range(c + 1, ncols):
                if pivot[j]:
                    pivot[j] /= lead
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if rest is None:
                    rest = [(j, -pivot[j]) for j in range(c + 1, ncols) if pivot[j]]
                row[c] = _ZERO
                for j, b in rest:
                    row[j] = add(row[j], mul(f, b))
        pivots.append(c)
        r += 1
        if r == nrows:
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
        """Each basis row as its lead column, where it is 1, and its
        other nonzero entries, negated."""
        return tuple((entries[0][0], [(c, -v) for c, v in entries[1:]])
                     for entries in map(_nonzero, self.basis))

    @cached_property
    def _orthogonal_tests(self) -> tuple[Vector, ...]:
        return nullspace(self.basis, self.dim).basis

    def contains(self, vector: Sequence) -> bool:
        return subspace_contains(self, vector)

    def is_zero(self) -> bool:
        return not self.basis


def echelonize(vectors: Iterable[Sequence], dim: int | None = None) -> Subspace:
    """Canonical basis of the span of `vectors`.

    `dim` is required when the list is empty; otherwise it must agree
    with the vectors' shared length.
    """
    rows = [rationals(vec) for vec in vectors]
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
    """Exact membership test by elimination against the canonical basis;
    the lead entry a basis row eliminates is set to 0."""
    v = rationals(vector)
    if len(v) != space.dim:
        raise DimensionMismatch(f"vector length {len(v)}, ambient {space.dim}")
    add, mul = qadd, qmul
    for lead, rest in space._sparse_basis:
        f = v[lead]
        if f:
            v[lead] = _ZERO
            for c, b in rest:
                v[c] = add(v[c], mul(f, b))
    return not any(v)


def nullspace(rows: Iterable[Sequence], dim: int) -> Subspace:
    """All v with row . v = 0 for every row, as a canonical subspace.

    The rows are reduced with their columns in reverse order.  Then the
    solution with a 1 at free column f has its other nonzero entries
    only at pivot columns below f in that order, which lie after f in
    the original order, so these solutions already form the canonical
    basis and need no second elimination.
    """
    mat = [rationals(reversed(row)) for row in rows]
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
    """Vectors z such that v in `space` iff v . z = 0 for all z, found
    once per subspace."""
    return space._orthogonal_tests


def preimage_subspace(matrix: Sequence[Sequence], space: Subspace) -> Subspace:
    """{v | v . matrix in space} for a dom x cod matrix, row-vector convention."""
    mat = [rationals(row) for row in matrix]
    for row in mat:
        if len(row) != space.dim:
            raise DimensionMismatch("matrix codomain does not match subspace")
    add, mul = qadd, qmul
    constraints = []
    for z in orthogonal_tests(space):
        entries = _nonzero(z)
        constraint = []
        for row in mat:
            total = _ZERO
            for j, b in entries:
                x = row[j]
                if x:
                    total = add(total, mul(x, b))
            constraint.append(total)
        constraints.append(constraint)
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
