from fractions import Fraction

import pytest

from behaveq import (
    BitRel,
    Carrier,
    DimensionMismatch,
    Lwa,
    Semilattice,
    echelonize,
    gfp,
    refine,
    subspace_contains,
)
from behaveq.core import Subspace, nullspace, preimage_subspace
from behaveq.rng import WEIGHT_GRID, Lcg

from conftest import mask_of


def test_carrier_lookup_roundtrip():
    c = Carrier(("x", "y", "z"))
    assert len(c) == 3
    assert [c.index(n) for n in c.names] == [0, 1, 2]
    with pytest.raises(ValueError):
        c.index("w")
    with pytest.raises(ValueError):
        Carrier(("x", "x"))


def test_bitrel_invariants():
    r = BitRel.from_pairs(3, [(0, 1), (1, 0), (2, 2)])
    assert r.has(0, 1) and not r.has(1, 2)
    assert set(r.pairs()) == {(0, 1), (1, 0), (2, 2)}
    with pytest.raises(ValueError):
        BitRel(2, (0b100, 0))
    assert BitRel.identity(3) <= BitRel.full(3)
    assert (BitRel.full(3) & BitRel.identity(3)) == BitRel.identity(3)


def test_refine_rounds_and_block_order():
    assert refine(0, lambda i, blocks: 0, []) == ((), 1)
    # a constant signature splits nothing: the confirming round is round 1
    assert refine(3, lambda i, blocks: "same", [()] * 3) == ((0, 0, 0), 1)
    # successor chain 0 -> 1 -> 2 -> 3 with 3 marked: one split per round
    succ, marked = (1, 2, 3, 3), (False, False, False, True)
    blocks, rounds = refine(
        4, lambda i, blocks: (marked[i], blocks[succ[i]]), [(s,) for s in succ])
    assert blocks == (0, 1, 2, 3)
    assert rounds == 4
    # blocks are numbered by first occurrence
    blocks, rounds = refine(4, lambda i, blocks: i % 2 == 0, [()] * 4)
    assert blocks == (0, 1, 0, 1) and rounds == 2
    assert BitRel.from_blocks(blocks) == BitRel.from_pairs(
        4, [(i, j) for i in range(4) for j in range(4) if i % 2 == j % 2])


# ------------------------------------------------------------------- gfp

def test_gfp_identity_operator():
    top = BitRel.full(3)
    result = gfp(lambda r: r, top)
    assert result.relation == top
    assert result.iterations == 1


def test_gfp_constant_intersection():
    top = BitRel.full(3)
    fixed = BitRel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1)])
    result = gfp(lambda r: r & fixed, top)
    assert result.relation == (top & fixed)
    assert result.iterations == 2


def test_gfp_nda_step_on_golden_example(golden_nda):
    # bisimulation step on the full subset space of the worked example
    n = len(golden_nda.states)
    size = 1 << n

    def step(rel: BitRel) -> BitRel:
        rows = []
        for u in range(size):
            row = 0
            for v in range(size):
                if golden_nda.observe(u) != golden_nda.observe(v):
                    continue
                if all(rel.has(golden_nda.post(u, a), golden_nda.post(v, a))
                       for a in range(2)):
                    row |= 1 << v
            rows.append(row)
        return BitRel(size, tuple(rows))

    result = gfp(step, BitRel.full(size), debug=True)
    xy = mask_of(golden_nda.states, "x", "y")
    y = mask_of(golden_nda.states, "y")
    xyz = mask_of(golden_nda.states, "x", "y", "z")
    yz = mask_of(golden_nda.states, "y", "z")
    nontrivial = {(u, v) for u, v in result.relation.pairs() if u != v}
    assert nontrivial == {(xy, y), (y, xy), (xyz, yz), (yz, xyz)}


def test_gfp_dominates_sampled_postfixpoints(golden_nda):
    # any stabilised descent from a random start is a post-fixpoint and
    # must sit below the greatest one
    n = len(golden_nda.states)
    size = 1 << n

    def step(rel: BitRel) -> BitRel:
        rows = []
        for u in range(size):
            row = 0
            for v in range(size):
                if golden_nda.observe(u) == golden_nda.observe(v) and all(
                        rel.has(golden_nda.post(u, a), golden_nda.post(v, a))
                        for a in range(2)):
                    row |= 1 << v
            rows.append(row)
        return BitRel(size, tuple(rows))

    greatest = gfp(step, BitRel.full(size)).relation
    rng = Lcg(5)
    for _ in range(20):
        start = BitRel(size, tuple(rng.next_u32() % (1 << size)
                                   for _ in range(size)))
        post = gfp(step, start).relation
        assert post <= step(post)
        assert post <= greatest


# --------------------------------------------------------------- subspaces

def test_echelonize_empty_span():
    s = echelonize([], dim=3)
    assert s.rank == 0 and s.dim == 3


def test_echelonize_standard_basis():
    s = echelonize([(1, 0), (0, 1)])
    assert s.rank == 2
    assert s.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_echelonize_dependent_rows():
    s = echelonize([(2, 4), (1, 2), (3, 6)])
    assert s.rank == 1
    assert s.basis == ((Fraction(1), Fraction(2)),)


def test_echelonize_idempotent_and_order_insensitive():
    rng = Lcg(3)
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    for _ in range(20):
        dim = rng.randint(1, 4)
        vecs = [tuple(rng.choice(grid) for _ in range(dim))
                for _ in range(rng.randint(0, 4))]
        s = echelonize(vecs, dim)
        assert echelonize(s.basis, dim) == s
        perm = list(reversed(vecs))
        assert echelonize(perm, dim) == s


def test_subspace_contains():
    w = echelonize([(1, 2)])
    assert subspace_contains(w, (0, 0))
    assert subspace_contains(w, (2, 4))
    assert not subspace_contains(w, (1, 0))
    with pytest.raises(DimensionMismatch):
        subspace_contains(w, (1, 0, 0))
    with pytest.raises(DimensionMismatch):
        echelonize([(1, 0), (1, 0, 0)])


def test_nullspace_and_preimage():
    # kernel of the sum functional in Q^3
    ker = nullspace([(1, 1, 1)], 3)
    assert ker.rank == 2
    assert subspace_contains(ker, (1, -1, 0))
    assert not subspace_contains(ker, (1, 1, 0))
    # preimage of span{(1,0)} under projection to first two coordinates
    matrix = [(1, 0), (0, 1), (0, 0)]
    pre = preimage_subspace(matrix, echelonize([(1, 0)]))
    assert subspace_contains(pre, (1, 0, 0))
    assert subspace_contains(pre, (0, 0, 1))
    assert not subspace_contains(pre, (0, 1, 0))


def _reference_rref(rows, dim):
    """Textbook Gauss-Jordan on dense rows: every entry is updated."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(dim):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), pivots


def _reference_nullspace(rows, dim):
    basis, pivots = _reference_rref(rows, dim)
    vecs = []
    for f in range(dim):
        if f not in pivots:
            v = [Fraction(0)] * dim
            v[f] = Fraction(1)
            for row, c in zip(basis, pivots):
                v[c] = -row[f]
            vecs.append(v)
    return _reference_rref(vecs, dim)[0]


def _reference_product(vector, matrix, cols):
    return tuple(sum((Fraction(vector[i]) * Fraction(matrix[i][j])
                      for i in range(len(vector))), Fraction(0))
                 for j in range(cols))


def _reference_contains(basis, vector, dim):
    return len(_reference_rref([*basis, vector], dim)[0]) == len(basis)


LARGE_RATIONALS = (Fraction(7, 3), Fraction(-22, 7), Fraction(1000003, 999),
                   Fraction(-5, 12), Fraction(2**40 + 1, 3**20))


def _random_matrix(rng, rows, cols):
    """Sparse or dense, with zero rows and all-zero matrices; integral
    entries are sometimes given as ints."""
    style = rng.randint(0, 5)
    entries = WEIGHT_GRID + (LARGE_RATIONALS if rng.randint(0, 3) == 0 else ())

    def entry():
        if style == 0 or (style <= 2 and rng.randint(0, 3)):
            return Fraction(0)              # all zero, or sparse
        return rng.choice(entries)
    mat = [[entry() for _ in range(cols)] for _ in range(rows)]
    for row in mat:
        if rng.randint(0, 7) == 0:
            row[:] = [Fraction(0)] * cols
    if rng.bit():
        mat = [[int(x) if x.denominator == 1 else x for x in row] for row in mat]
    return mat


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


def test_kernel_matches_dense_reference_on_random_matrices():
    rng = Lcg(2024)
    for trial in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(1, 8)
        mat = _random_matrix(rng, rows, cols)
        ctx = (trial, mat)

        span = echelonize(mat, cols)
        assert span == Subspace(cols, _reference_rref(mat, cols)[0]), ctx
        assert _all_fractions(span.basis), ctx

        kernel = nullspace(mat, cols)
        assert kernel.dim == cols, ctx
        assert kernel.basis == _reference_nullspace(mat, cols), ctx
        assert _all_fractions(kernel.basis), ctx

        target = echelonize(_random_matrix(rng, rng.randint(0, cols), cols), cols)
        pre = preimage_subspace(mat, target)
        tests = _reference_nullspace(target.basis, cols)
        constraints = [[sum((Fraction(row[j]) * z[j] for j in range(cols)),
                            Fraction(0)) for row in mat] for z in tests]
        assert pre == Subspace(rows, _reference_nullspace(constraints, rows)), ctx
        assert _all_fractions(pre.basis), ctx

        inside = [Fraction(0)] * cols
        for row in span.basis:
            c = rng.choice(WEIGHT_GRID)
            inside = [a + c * b for a, b in zip(inside, row)]
        for vec in (inside, *_random_matrix(rng, 3, cols)):
            assert subspace_contains(span, vec) == _reference_contains(
                span.basis, vec, cols), (ctx, vec)

        # the weighted step and output weight of a square automaton
        n = rng.randint(0, 7)
        square = _random_matrix(rng, n, n)
        out = _random_matrix(rng, 1, n)[0]
        lwa = Lwa(Carrier(tuple(f"s{i}" for i in range(n))), Carrier(("a",)),
                  tuple(out), (tuple(map(tuple, square)),))
        for vec in _random_matrix(rng, 2, n):
            product = lwa.post(vec, 0)
            assert product == _reference_product(vec, square, n), (ctx, lwa)
            assert _all_fractions([product]), (ctx, lwa)
            value = lwa.observe(vec)
            assert value == _reference_product(vec, [[x] for x in out], 1)[0], (ctx, lwa)
            assert type(value) is Fraction, (ctx, lwa)


# --------------------------------------------------------------- rationals

def test_rational_grid_arithmetic():
    grid = [Fraction(n, d) for n in range(-3, 4) for d in range(1, 4)]
    for a in grid:
        for b in grid:
            assert (a + b) - b == a
        if a:
            assert a * (1 / a) == 1
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(1, -2).denominator > 0


# ------------------------------------------------------------- semilattice

def test_semilattice_boolean_and_laws():
    lat = Semilattice.boolean()
    assert lat.diagnostics() == []
    assert lat.table[0][1] == 1
    # the empty join is bottom, which is the empty set
    assert lat.as_sets() == (0, 1)


def test_semilattice_violation_names_element():
    bad = Semilattice(("u", "v"), ((1, 1), (1, 1)), 0)
    probs = bad.diagnostics()
    assert any("idempotent" in p and "u" in p for p in probs)
    with pytest.raises(ValueError):
        Semilattice.create(("u", "v"), ((1, 1), (1, 1)), 0)


def _union_closure_lattice(family):
    """The union closure of a family of masks plus 0, as a join table
    over its members in descending order (so bottom comes last)."""
    closed = {0, *family}
    while True:
        extra = {a | b for a in closed for b in closed} - closed
        if not extra:
            break
        closed |= extra
    ordered = sorted(closed, reverse=True)
    idx = {v: i for i, v in enumerate(ordered)}
    return Semilattice.create(tuple(map(str, ordered)),
                              tuple(tuple(idx[a | b] for b in ordered) for a in ordered),
                              idx[0])


def _chain(n):
    return Semilattice.create(tuple(f"c{i}" for i in range(n)),
                              tuple(tuple(max(i, j) for j in range(n)) for i in range(n)), 0)


def test_semilattice_as_sets_laws():
    diamond = Semilattice.create(("bot", "l", "r", "top"),
                                 ((0, 1, 2, 3), (1, 1, 3, 3),
                                  (2, 3, 2, 3), (3, 3, 3, 3)), 0)
    lattices = [Semilattice.boolean(), diamond, *(_chain(n) for n in range(1, 6))]
    rng = Lcg(1414)
    for _ in range(40):
        universe = rng.randint(1, 5)
        lattices.append(_union_closure_lattice(
            [rng.randint(0, (1 << universe) - 1) for _ in range(rng.randint(0, 5))]))
    for lat in lattices:
        sets = lat.as_sets()
        n = len(lat)
        assert len(set(sets)) == n
        assert sets[lat.bottom] == 0
        for a in range(n):
            for b in range(n):
                assert sets[lat.table[a][b]] == sets[a] | sets[b]
