from fractions import Fraction

import pytest

from behaveq import (
    Carrier,
    Cts,
    DimensionMismatch,
    Lwa,
    Nda,
    OutputLts,
    Semilattice,
    lattice_lts,
    moore_determinize,
)
from behaveq.core import bits
from behaveq.equivalence import build_output_lts
from behaveq.rng import Lcg, random_nda, random_vector

from conftest import mask_of


def naive_accepts(nda: Nda, x: int, word) -> bool:
    """Per-state language membership by plain recursion."""
    if not word:
        return bool(nda.accepting >> x & 1)
    a, rest = word[0], word[1:]
    return any(naive_accepts(nda, y, rest) for y in bits(nda.delta[x][a]))


def test_moore_determinize_golden_example(golden_nda):
    xy = mask_of(golden_nda.states, "x", "y")
    z = mask_of(golden_nda.states, "z")
    machine = moore_determinize(golden_nda, [xy])
    a = golden_nda.alphabet.index("a")
    b = golden_nda.alphabet.index("b")
    assert machine.subset_states[machine.trans[machine.pos(xy)][a]] == z
    assert machine.subset_states[machine.trans[machine.pos(xy)][b]] == z
    assert machine.subset_states[machine.trans[machine.pos(z)][a]] == 0
    assert machine.subset_states[machine.trans[machine.pos(z)][b]] == 0
    assert machine.out[machine.pos(z)] is True
    assert machine.out[machine.pos(xy)] is False


def test_moore_determinize_empty_subset_absorbs(golden_nda):
    machine = moore_determinize(golden_nda, [0])
    assert machine.subset_states == (0,)
    assert machine.trans == ((0, 0),)
    assert machine.out == (False,)


def test_moore_determinize_singleton_accepting():
    nda = Nda(Carrier(("x",)), Carrier(("a",)), ((0,),), 0b1)
    machine = moore_determinize(nda, [0b1])
    assert machine.out[machine.pos(0b1)] is True
    assert machine.subset_states[machine.trans[machine.pos(0b1)][0]] == 0


def test_moore_determinize_closed_under_trans():
    rng = Lcg(21)
    for _ in range(20):
        nda = random_nda(rng, max_states=5)
        machine = moore_determinize(nda, [1, 1 << (len(nda.states) - 1)])
        count = len(machine.subset_states)
        assert all(0 <= t < count for row in machine.trans for t in row)


def test_determinized_acceptance_matches_naive_language_search():
    rng = Lcg(99)
    for _ in range(15):
        nda = random_nda(rng, max_states=4)
        n, m = len(nda.states), len(nda.alphabet)
        start = rng.randint(0, (1 << n) - 1)
        machine = moore_determinize(nda, [start])
        words = [()] + [(a,) for a in range(m)] + [
            (a, b) for a in range(m) for b in range(m)] + [
            (a, b, c) for a in range(m) for b in range(m) for c in range(m)]
        for w in words:
            i = machine.pos(start)
            for a in w:
                i = machine.trans[i][a]
            got = machine.out[i]
            want = any(naive_accepts(nda, x, w)
                       for x in range(n) if start >> x & 1)
            assert got == want


def test_moore_determinize_rejects_bad_mask(golden_nda):
    with pytest.raises(ValueError):
        moore_determinize(golden_nda, [1 << 3])


# ------------------------------------------------------------------- lwa

def two_state_lwa():
    return Lwa(
        Carrier(("x", "y")), Carrier(("a",)),
        (Fraction(0), Fraction(3)),
        (((Fraction(0), Fraction(2)), (Fraction(0), Fraction(0))),),
    )


def test_lwa_step_zero_vector():
    lwa = two_state_lwa()
    assert lwa.post((0, 0), 0) == (Fraction(0), Fraction(0))


def test_lwa_step_single_entry_matrix():
    lwa = two_state_lwa()
    assert lwa.post((1, 0), 0) == (Fraction(0), Fraction(2))


def test_lwa_step_linearity():
    rng = Lcg(4)
    from behaveq.rng import random_lwa
    for _ in range(15):
        lwa = random_lwa(rng, max_states=4)
        n = len(lwa.states)
        p = random_vector(rng, n)
        q = random_vector(rng, n)
        c = rng.choice([Fraction(2), Fraction(-1), Fraction(1, 2)])
        for a in range(len(lwa.alphabet)):
            lhs = lwa.post(tuple(x + y for x, y in zip(p, q)), a)
            rhs = tuple(x + y for x, y in zip(lwa.post(p, a),
                                              lwa.post(q, a)))
            assert lhs == rhs
            assert lwa.post(tuple(c * x for x in p), a) == tuple(
                c * x for x in lwa.post(p, a))


def test_lwa_output_examples():
    lwa = Lwa(Carrier(("x", "y")), Carrier(("a",)),
              (Fraction(1), Fraction(4)),
              (((Fraction(0),) * 2, (Fraction(0),) * 2),))
    assert lwa.observe((0, 0)) == 0
    assert lwa.observe((1, 0)) == 1
    assert lwa.observe((2, 1)) == 6


def test_lwa_post_and_observe_refuse_bad_input():
    lwa = two_state_lwa()
    with pytest.raises(ValueError, match="unknown action index 1"):
        lwa.post((1, 0), 1)
    with pytest.raises(DimensionMismatch, match="does not match state count"):
        lwa.post((1, 0, 0), 0)
    with pytest.raises(DimensionMismatch, match="does not match state count"):
        lwa.observe((1,))


# ----------------------------------------------------------------- moore

def test_moore_determinize_constant_one_outputs():
    states = Carrier(("u", "v"))
    lts = lattice_lts(states, Carrier(("a",)),
                      ((0b10,), (0b00,)), Semilattice.boolean(), (1, 1))
    machine = moore_determinize(lts, range(4))
    for i, mask in enumerate(machine.subset_states):
        assert machine.out[i] == (1 if mask else 0)
        assert lts.show(machine.out[i]) == ("1" if mask else "0")


def test_moore_determinize_singleton_and_join():
    lat = Semilattice.create(("bot", "s1", "s2", "s12"),
                             ((0, 1, 2, 3), (1, 1, 3, 3),
                              (2, 3, 2, 3), (3, 3, 3, 3)), 0)
    states = Carrier(("x1", "x2"))
    lts = lattice_lts(states, Carrier(("a",)), ((0,), (0,)), lat, (1, 2))
    machine = moore_determinize(lts, [0b01, 0b11])
    assert lts.show(machine.out[machine.pos(0b01)]) == "s1"
    assert lts.show(machine.out[machine.pos(0b11)]) == "s12"
    assert lts.show(machine.out[machine.pos(0b00)]) == "bot"
    assert machine.out[machine.pos(0b11)] == lts.output[0] | lts.output[1]
    assert machine.subset_states[machine.trans[machine.pos(0b01)][0]] == 0


# ------------------------------------------------- subset post and observe

# The definitions that the per-chunk union tables replace, kept as the
# reference: a subset steps to, and is observed as, the union over its
# members.

def reference_post(system, mask: int, a: int) -> int:
    out = 0
    for x in bits(mask):
        out |= system.delta[x][a]
    return out


def reference_observe(system, mask: int):
    if isinstance(system, Nda):
        return bool(mask & system.accepting)
    out = 0
    for x in bits(mask):
        out |= system.output[x]
    return out


_FOUR = Semilattice.create(("bot", "s1", "s2", "s12"),
                           ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)), 0)


def subset_systems(rng: Lcg, n: int):
    """A seeded automaton on n states, its reversal, the Moore systems of
    its transitions under each semantics, and a lattice-output system."""
    states = Carrier(tuple(f"q{i}" for i in range(n)))
    alphabet = Carrier(("a", "b", "c"))
    delta = tuple(tuple(rng.randint(0, (1 << n) - 1) for _ in alphabet)
                  for _ in range(n))
    nda = Nda(states, alphabet, delta, rng.randint(0, (1 << n) - 1))
    return [nda, nda.reverse(),
            *(build_output_lts(states, alphabet, delta, semantics)
              for semantics in ("trace", "failure", "ready")),
            lattice_lts(states, alphabet, delta, _FOUR,
                        [rng.randint(0, 3) for _ in range(n)])]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 25])
def test_subset_post_and_observe_are_the_unions_over_members(n):
    rng = Lcg(1800 + n)
    masks = (range(1 << n) if n <= 9
             else [rng.randint(0, (1 << n) - 1) for _ in range(500)])
    for system in subset_systems(rng, n):
        for mask in masks:
            assert system.observe(mask) == reference_observe(system, mask)
            for a in range(len(system.alphabet)):
                assert system.post(mask, a) == reference_post(system, mask, a)


@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_subset_post_and_observe_refuse_a_mask_past_the_carrier(n):
    nda, _, lts, *_ = subset_systems(Lcg(1900 + n), n)
    for mask in (1 << n, (1 << n) | 1, 1 << (n + 8), 1 << (n + 40), -1):
        message = f"subset mask {mask} out of range for {n} states"
        for step in (lambda m: nda.post(m, 0), lambda m: lts.post(m, 2),
                     nda.observe, lts.observe):
            with pytest.raises(ValueError, match=message):
                step(mask)


@pytest.mark.parametrize("n", [2, 9])
def test_subset_post_refuses_an_action_outside_the_alphabet(n):
    nda, reverse, lts, *_ = subset_systems(Lcg(2000 + n), n)
    for system in (nda, reverse, lts):
        for a in (len(system.alphabet), -1):
            with pytest.raises(ValueError, match=f"unknown action index {a}$"):
                system.post(1, a)


# ---------------------------------------------------------- construction
# Each family refuses a malformed shape when it is built, so no engine
# ever meets one.  One malformed instance per invariant and family, with
# the exact message.

_X, _XY = Carrier(("x",)), Carrier(("x", "y"))
_A, _AB = Carrier(("a",)), Carrier(("a", "b"))
_K, _UV = Carrier(("k",)), Carrier(("u", "v"))
_0, _1 = Fraction(0), Fraction(1)
_ZERO2 = ((_0, _0), (_0, _0))


def _lts(delta, output, states=_X):
    return OutputLts(states, _A, delta, output, str)


MALFORMED = [
    pytest.param(lambda: Nda(_XY, _A, ((0,),), 0),
                 "delta is not a 2x1 table", id="nda-too-few-rows"),
    pytest.param(lambda: Nda(_XY, _A, ((0,), (0, 0)), 0),
                 "delta is not a 2x1 table", id="nda-row-too-long"),
    pytest.param(lambda: Nda(_X, _A, ((0b10,),), 0),
                 "successors of x leave the carrier", id="nda-successor-outside"),
    pytest.param(lambda: Nda(_XY, _AB, ((0, 0), (0, -1)), 0),
                 "successors of y leave the carrier", id="nda-negative-successor"),
    pytest.param(lambda: Nda(_X, _A, ((0,),), 0b10),
                 "accepting mask has bits outside the state carrier",
                 id="nda-accepting-outside"),
    pytest.param(lambda: Nda(_X, _A, ((0,),), -1),
                 "accepting mask has bits outside the state carrier",
                 id="nda-negative-accepting"),
    pytest.param(lambda: _lts(((0, 0),), (0,)),
                 "delta is not a 1x1 table", id="lts-row-too-long"),
    pytest.param(lambda: _lts(((0b11,),), (0,)),
                 "successors of x leave the carrier", id="lts-successor-outside"),
    pytest.param(lambda: _lts(((0,), (0,)), (0,), states=_XY),
                 "output table length does not match state count",
                 id="lts-output-too-short"),
    pytest.param(lambda: Lwa(_XY, _A, (_0,), (_ZERO2,)),
                 "output vector has length 1, expected 2", id="lwa-output-length"),
    pytest.param(lambda: Lwa(_XY, _A, (_0, _0), (_ZERO2, _ZERO2)),
                 "2 matrices for 1 actions", id="lwa-matrix-count"),
    pytest.param(lambda: Lwa(_XY, _AB, (_0, _0), (_ZERO2, ((_0, _0),))),
                 "matrix for b is not 2x2", id="lwa-too-few-rows"),
    pytest.param(lambda: Lwa(_XY, _A, (_0, _0), (((_0, _0), (_0,)),)),
                 "matrix for a is not 2x2", id="lwa-row-too-short"),
    pytest.param(lambda: Lwa(_X, _A, (0.5,), (((_0,),),)),
                 "non-rational weight 0.5", id="lwa-float-output"),
    pytest.param(lambda: Lwa(_X, _A, (_1,), (((True,),),)),
                 "non-rational weight True", id="lwa-bool-entry"),
    pytest.param(lambda: Lwa(_X, _A, (_1,), ((("1",),),)),
                 "non-rational weight '1'", id="lwa-string-entry"),
    pytest.param(lambda: Cts(_K, _UV, ((0, 0), (0, 0))),
                 "delta is not a 1x2 table", id="cts-too-many-rows"),
    pytest.param(lambda: Cts(_K, _UV, ((0,),)),
                 "delta is not a 1x2 table", id="cts-row-too-short"),
    # a successor mask past the states once reached every cts engine,
    # which then disagreed on it
    pytest.param(lambda: Cts(_K, _UV, ((0b100, 0b01),)),
                 "successors of u under k leave the carrier",
                 id="cts-successor-outside"),
    pytest.param(lambda: Cts(Carrier(("k", "k2")), _UV, ((0, 0), (0, -2))),
                 "successors of v under k2 leave the carrier",
                 id="cts-negative-successor"),
]


@pytest.mark.parametrize("build, message", MALFORMED)
def test_construction_refuses_a_malformed_shape(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_lwa_accepts_int_weights_as_rationals():
    lwa = Lwa(_XY, _A, (0, 3), (((0, 2), (_0, -1)),))
    assert lwa.post((1, 1), 0) == (_0, Fraction(1))
    assert lwa.observe((Fraction(1, 3), 1)) == 3
    with pytest.raises(ValueError, match=r"^non-rational weight 2\.0$"):
        Lwa(_XY, _A, (0, 3), (((0, 2.0), (_0, -1)),))


def test_bad_semilattice_is_diagnosed_and_refused_as_outputs():
    # the lattice is checked where it is turned into output sets
    bad = Semilattice(("u", "v"), ((1, 1), (1, 1)), 0)
    assert any("idempotent" in p and "u" in p for p in bad.diagnostics())
    with pytest.raises(ValueError, match="idempotent at u"):
        lattice_lts(Carrier(("x",)), Carrier(("a",)), ((0,),), bad, (0,))
    for index in (2, -1):
        with pytest.raises(ValueError, match="output of x is not a lattice element"):
            lattice_lts(Carrier(("x",)), Carrier(("a",)), ((0,),),
                        Semilattice.boolean(), (index,))
