import itertools
import time
from collections import deque
from dataclasses import replace
from fractions import Fraction

import pytest

from behaveq import (
    BitRel,
    Carrier,
    Cts,
    DimensionMismatch,
    Lwa,
    Nda,
    Semilattice,
    build_output_lts,
    cts_conditional_bisim,
    eval_word,
    lwa_classes,
    lwa_observation_basis,
    lwa_pair,
    lwa_unobservable_subspace,
    lattice_lts,
    moore_equiv,
    moore_pair_oracle,
    ready_output,
    refusal_output,
    theory_word,
)
from behaveq.core import (bits, block_classes, echelonize, nullspace,
                          orthogonal_tests, preimage_subspace)
from behaveq.equivalence import OracleVerdict, lwa_observability_chain
from behaveq.liftings import STOP, Step, _fx_index, _lwa_lift_rel_subspace
from behaveq.rng import (
    WEIGHT_GRID,
    Lcg,
    random_cts,
    random_lts,
    random_lwa,
    random_nda,
    random_vector,
)

from conftest import cts_relation, gfp_cts_bisim, mask_of, relation_classes


# ------------------------------------------------------------------- nda

def test_golden_language_classes(golden_nda):
    eq = moore_equiv(golden_nda)
    xy = mask_of(golden_nda.states, "x", "y")
    y = mask_of(golden_nda.states, "y")
    xyz = mask_of(golden_nda.states, "x", "y", "z")
    yz = mask_of(golden_nda.states, "y", "z")
    nontrivial = {(u, v)
                  for i, j in BitRel.from_blocks(eq.blocks).pairs()
                  for u in [eq.machine.subset_states[i]]
                  for v in [eq.machine.subset_states[j]]
                  if u != v}
    assert nontrivial == {(xy, y), (y, xy), (xyz, yz), (yz, xyz)}
    assert eq.related(xy, y)
    assert not eq.related(0, y)


def test_no_accepting_states_everything_equivalent():
    nda = Nda(Carrier(("u", "v")), Carrier(("a",)), ((0b10,), (0,)), 0)
    eq = moore_equiv(nda)
    assert eq.blocks == (0,) * 4


def disjoint_double(nda: Nda) -> Nda:
    n = len(nda.states)
    names = nda.states.names + tuple(f"{s}'" for s in nda.states.names)
    delta = list(nda.delta) + [
        tuple(mask << n for mask in row) for row in nda.delta]
    accepting = nda.accepting | (nda.accepting << n)
    return Nda(Carrier(names), nda.alphabet, tuple(delta), accepting)


def test_disjoint_copies_singletons_equivalent(golden_nda):
    double = disjoint_double(golden_nda)
    n = len(golden_nda.states)
    eq = moore_equiv(double)
    for x in range(n):
        assert eq.related(1 << x, 1 << (x + n))
        assert moore_pair_oracle(double, 1 << x, 1 << (x + n)).equivalent


def test_homomorphism_invariance_under_folding(golden_nda):
    # folding the doubled automaton onto the original is a coalgebra
    # homomorphism; equivalence must be the pullback of the original's
    double = disjoint_double(golden_nda)
    n = len(golden_nda.states)
    eq2 = moore_equiv(double)
    eq1 = moore_equiv(golden_nda)

    def fold(mask: int) -> int:
        return (mask & ((1 << n) - 1)) | (mask >> n)

    for u in range(1 << (2 * n)):
        for v in range(1 << (2 * n)):
            assert eq2.related(u, v) == eq1.related(fold(u), fold(v))


def test_moore_pair_oracle_cases(golden_nda):
    x = mask_of(golden_nda.states, "x")
    y = mask_of(golden_nda.states, "y")
    xy = mask_of(golden_nda.states, "x", "y")
    assert moore_pair_oracle(golden_nda, x, x).equivalent
    verdict = moore_pair_oracle(golden_nda, x, y)
    assert not verdict.equivalent
    assert verdict.witness == (golden_nda.alphabet.index("b"),)
    assert moore_pair_oracle(golden_nda, xy, y).equivalent


def test_moore_pair_oracle_refuses_configurations_that_are_not_masks():
    # equivalent weight vectors with an infinite orbit under (2 0; 0 2):
    # a search over them would never run out of new pairs
    lwa = Lwa(Carrier(("x", "y")), Carrier(("a",)), (1, 1), (((2, 0), (0, 2)),))
    with pytest.raises(ValueError, match="^the word search reads subset masks, "
                                         "not Lwa configurations$"):
        moore_pair_oracle(lwa, (1, 0), (0, 1))
    # masks pass the search's check and are refused by the automaton
    with pytest.raises(DimensionMismatch, match="^configuration 1 is not a vector$"):
        moore_pair_oracle(lwa, 1, 2)
    cts = random_cts(Lcg(3010))
    with pytest.raises(ValueError, match="^Cts reads no words$"):
        moore_pair_oracle(cts, 1, 2)


def test_nda_gfp_agrees_with_oracle_on_random_instances():
    rng = Lcg(1001)
    for _ in range(40):
        nda = random_nda(rng, max_states=5)
        n = len(nda.states)
        initials = sorted({0, (1 << n) - 1,
                           *(1 << x for x in range(n)),
                           rng.randint(0, (1 << n) - 1)})
        eq = moore_equiv(nda, initials)
        for u in initials:
            for v in initials:
                assert eq.related(u, v) == moore_pair_oracle(nda, u, v).equivalent


def test_computed_equivalence_is_postfixpoint(golden_nda):
    eq = moore_equiv(golden_nda)
    machine = eq.machine
    rel = BitRel.from_blocks(eq.blocks)
    for i, j in rel.pairs():
        assert machine.out[i] == machine.out[j]
        for a in range(len(machine.alphabet)):
            assert rel.has(machine.trans[i][a], machine.trans[j][a])


# ------------------------------------------------------------------- lwa

def test_unobservable_subspace_zero_observation():
    lwa = Lwa(Carrier(("x", "y")), Carrier(("a",)),
              (Fraction(0), Fraction(0)),
              (((Fraction(0),) * 2, (Fraction(0),) * 2),))
    w = lwa_unobservable_subspace(lwa)
    assert w.rank == 2


def test_unobservable_subspace_kernel_only():
    lwa = Lwa(Carrier(("x", "y")), Carrier(("a",)),
              (Fraction(1), Fraction(1)),
              (((Fraction(0),) * 2, (Fraction(0),) * 2),))
    w = lwa_unobservable_subspace(lwa)
    assert w.basis == ((Fraction(1), Fraction(-1)),)


def test_unobservable_subspace_shrinks_to_zero():
    lwa = Lwa(Carrier(("x", "y")), Carrier(("a",)),
              (Fraction(0), Fraction(1)),
              (((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),))
    w = lwa_unobservable_subspace(lwa)
    assert w.rank == 0
    assert not lwa_pair(lwa, (1, 0), (0, 1)).equivalent
    assert not lwa_pair(lwa, (1, 0), (0, 0)).equivalent


def test_eval_word_lwa_cases():
    lwa = Lwa(Carrier(("x", "y")), Carrier(("a",)),
              (Fraction(0), Fraction(3)),
              (((Fraction(0), Fraction(2)), (Fraction(0), Fraction(0))),))
    assert eval_word(lwa, (1, 0), ()) == 0
    assert eval_word(lwa, (0, 1), ()) == 3
    assert eval_word(lwa, (1, 0), (0,)) == 6
    assert eval_word(lwa, (0, 0), (0, 0)) == 0
    with pytest.raises(ValueError):
        eval_word(lwa, (1, 0), (4,))


def test_lwa_equiv_reflexive_and_matches_subspace():
    lwa = Lwa(Carrier(("x", "y")), Carrier(("a",)),
              (Fraction(1), Fraction(1)),
              (((Fraction(0),) * 2, (Fraction(0),) * 2),))
    assert lwa_pair(lwa, (1, 0), (1, 0)).equivalent
    assert lwa_pair(lwa, (1, 0), (0, 1)).equivalent
    assert not lwa_pair(lwa, (1, 0), (2, 0)).equivalent


def test_lwa_equiv_agrees_with_word_oracle():
    rng = Lcg(2002)
    for _ in range(40):
        lwa = random_lwa(rng, max_states=4)
        n, m = len(lwa.states), len(lwa.alphabet)
        chain = lwa_observability_chain(lwa)
        assert len(chain) - 1 <= n
        words = [()]
        for length in range(1, n + 1):
            words.extend(itertools.product(range(m), repeat=length))
        probes = [tuple(Fraction(int(i == x)) for i in range(n))
                  for x in range(n)]
        probes.append(random_vector(rng, n))
        probes.append(random_vector(rng, n))
        for p in probes:
            for q in probes:
                by_subspace = lwa_pair(lwa, p, q).equivalent
                by_words = all(eval_word(lwa, p, w) == eval_word(lwa, q, w)
                               for w in words)
                assert by_subspace == by_words


def direct_sum(one: Lwa, two: Lwa) -> Lwa:
    """The two automata side by side over one alphabet, `two`'s states
    after `one`'s."""
    k, m = len(one.states), len(two.states)
    return Lwa(Carrier(tuple(f"q{i}" for i in range(k + m))), one.alphabet,
               one.out + two.out,
               tuple(tuple(row + (Fraction(0),) * m for row in a)
                     + tuple((Fraction(0),) * k + row for row in b)
                     for a, b in zip(one.mat, two.mat)))


def unit(n: int, x: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(i == x)) for i in range(n))


def test_lwa_classes_match_subspace_membership():
    # each random automaton next to a copy of itself, so that every
    # state has at least one equivalent partner
    rng = Lcg(2002)
    for _ in range(40):
        one = random_lwa(rng, max_states=3)
        k = len(one.states)
        lwa = direct_sum(one, one)
        n = 2 * k
        space = lwa_unobservable_subspace(lwa)
        classes = lwa_classes(lwa)
        assert sorted(x for cls in classes for x in cls) == list(range(n))
        assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
        block = {x: cls for cls in classes for x in cls}
        for x in range(n):
            assert block[x] is block[(x + k) % n]
            for y in range(n):
                diff = [int(i == x) - int(i == y) for i in range(n)]
                assert (block[x] is block[y]) == space.contains(diff)


# ------------------------------------- Krylov engine against the chain

def classes_by_orthogonal_tests(lwa: Lwa) -> tuple[tuple[int, ...], ...]:
    """The chain's grouping of states: by their column of values under
    the orthogonal tests of the unobservable subspace."""
    tests = orthogonal_tests(lwa_unobservable_subspace(lwa))
    keys: dict[tuple, int] = {}
    return block_classes([
        keys.setdefault(tuple(z[x] for z in tests), len(keys))
        for x in range(len(lwa.states))])


def random_block(rng: Lcg, n: int) -> Lwa:
    """A random two-action automaton with exactly n states, drawn like
    `random_lwa` from its weight grid."""
    def weights():
        return tuple(rng.choice(WEIGHT_GRID) for _ in range(n))
    return Lwa(Carrier(tuple(f"q{i}" for i in range(n))), Carrier(("a", "b")),
               weights(), tuple(tuple(weights() for _ in range(n))
                                for _ in range(2)))


def lwa_pair_oracle(lwa, p, q):
    """The weighted reference: the first word, in length-then-action
    order, whose weights from p and q differ, by a breadth-first search
    over configuration pairs that skips a pair reached before.

    Words of |states| letters suffice: level i of the observability
    chain holds the differences that every word of at most i letters
    weighs 0, and the chain stops after at most |states| strict steps.
    """
    p, q = tuple(map(Fraction, p)), tuple(map(Fraction, q))
    if lwa.observe(p) != lwa.observe(q):
        return OracleVerdict(False, ())
    queue, seen = deque([(p, q, ())]), {(p, q)}
    while queue:
        x, y, word = queue.popleft()
        if len(word) == len(lwa.states):
            continue
        for a in range(len(lwa.alphabet)):
            pair = lwa.post(x, a), lwa.post(y, a)
            if pair not in seen:
                seen.add(pair)
                if lwa.observe(pair[0]) != lwa.observe(pair[1]):
                    return OracleVerdict(False, word + (a,))
                queue.append((*pair, word + (a,)))
    return OracleVerdict(True, None)


def test_lwa_pair_matches_word_search_oracle_and_subspace():
    rng = Lcg(2003)
    refuted = equivalent = 0
    for _ in range(40):
        lwa = random_lwa(rng, max_states=5)
        n = len(lwa.states)
        space = lwa_unobservable_subspace(lwa)
        probes = [unit(n, x) for x in range(n)]
        probes += [random_vector(rng, n), random_vector(rng, n)]
        if space.basis:
            probes.append(tuple(a + b for a, b in zip(probes[0], space.basis[0])))
        for p in probes:
            for q in probes:
                verdict = lwa_pair(lwa, p, q)
                assert verdict == lwa_pair_oracle(lwa, p, q)
                member = space.contains(tuple(a - b for a, b in zip(p, q)))
                assert verdict.equivalent == member
                refuted += not member
                equivalent += member and p != q
    assert refuted and equivalent


def test_lwa_backward_basis_sizes_match_chain_ranks():
    rng = Lcg(2004)
    for _ in range(100):
        lwa = random_lwa(rng, max_states=5)
        n = len(lwa.states)
        lengths = [len(w) for w, _ in lwa_observation_basis(lwa)]
        chain = lwa_observability_chain(lwa)
        for i, level in enumerate(chain):
            assert sum(length <= i for length in lengths) == n - level.rank
        assert len(lengths) == n - chain[-1].rank


def test_lwa_chain_is_the_kleene_iteration_of_the_lifting():
    # level i is both the (i+1)-th Kleene iterate, from the full space, of
    # W -> preimage(step matrix, lifting of W), and the vectors that every
    # M_w . out with |w| <= i annihilates
    rng = Lcg(2007)
    levels = 0
    for _ in range(200):
        lwa = random_lwa(rng, max_states=4, max_actions=2)
        n, m = len(lwa.states), len(lwa.alphabet)
        index, dim = _fx_index(n, m)
        step = [[Fraction(0)] * dim for _ in range(n)]
        for x in range(n):
            step[x][index(STOP)] = lwa.out[x]
            for a in range(m):
                for y in range(n):
                    step[x][index(Step(a, y))] = lwa.mat[a][x][y]

        def lifted_step(space):
            return preimage_subspace(step, _lwa_lift_rel_subspace(space, n, m))

        chain = lwa_observability_chain(lwa)
        iterate = echelonize([[int(i == j) for j in range(n)] for i in range(n)])
        observations = [lwa.out]
        for i, level in enumerate(chain):
            iterate = lifted_step(iterate)
            assert level == iterate, (i, lwa)
            assert level == nullspace(observations, n), (i, lwa)
            observations += [tuple(sum(row[y] * u[y] for y in range(n))
                                   for row in mat)
                             for u in observations for mat in lwa.mat]
            levels += 1
        assert lifted_step(chain[-1]) == chain[-1]
    assert levels > 400


def test_lwa_classes_match_orthogonal_test_grouping():
    rng = Lcg(2005)
    for _ in range(40):
        one = random_lwa(rng, max_states=4)
        other = replace(one, out=one.out[::-1])
        for lwa in (one, direct_sum(one, one), direct_sum(one, other)):
            assert lwa_classes(lwa) == classes_by_orthogonal_tests(lwa)


def test_lwa_copy_pairs_at_32_states():
    half = 16
    one = random_block(Lcg(2006), half)
    lwa = direct_sum(one, one)
    n = 2 * half
    for x in range(half):
        assert lwa_pair(lwa, unit(n, x), unit(n, x + half)) == OracleVerdict(True, None)
    block = {x: cls for cls in lwa_classes(lwa) for x in cls}
    assert all(block[x] is block[x + half] for x in range(half))


def test_lwa_witness_at_64_states_with_one_output_changed():
    rng = Lcg(2007)
    half = 32
    one = random_block(rng, half)
    y = rng.randint(0, half - 1)
    out = list(one.out)
    out[y] += 3
    lwa = direct_sum(one, replace(one, out=tuple(out)))
    x = rng.randint(0, half - 1)
    p, q = unit(2 * half, x), unit(2 * half, x + half)
    verdict = lwa_pair(lwa, p, q)
    assert not verdict.equivalent
    assert verdict == lwa_pair_oracle(lwa, p, q)


# ------------------------------------------------------------------- cts

def test_cts_single_condition_slice_is_strong_bisimilarity():
    rng = Lcg(3003)
    for _ in range(25):
        cts = random_cts(rng, max_conditions=1, max_states=5)
        res = cts_conditional_bisim(cts)
        assert cts_relation(res) == gfp_cts_bisim(cts).relation


def test_cts_condition_sensitive_example():
    # u has a k-successor, v does not; both childless under k2
    cts = Cts(Carrier(("k", "k2")), Carrier(("u", "v")),
              ((0b10, 0b00), (0b00, 0b00)))
    res = cts_conditional_bisim(cts)
    # positions k:u, k:v, k2:u, k2:v
    ku, kv, k2u, k2v = range(4)
    rel = cts_relation(res)
    assert rel.has(k2u, k2v)
    assert not rel.has(ku, kv)
    # identity pairs always present, no pair across conditions
    assert rel == BitRel.from_pairs(
        4, [(ku, ku), (kv, kv), (k2u, k2u), (k2u, k2v), (k2v, k2u), (k2v, k2v)])


def test_cts_slices_match_oracle_on_random_instances():
    rng = Lcg(4004)
    for _ in range(30):
        cts = random_cts(rng, max_conditions=3, max_states=6)
        res = cts_conditional_bisim(cts)
        assert cts_relation(res) == gfp_cts_bisim(cts).relation


def test_cts_slice_oracle_shapes():
    # the engine and the reference on two one-condition slices
    discrete = Cts(Carrier(("k",)), Carrier(("u", "v", "w")),
                   ((0, 0, 0),))
    chain = Cts(Carrier(("k",)), Carrier(("u", "v")), ((0b10, 0b00),))
    for cts, want in ((discrete, ((0, 1, 2),)), (chain, ((0,), (1,)))):
        assert cts_conditional_bisim(cts).classes(0) == want
        assert relation_classes(gfp_cts_bisim(cts).relation) == want


def test_cts_bisim_is_postfixpoint():
    rng = Lcg(5005)
    from behaveq import cts_rel_lift
    for _ in range(10):
        cts = random_cts(rng, max_conditions=2, max_states=4)
        rel = cts_relation(cts_conditional_bisim(cts))
        n = len(cts.states)
        for i, j in rel.pairs():
            k = i // n
            assert cts_rel_lift(rel, [cts.delta[k][i % n] << k * n],
                                [cts.delta[k][j % n] << k * n]) == (1,)


# ----------------------------------------------------------------- moore

def test_moore_trace_equivalence_is_trace_set_equality(trace_failure_lts):
    m = trace_failure_lts
    p0 = mask_of(m.states, "p0")
    q0 = mask_of(m.states, "q0")
    eq = moore_equiv(m, [p0, q0])
    assert eq.related(p0, q0)


def test_moore_failure_and_ready_separate_textbook_pair(trace_failure_lts):
    m = trace_failure_lts
    p0 = mask_of(m.states, "p0")
    q0 = mask_of(m.states, "q0")
    for semantics in ("failure", "ready"):
        lts = build_output_lts(m.states, m.alphabet, m.delta, semantics)
        eq = moore_equiv(lts, [p0, q0])
        assert not eq.related(p0, q0)
        verdict = moore_pair_oracle(lts, p0, q0)
        assert not verdict.equivalent
        assert verdict.witness == (m.alphabet.index("a"),)


def test_moore_trace_equivalence_matches_naive_trace_sets():
    # whole-word enumeration with prefix pruning, deep enough to be
    # complete for these sizes
    rng = Lcg(6006)

    def traces(lts, start, depth):
        out = {()}
        frontier = {(): start}
        for _ in range(depth):
            nxt = {}
            for word, mask in frontier.items():
                for a in range(len(lts.alphabet)):
                    t = lts.post(mask, a)
                    if t:
                        w2 = word + (a,)
                        out.add(w2)
                        nxt[w2] = t
            frontier = nxt
        return out

    from behaveq.rng import random_lts
    for _ in range(15):
        states, alphabet, delta = random_lts(rng, max_states=4)
        lts = build_output_lts(states, alphabet, delta, "trace")
        n = len(states)
        eq = moore_equiv(lts, [1 << x for x in range(n)])
        depth = 1 << n
        sets = [traces(lts, 1 << x, depth) for x in range(n)]
        for x in range(n):
            for y in range(n):
                assert eq.related(1 << x, 1 << y) == (sets[x] == sets[y])


def test_moore_equiv_empty_subset_gets_bottom(trace_failure_lts):
    m = trace_failure_lts
    from behaveq.systems import moore_determinize
    machine = moore_determinize(m, [0])
    # the empty union: the empty set, which the trace lattice names 0
    assert machine.out[machine.pos(0)] == 0
    assert m.show(0) == "0"


# ------------------------------------------------------ refusal and ready

def _family(*action_sets):
    """The output mask of a set of action sets: bit Z for each set Z."""
    return sum(1 << sum(1 << a for a in z) for z in action_sets)


def test_refusal_output_cases():
    # one state with both actions enabled, one with only a, one dead
    delta = ((0b1, 0b1), (0b1, 0b0), (0b0, 0b0))
    assert refusal_output(delta, 2, 0) == _family(())
    assert refusal_output(delta, 2, 1) == _family((), (1,))
    assert refusal_output(delta, 2, 2) == _family((), (0,), (1,), (0, 1))


def test_ready_output_cases():
    delta = ((0b0, 0b0), (0b1, 0b0))
    assert ready_output(delta, 0) == _family(())
    assert ready_output(delta, 1) == _family((0,))
    # union of two ready outputs keeps both ready sets
    joined = ready_output(delta, 0) | ready_output(delta, 1)
    assert joined == _family((), (0,))


def _distinct_enabled_lts(n, num_actions):
    """n states, state x enabling exactly the actions of mask x, each
    enabled action leading to two states."""
    states = Carrier(tuple(f"s{x}" for x in range(n)))
    alphabet = Carrier(tuple("abcd"[:num_actions]))
    delta = tuple(
        tuple((1 << (x + a + 1) % n | 1 << (3 * x + a) % n) if x >> a & 1 else 0
              for a in range(num_actions))
        for x in range(n))
    return states, alphabet, delta


class _SetOutputs:
    """The Moore system of `lts` observing frozensets of action
    frozensets joined by union, computed straight from its transitions."""

    def __init__(self, lts, semantics):
        self.states, self.alphabet, self.post = lts.states, lts.alphabet, lts.post
        self.post_all = lts.post_all
        actions = range(len(lts.alphabet))
        self.outputs = []
        for row in lts.delta:
            enabled = frozenset(a for a in actions if row[a])
            if semantics == "ready":
                self.outputs.append(frozenset({enabled}))
            else:
                refusable = [a for a in actions if a not in enabled]
                self.outputs.append(frozenset(
                    frozenset(z) for r in range(len(refusable) + 1)
                    for z in itertools.combinations(refusable, r)))

    def observe(self, mask):
        return frozenset().union(*(self.outputs[x] for x in bits(mask)))

    def observe_all(self):
        return [self.observe(mask) for mask in range(1 << len(self.states))]


@pytest.mark.parametrize("semantics", ["ready", "failure"])
def test_moore_output_masks_agree_with_sets_of_action_sets(semantics):
    states, alphabet, delta = _distinct_enabled_lts(8, 3)
    lts = build_output_lts(states, alphabet, delta, semantics)
    ref = _SetOutputs(lts, semantics)
    for mask in range(1 << 8):
        shown = sorted(ref.observe(mask), key=lambda z: (len(z), sorted(z)))
        assert lts.show(lts.observe(mask)) == "{" + ",".join(
            "{" + ",".join(alphabet.names[a] for a in sorted(z)) + "}"
            for z in shown) + "}"
    got, want = moore_equiv(lts), moore_equiv(ref)
    assert got.classes() == want.classes()
    assert got.iterations == want.iterations
    rng = Lcg(3007)
    for _ in range(200):
        u, v = rng.randint(0, 255), rng.randint(0, 255)
        assert moore_pair_oracle(lts, u, v) == moore_pair_oracle(ref, u, v)


@pytest.mark.parametrize("semantics", ["ready", "failure"])
def test_moore_equiv_on_the_full_powerset_at_the_cap(semantics):
    states, alphabet, delta = _distinct_enabled_lts(12, 4)
    lts = build_output_lts(states, alphabet, delta, semantics)
    started = time.perf_counter()
    eq = moore_equiv(lts)
    elapsed = time.perf_counter() - started
    assert len(eq.machine.subset_states) == 1 << 12
    # distinct enabled sets are told apart by the empty word
    for x in range(12):
        for y in range(x):
            assert not eq.related(1 << x, 1 << y)
    rng = Lcg(3008)
    for _ in range(100):
        u, v = rng.randint(0, 4095), rng.randint(0, 4095)
        assert eq.related(u, v) == moore_pair_oracle(lts, u, v).equivalent
    assert elapsed < 5.0, elapsed


# ------------------------------------------------------ shared word search

def first_lwa_difference(lwa, p, q):
    """The exhaustive |A|^<=n loop the CLI used for lwa witnesses: the
    first word in length-then-action order whose weights differ."""
    for length in range(len(lwa.states) + 1):
        for w in itertools.product(range(len(lwa.alphabet)), repeat=length):
            if eval_word(lwa, p, w) != eval_word(lwa, q, w):
                return w
    return None


def test_lwa_pair_oracle_matches_exhaustive_word_loop():
    rng = Lcg(3003)
    refuted = equivalent = 0
    for _ in range(20):
        lwa = random_lwa(rng, max_states=5)
        n = len(lwa.states)
        units = [tuple(Fraction(int(i == x)) for i in range(n))
                 for x in range(n)]
        probes = units + [random_vector(rng, n), random_vector(rng, n)]
        # a second configuration equivalent to the first, when one exists
        space = lwa_unobservable_subspace(lwa)
        if space.basis:
            probes.append(tuple(a + b for a, b in zip(probes[0], space.basis[0])))
        for i, p in enumerate(probes):
            for q in probes[i:]:
                verdict = lwa_pair_oracle(lwa, p, q)
                want = first_lwa_difference(lwa, p, q)
                assert verdict.witness == want
                assert verdict.equivalent == (want is None)
                assert lwa_pair(lwa, p, q).equivalent == (want is None)
                refuted += want is not None and len(want) > 0
                equivalent += want is None and p != q
    assert refuted and equivalent


def first_table_difference(system, u, v, depth):
    left, right = theory_word(system, u, depth), theory_word(system, v, depth)
    return next((w for w in left if left[w] != right[w]), None)


def assert_oracle_is_first_table_difference(system, oracle, engine, masks):
    for u in masks:
        for v in masks:
            verdict = oracle(system, u, v)
            assert verdict.equivalent == engine.related(u, v)
            depth = len(verdict.witness) if verdict.witness is not None else 5
            assert first_table_difference(system, u, v, depth) == verdict.witness


def test_moore_pair_oracle_on_automata_is_first_theory_table_difference():
    rng = Lcg(3004)
    for _ in range(25):
        nda = random_nda(rng, max_states=4, max_actions=3)
        masks = range(1 << len(nda.states))
        assert_oracle_is_first_table_difference(
            nda, moore_pair_oracle, moore_equiv(nda), masks)


def test_moore_pair_oracle_is_first_theory_table_difference():
    rng = Lcg(3005)
    for _ in range(10):
        states, alphabet, delta = random_lts(rng, max_states=3)
        for semantics in ("trace", "failure", "ready"):
            lts = build_output_lts(states, alphabet, delta, semantics)
            masks = range(1 << len(states))
            assert_oracle_is_first_table_difference(
                lts, moore_pair_oracle, moore_equiv(lts), masks)


def test_automaton_agrees_with_its_moore_form():
    # an automaton is the Moore system over the two-element semilattice
    # whose outputs are its acceptance bits: same classes, rounds,
    # verdicts and witnesses
    rng = Lcg(3006)
    for _ in range(120):
        nda = random_nda(rng, max_states=4, max_actions=3)
        n = len(nda.states)
        lts = lattice_lts(nda.states, nda.alphabet, nda.delta, Semilattice.boolean(),
                          tuple(nda.accepting >> x & 1 for x in range(n)))
        automaton, moore = moore_equiv(nda), moore_equiv(lts)
        assert automaton.classes() == moore.classes()
        assert automaton.iterations == moore.iterations
        for u in range(1 << n):
            for v in range(1 << n):
                assert automaton.related(u, v) == moore.related(u, v)
                assert moore_pair_oracle(nda, u, v) == moore_pair_oracle(lts, u, v)
