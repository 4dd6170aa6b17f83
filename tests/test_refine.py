"""The signature-refinement engines against the references they
replaced.

`reference_refine` is the refinement that re-keys every element in
every round; the dirty-set `refine` must return the same blocks, in the
same numbering, after the same rounds.  The gfp references are the
Kleene iterations from the full relation that `machine_equiv` and
`cts_conditional_bisim` used to run through `gfp` (`gfp_cts_bisim` is
in conftest, the one conditional reference of the suite).  Refinement
must return the same relation and the same `iterations` (rounds
including the confirming one) on every input.
"""

from behaveq import (
    BitRel,
    Carrier,
    Cts,
    Nda,
    build_output_lts,
    cts_conditional_bisim,
    gfp,
    moore_equiv,
    moore_pair_oracle,
    refine,
)
from behaveq.core import bits, block_classes
from behaveq.equivalence import machine_equiv
from behaveq.rng import Lcg, random_cts, random_lts, random_nda
from behaveq.systems import moore_determinize

from conftest import cts_relation, gfp_cts_bisim, relation_classes


def reference_refine(size, signature):
    """Coarsest stable partition, re-keying every element in every round
    by (its block, signature(element, blocks)) and numbering the new
    blocks by first occurrence; the first round that splits no block is
    counted.  Returns (block ids, rounds)."""
    blocks = [0] * size
    count = min(size, 1)
    rounds = 0
    while True:
        rounds += 1
        keys = {}
        nxt = [keys.setdefault((blocks[i], signature(i, blocks)), len(keys))
               for i in range(size)]
        if len(keys) == count:
            return tuple(blocks), rounds
        blocks, count = nxt, len(keys)


def machine_signature(machine):
    out, trans = machine.out, machine.trans
    return lambda i, blocks: (out[i], tuple(blocks[t] for t in trans[i]))


def slice_successors(row):
    return [list(bits(mask)) for mask in row]


def slice_signature(succ):
    return lambda x, blocks: frozenset(blocks[y] for y in succ[x])


def kth_from_end(k):
    """Words whose k-th letter from the end is a: k + 1 states, and 2^k
    subsets reachable from s0, none language-equivalent to another."""
    n = k + 1
    delta = [(0b11, 0b01)] + [(1 << i + 1,) * 2 for i in range(1, k)] + [(0, 0)]
    return Nda(Carrier(tuple(f"s{i}" for i in range(n))), Carrier(("a", "b")),
               tuple(delta), 1 << k)


def sparse_cts(rng, n, conditions=2):
    """Each state has zero to two successors under each condition."""
    return Cts(Carrier(tuple(f"k{i}" for i in range(conditions))),
               Carrier(tuple(f"q{i}" for i in range(n))),
               tuple(tuple(sum({1 << rng.randint(0, n - 1)
                                for _ in range(rng.randint(0, 2))})
                           for _ in range(n))
                     for _ in range(conditions)))


def chain(n):
    """One condition: the path q0 -> q1 -> ... -> q(n-1)."""
    return Cts(Carrier(("k",)), Carrier(tuple(f"q{i}" for i in range(n))),
               ((*(1 << x + 1 for x in range(n - 1)), 0),))


def counting(signature):
    """`signature` and a one-element list that counts its calls."""
    calls = [0]

    def counted(i, blocks):
        calls[0] += 1
        return signature(i, blocks)
    return counted, calls


def gfp_machine_equiv(machine):
    """gfp of: outputs agree and every action successor pair stays related."""
    size = len(machine.subset_states)
    num_actions = len(machine.alphabet)

    def step(rel: BitRel) -> BitRel:
        rows = []
        for i in range(size):
            row = 0
            for j in range(size):
                if machine.out[i] != machine.out[j]:
                    continue
                if all(rel.has(machine.trans[i][a], machine.trans[j][a])
                       for a in range(num_actions)):
                    row |= 1 << j
            rows.append(row)
        return BitRel(size, tuple(rows))

    return gfp(step, BitRel.full(size))


def assert_matches_gfp(equiv, machine):
    want = gfp_machine_equiv(machine)
    assert equiv.machine == machine
    assert BitRel.from_blocks(equiv.blocks) == want.relation
    assert equiv.iterations == want.iterations


def test_nda_refinement_matches_gfp():
    rng = Lcg(1001)
    for _ in range(40):
        nda = random_nda(rng, max_states=6)
        n = len(nda.states)
        assert_matches_gfp(moore_equiv(nda),
                           moore_determinize(nda, range(1 << n)))


def test_moore_refinement_matches_gfp_under_each_semantics():
    rng = Lcg(6006)
    for _ in range(15):
        states, alphabet, delta = random_lts(rng, max_states=6)
        n = len(states)
        for semantics in ("trace", "failure", "ready"):
            lts = build_output_lts(states, alphabet, delta, semantics)
            assert_matches_gfp(moore_equiv(lts),
                               moore_determinize(lts, range(1 << n)))


def test_cts_refinement_matches_gfp():
    for seed in (3003, 4004, 5005):
        rng = Lcg(seed)
        for _ in range(20):
            cts = random_cts(rng, max_conditions=3, max_states=6)
            got, want = cts_conditional_bisim(cts), gfp_cts_bisim(cts)
            assert cts_relation(got) == want.relation
            assert got.iterations == want.iterations
            n = len(cts.states)
            for k in range(len(cts.conditions)):
                assert got.classes(k) == tuple(
                    tuple(p - k * n for p in cls)
                    for cls in relation_classes(want.relation) if cls[0] // n == k)


def test_cts_without_conditions_takes_one_round():
    cts = Cts(Carrier(()), Carrier(("u", "v")), ())
    got, want = cts_conditional_bisim(cts), gfp_cts_bisim(cts)
    assert cts_relation(got) == want.relation == BitRel.empty(0)
    assert got.iterations == want.iterations == 1


def test_machine_classes_read_from_blocks_match_relation_classes():
    rng = Lcg(1001)
    for _ in range(20):
        nda = random_nda(rng, max_states=8)
        eq = moore_equiv(nda)
        labelled = tuple(tuple(eq.machine.label(i) for i in cls)
                         for cls in relation_classes(BitRel.from_blocks(eq.blocks)))
        assert eq.classes() == labelled
    rng = Lcg(6006)
    for _ in range(10):
        states, alphabet, delta = random_lts(rng, max_states=8)
        for semantics in ("trace", "failure", "ready"):
            eq = moore_equiv(build_output_lts(states, alphabet, delta, semantics))
            labelled = tuple(tuple(eq.machine.label(i) for i in cls) for cls
                             in relation_classes(BitRel.from_blocks(eq.blocks)))
            assert eq.classes() == labelled


def test_full_powerset_at_ten_states_agrees_with_pair_oracle():
    rng = Lcg(1010)
    dense = random_nda(rng, max_states=10)
    while len(dense.states) != 10:
        dense = random_nda(rng, max_states=10)
    # random_nda draws each edge with probability 1/2, which leaves a
    # handful of large classes; one or two successors per action leave
    # hundreds of classes of every size
    rng = Lcg(1011)
    sparse = Nda(dense.states, Carrier(("a", "b")), tuple(
        tuple(sum({1 << rng.randint(0, 9) for _ in range(rng.randint(0, 2))})
              for a in range(2))
        for _ in range(10)),
        sum(1 << x for x in range(10) if rng.randint(0, 3) == 0))
    for nda in (dense, sparse):
        eq = moore_equiv(nda)
        assert len(eq.machine.subset_states) == 1024
        classes = block_classes(eq.blocks)
        assert 1 < len(classes) < 1024
        members = {i: cls for cls in classes for i in cls}
        for _ in range(100):
            i = rng.randint(0, 1023)
            # one partner from the same class, one from anywhere
            for j in (rng.choice(members[i]), rng.randint(0, 1023)):
                u, v = eq.machine.subset_states[i], eq.machine.subset_states[j]
                assert eq.related(u, v) == moore_pair_oracle(nda, u, v).equivalent


# ---------------------------------------------------------- dirty refine

def assert_refine_matches_reference(machine):
    equiv = machine_equiv(machine)
    want = reference_refine(len(machine.subset_states), machine_signature(machine))
    assert (equiv.blocks, equiv.iterations) == want
    assert refine(len(machine.subset_states), machine_signature(machine),
                  machine.trans) == want


def test_refine_matches_reference_on_full_powersets():
    rng = Lcg(7001)
    for _ in range(60):
        nda = random_nda(rng, max_states=7)
        assert_refine_matches_reference(
            moore_determinize(nda, range(1 << len(nda.states))))
    rng = Lcg(7002)
    for _ in range(20):
        states, alphabet, delta = random_lts(rng, max_states=7, max_actions=3)
        for semantics in ("trace", "failure", "ready"):
            lts = build_output_lts(states, alphabet, delta, semantics)
            assert_refine_matches_reference(
                moore_determinize(lts, range(1 << len(states))))


def test_refine_matches_reference_on_kth_from_end():
    for k in range(1, 11):
        nda = kth_from_end(k)
        for initials in ([1], range(1 << k + 1)):
            assert_refine_matches_reference(moore_determinize(nda, initials))


def test_refine_matches_reference_on_cts_slices_and_chains():
    rng = Lcg(7003)
    systems = [sparse_cts(rng, rng.randint(1, 30)) for _ in range(60)]
    systems += [random_cts(rng, max_states=8) for _ in range(20)]
    systems += [chain(200), chain(1)]
    for cts in systems:
        got = cts_conditional_bisim(cts)
        want_rounds = 1
        for k, row in enumerate(cts.delta):
            succ = slice_successors(row)
            want, rounds = reference_refine(len(cts.states), slice_signature(succ))
            assert got.blocks[k] == want
            assert refine(len(cts.states), slice_signature(succ), succ) == (want, rounds)
            want_rounds = max(want_rounds, rounds)
        assert got.iterations == want_rounds


def test_refine_matches_reference_when_rekeyed_members_keep_their_signature():
    # the number of distinct successor blocks can stay the same when a
    # successor changes block, so a re-keyed member may stay with the
    # members that were not re-keyed
    rng = Lcg(7004)
    for _ in range(300):
        n = rng.randint(1, 40)
        succ = [[rng.randint(0, n - 1) for _ in range(rng.randint(0, 3))]
                for _ in range(n)]
        marks = [rng.randint(0, 2) for _ in range(n)]

        def signature(i, blocks):
            return marks[i], len({blocks[j] for j in succ[i]})
        assert refine(n, signature, succ) == reference_refine(n, signature)


def test_refine_on_a_chain_keys_each_split_once():
    # the plain iteration keys all n states in each of the n rounds
    n = 1000
    succ = slice_successors(chain(n).delta[0])
    signature, calls = counting(slice_signature(succ))
    blocks, rounds = refine(n, signature, succ)
    assert blocks == tuple(range(n)) and rounds == n
    assert calls[0] <= 2 * n


def test_refine_on_kth_from_end_keys_no_more_than_every_round():
    # every round splits every block: at most rounds x N keyings, which
    # is what re-keying every element costs
    machine = moore_determinize(kth_from_end(10), [1])
    size = len(machine.subset_states)
    signature, calls = counting(machine_signature(machine))
    blocks, rounds = refine(size, signature, machine.trans)
    assert (blocks, rounds) == (tuple(range(size)), 11)
    assert calls[0] <= rounds * size
