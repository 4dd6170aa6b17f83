"""The signature-refinement engines against the relation fixpoints
they replaced.

The references below are the Kleene iterations from the full relation
that `machine_equiv` and `cts_conditional_bisim` used to run through
`gfp`.  Refinement must return the same relation and the same
`iterations` (rounds including the confirming one) on every input.
"""

from behaveq import (
    BitRel,
    Carrier,
    Cts,
    Nda,
    build_output_lts,
    cts_conditional_bisim,
    cts_rel_lift,
    gfp,
    moore_equiv,
    nda_pair_oracle,
)
from behaveq.rng import Lcg, random_cts, random_lts, random_nda
from behaveq.systems import forward_determinize, moore_determinize


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


def gfp_cts_bisim(cts):
    """gfp on condition/state positions k*n + x, from the relation of all
    same-condition pairs: a pair stays when the successor sets under its
    condition simulate each other two-sidedly."""
    nk, n = len(cts.conditions), len(cts.states)

    def step(rel: BitRel) -> BitRel:
        keep = []
        for k in range(nk):
            for x in range(n):
                for y in range(n):
                    if cts_rel_lift(rel, cts.delta[k][x] << k * n,
                                    cts.delta[k][y] << k * n):
                        keep.append((k * n + x, k * n + y))
        return BitRel.from_pairs(nk * n, keep)

    return gfp(step, BitRel.from_blocks([p // n for p in range(nk * n)]))


def assert_matches_gfp(equiv, machine):
    want = gfp_machine_equiv(machine)
    assert equiv.machine == machine
    assert equiv.relation == want.relation
    assert equiv.iterations == want.iterations


def test_nda_refinement_matches_gfp():
    rng = Lcg(1001)
    for _ in range(40):
        nda = random_nda(rng, max_states=6)
        n = len(nda.states)
        assert_matches_gfp(moore_equiv(nda),
                           forward_determinize(nda, range(1 << n)))


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
            assert got.relation == want.relation
            assert got.iterations == want.iterations
            n = len(cts.states)
            for k in range(len(cts.conditions)):
                assert got.classes(k) == tuple(
                    tuple(p - k * n for p in cls)
                    for cls in got.relation.classes() if cls[0] // n == k)


def test_cts_without_conditions_takes_one_round():
    cts = Cts(Carrier(()), Carrier(("u", "v")), ())
    got, want = cts_conditional_bisim(cts), gfp_cts_bisim(cts)
    assert got.relation == want.relation == BitRel.empty(0)
    assert got.iterations == want.iterations == 1


def test_machine_classes_read_from_blocks_match_relation_classes():
    rng = Lcg(1001)
    for _ in range(20):
        nda = random_nda(rng, max_states=8)
        eq = moore_equiv(nda)
        labelled = tuple(tuple(eq.machine.label(i) for i in cls)
                         for cls in eq.relation.classes())
        assert eq.classes() == labelled
    rng = Lcg(6006)
    for _ in range(10):
        states, alphabet, delta = random_lts(rng, max_states=8)
        for semantics in ("trace", "failure", "ready"):
            eq = moore_equiv(build_output_lts(states, alphabet, delta, semantics))
            labelled = tuple(tuple(eq.machine.label(i) for i in cls)
                             for cls in eq.relation.classes())
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
        classes = eq.relation.classes()
        assert 1 < len(classes) < 1024
        members = {i: cls for cls in classes for i in cls}
        for _ in range(100):
            i = rng.randint(0, 1023)
            # one partner from the same class, one from anywhere
            for j in (rng.choice(members[i]), rng.randint(0, 1023)):
                u, v = eq.machine.subset_states[i], eq.machine.subset_states[j]
                assert eq.related(u, v) == nda_pair_oracle(nda, u, v).equivalent
