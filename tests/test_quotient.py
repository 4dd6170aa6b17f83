import dataclasses

import pytest

from behaveq import (
    CapExceeded,
    Carrier,
    ClosureViolation,
    Nda,
    build_output_lts,
    build_respecting_automaton,
    moore_determinize,
    moore_equiv,
    redundant_members,
    respecting_family,
    respecting_subsets,
    subset_label,
    verify_witness_homomorphism,
)
from behaveq import quotient
from behaveq.quotient import union_closure
from behaveq.rng import Lcg, random_nda

from conftest import DATA, mask_of


# ------------------------------------------------------------- backward
# Backward determinization is the subset construction of the reversed
# automaton.

def _backward_step(nda, mask, a):
    """The states with an a-step into `mask`, straight from delta."""
    return sum(1 << x for x, row in enumerate(nda.delta) if row[a] & mask)


def test_backward_determinize_golden_example(golden_nda):
    bdfa = moore_determinize(golden_nda.reverse(), range(8))
    z = mask_of(golden_nda.states, "z")
    xy = mask_of(golden_nda.states, "x", "y")
    y = mask_of(golden_nda.states, "y")
    a = golden_nda.alphabet.index("a")
    b = golden_nda.alphabet.index("b")

    def step(mask, action):
        return bdfa.subset_states[bdfa.trans[bdfa.pos(mask)][action]]

    assert bdfa.subset_states == tuple(range(8))
    assert step(z, a) == xy
    assert step(z, b) == y
    assert step(0, a) == 0 and step(0, b) == 0
    assert golden_nda.reverse().accepting == z


def test_backward_determinize_no_transitions():
    nda = Nda(Carrier(("u", "v")), Carrier(("a",)), ((0,), (0,)), 0b01)
    bdfa = moore_determinize(nda.reverse(), range(4))
    assert all(bdfa.subset_states[row[0]] == 0 for row in bdfa.trans)
    assert nda.reverse().accepting == 0b01


def test_reverse_steps_into_the_mask_and_is_an_involution():
    # an automaton and its Moore systems under every semantics reverse
    # alike: each edge turns round and the outputs stay
    rng = Lcg(66)
    for _ in range(40):
        nda = random_nda(rng, max_states=5)
        moore = [build_output_lts(nda.states, nda.alphabet, nda.delta, semantics)
                 for semantics in ("trace", "failure", "ready")]
        for system in [nda, *moore]:
            back = system.reverse()
            assert dataclasses.replace(back, delta=system.delta) == system
            assert getattr(back, "show", None) is getattr(system, "show", None)
            assert back.reverse() == system
            for mask in range(1 << len(nda.states)):
                for a in range(len(nda.alphabet)):
                    assert back.post(mask, a) == _backward_step(nda, mask, a)


def test_backward_reachable_union_closure_is_the_respecting_family(golden_nda):
    # U meets pre_w(F) exactly when U accepts w, so the union closure of
    # the sets reached backward from F is the family of subsets that
    # respect language equivalence
    rng = Lcg(4242)
    cases = [golden_nda] + [random_nda(rng, max_states=5) for _ in range(100)]
    for nda in cases:
        reached = moore_determinize(nda.reverse(), [nda.accepting]).subset_states
        brute = respecting_subsets(nda, moore_equiv(nda).blocks)
        assert set(union_closure(reached)) == set(brute)


def _pairwise_redundant(auto):
    """Members that are the union of the members strictly inside them,
    one pair of members at a time."""
    out = []
    for w in auto.carrier:
        union = 0
        for v in auto.carrier:
            if v != w and v & ~w == 0:
                union |= v
        if union == w:
            out.append(w)
    return tuple(out)


def test_generator_family_and_redundancy_match_the_brute_force(golden_nda,
                                                               monkeypatch):
    # what `quotient` runs, in both modes, against the all-masks search
    # and the pairwise scan, past the reference's own bound of 6 states
    monkeypatch.setattr(quotient, "REFERENCE_CAP", 8)
    rng = Lcg(2929)
    cases = [golden_nda] + [random_nda(rng, max_states=8) for _ in range(60)]
    assert max(len(nda.states) for nda in cases) == 8
    for nda in cases:
        size = 1 << len(nda.states)
        equiv = moore_equiv(nda)
        for identity, blocks in ((False, equiv.blocks), (True, range(size))):
            family = respecting_family(nda, identity)
            assert family == respecting_subsets(nda, blocks), nda
            auto = build_respecting_automaton(nda, family)
            assert redundant_members(auto) == _pairwise_redundant(auto), nda
        # one member per language: a subset's language is the set of
        # generators pre_w(F) it meets
        assert len(respecting_family(nda)) == len(set(equiv.blocks)), nda


def test_generator_family_at_the_cap_counts_the_language_classes():
    from behaveq.cli import load_file
    nda = load_file(str(DATA / "nda-cap12.json"))
    family = respecting_family(nda)
    assert len(family) == len(set(moore_equiv(nda).blocks)) == 416
    assert respecting_family(nda, identity=True) == tuple(range(1 << 12))


def test_respecting_family_refuses_past_the_cap():
    st = Carrier(tuple(f"s{i}" for i in range(13)))
    nda = Nda(st, Carrier(("a",)), ((0,),) * 13, 1)
    for identity in (False, True):
        with pytest.raises(CapExceeded, match="13 states exceeds cap 12"):
            respecting_family(nda, identity)


def test_union_closure_is_ascending_and_holds_the_empty_union():
    assert union_closure([]) == (0,)
    assert union_closure([0b100, 0b001, 0b100]) == (0, 0b001, 0b100, 0b101)
    assert union_closure([1 << x for x in range(4)]) == tuple(range(16))


# ------------------------------------------------------------ respecting

def test_respecting_subsets_golden(golden_nda):
    eq = moore_equiv(golden_nda).blocks
    got = respecting_subsets(golden_nda, eq)
    want = {mask_of(golden_nda.states), mask_of(golden_nda.states, "x", "y"),
            mask_of(golden_nda.states, "y"), mask_of(golden_nda.states, "z"),
            mask_of(golden_nda.states, "y", "z"),
            mask_of(golden_nda.states, "x", "y", "z")}
    assert set(got) == want


def test_respecting_subsets_identity_eq_is_everything(golden_nda):
    assert respecting_subsets(golden_nda, range(8)) == tuple(range(8))


def test_respecting_subsets_full_relation_collapses():
    # the one-block equivalence puts the empty subset with everything,
    # so only the empty set survives; isolating the empty subset gives
    # the whole-carrier member back
    two = Nda(Carrier(("x", "y")), Carrier(("a",)), ((0,), (0,)), 0)
    assert respecting_subsets(two, [0] * 4) == (0,)
    assert respecting_subsets(two, [u == 0 for u in range(4)]) == (0, 0b11)


def test_respecting_subsets_requires_the_full_powerset(golden_nda):
    with pytest.raises(ValueError, match="full powerset"):
        respecting_subsets(golden_nda, range(7))


def test_respecting_family_union_closed_not_intersection_closed():
    # union-closure holds on every instance; intersection-closure fails
    # on this five-state automaton, where {s1,s3} and {s2,s3} respect
    # the language equivalence but their intersection {s3} does not
    st = Carrier(("s1", "s2", "s3", "s4", "t"))
    al = Carrier(("a", "b"))
    t = st.index("t")
    nda = Nda(st, al, (
        (1 << t, 0),
        (0, 1 << t),
        (1 << t, 1 << t),
        (0, 0),
        (0, 0),
    ), 1 << t)
    eq = moore_equiv(nda).blocks
    family = set(respecting_subsets(nda, eq))
    w1 = mask_of(st, "s1", "s3")
    w2 = mask_of(st, "s2", "s3")
    assert w1 in family and w2 in family
    assert (w1 & w2) not in family
    assert all((u | v) in family for u in family for v in family)


def test_respecting_family_union_closed_on_random_instances():
    rng = Lcg(77)
    for _ in range(25):
        nda = random_nda(rng, max_states=4)
        eq = moore_equiv(nda).blocks
        family = set(respecting_subsets(nda, eq))
        assert 0 in family
        assert all((u | v) in family for u in family for v in family)


def test_closure_violation_is_reported_not_truncated(golden_nda):
    # equivalences that are not bisimulations on the determinized system
    # make the respecting family escape; both escape routes are reported
    x = mask_of(golden_nda.states, "x")
    y = mask_of(golden_nda.states, "y")
    z = mask_of(golden_nda.states, "z")

    # merging {x} with {z} expels the designated accepting member {z}
    eq1 = [x if u == z else u for u in range(8)]
    assert set(respecting_subsets(golden_nda, eq1)) == {
        w for w in range(8) if bool(w & x) == bool(w & z)}
    with pytest.raises(ClosureViolation, match="accepting member"):
        build_respecting_automaton(golden_nda, respecting_subsets(golden_nda, eq1))

    # merging {x} with {y} keeps {z} but the backward b-step of {z}
    # lands on {y}, outside the family
    eq2 = [x if u == y else u for u in range(8)]
    assert set(respecting_subsets(golden_nda, eq2)) == {0, z, x | y, x | y | z}
    with pytest.raises(ClosureViolation, match="leaves the respecting family"):
        build_respecting_automaton(golden_nda, respecting_subsets(golden_nda, eq2))


# -------------------------------------------------------- the automaton

def test_build_respecting_automaton_golden_edges(golden_nda):
    auto = build_respecting_automaton(golden_nda, respecting_family(golden_nda))
    states = golden_nda.states
    a = golden_nda.alphabet.index("a")
    b = golden_nda.alphabet.index("b")
    empty = 0
    y = mask_of(states, "y")
    xy = mask_of(states, "x", "y")
    z = mask_of(states, "z")
    yz = mask_of(states, "y", "z")
    xyz = mask_of(states, "x", "y", "z")
    assert set(auto.carrier) == {empty, y, xy, z, yz, xyz}

    def backward(mask, action):
        return auto.carrier[auto.trans[auto.carrier.index(mask)][action]]

    # reading direction of the drawn edges: source --act--> target means
    # backward(target, act) == source
    assert backward(xy, a) == empty and backward(xy, b) == empty
    assert backward(y, a) == empty and backward(y, b) == empty
    assert backward(z, a) == xy and backward(z, b) == y
    assert backward(yz, a) == xy and backward(yz, b) == y
    assert backward(xyz, a) == xy and backward(xyz, b) == y
    assert backward(empty, a) == empty and backward(empty, b) == empty
    assert auto.accepting == z


def test_identity_eq_gives_full_backward_dfa(golden_nda):
    auto = build_respecting_automaton(golden_nda, respecting_family(golden_nda, True))
    assert auto.carrier == tuple(range(8))
    for i, mask in enumerate(auto.carrier):
        for a in range(2):
            assert auto.carrier[auto.trans[i][a]] == _backward_step(golden_nda, mask, a)


def test_respecting_table_is_the_subset_construction_of_the_reversal(golden_nda):
    rng = Lcg(61)
    for nda in [golden_nda, *(random_nda(rng, max_states=5) for _ in range(50))]:
        auto = build_respecting_automaton(nda, respecting_family(nda))
        machine = moore_determinize(nda.reverse(), auto.carrier)
        assert machine.subset_states == auto.carrier, nda
        assert auto.trans == machine.trans, nda


def test_witness_images_golden(golden_nda):
    auto = build_respecting_automaton(golden_nda, respecting_family(golden_nda))
    states = golden_nda.states
    want = {mask_of(states, "x", "y"), mask_of(states, "y"),
            mask_of(states, "y", "z"), mask_of(states, "x", "y", "z")}
    assert set(auto.witness_image(mask_of(states, "x", "y"))) == want
    assert set(auto.witness_image(mask_of(states, "y"))) == want


def test_witness_respects_equivalence_on_random_instances():
    rng = Lcg(88)
    for _ in range(20):
        nda = random_nda(rng, max_states=4)
        eq = moore_equiv(nda)
        auto = build_respecting_automaton(nda, respecting_family(nda))
        size = 1 << len(nda.states)
        for u in range(size):
            for v in range(size):
                if eq.related(u, v):
                    assert auto.witness_image(u) == auto.witness_image(v)


def test_verify_homomorphism_true_on_golden_and_identity(golden_nda):
    auto = build_respecting_automaton(golden_nda, respecting_family(golden_nda))
    assert verify_witness_homomorphism(golden_nda, auto)
    full = build_respecting_automaton(golden_nda, respecting_family(golden_nda, True))
    assert verify_witness_homomorphism(golden_nda, full)


def test_verify_homomorphism_catches_redirected_edge(golden_nda):
    auto = build_respecting_automaton(golden_nda, respecting_family(golden_nda))
    z_pos = auto.carrier.index(mask_of(golden_nda.states, "z"))
    mutated_row = list(auto.trans[z_pos])
    mutated_row[0] = auto.carrier.index(0)  # redirect the a-edge of {z} to {}
    trans = list(auto.trans)
    trans[z_pos] = tuple(mutated_row)
    mutated = dataclasses.replace(auto, trans=tuple(trans))
    verdict = verify_witness_homomorphism(golden_nda, mutated)
    assert not verdict.ok
    assert verdict.witness


def test_verify_homomorphism_on_random_instances():
    rng = Lcg(99)
    for _ in range(20):
        nda = random_nda(rng, max_states=4)
        auto = build_respecting_automaton(nda, respecting_family(nda))
        assert verify_witness_homomorphism(nda, auto)


def test_redundant_members_golden(golden_nda):
    auto = build_respecting_automaton(golden_nda, respecting_family(golden_nda))
    got = {subset_label(golden_nda.states, w) for w in redundant_members(auto)}
    assert got == {"{}", "{y,z}", "{x,y,z}"}


def test_mutated_accepting_still_verifies(golden_nda):
    # dropping the accepting marker changes the equivalence and the
    # respecting family, but the pipeline stays internally consistent
    mutated = dataclasses.replace(golden_nda, accepting=0)
    auto = build_respecting_automaton(mutated, respecting_family(mutated))
    assert set(auto.carrier) == {0}
    assert verify_witness_homomorphism(mutated, auto)
