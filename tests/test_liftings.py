import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from behaveq import (
    BitRel,
    Carrier,
    Cts,
    Lwa,
    STOP,
    Step,
    check_lifting_laws,
    cts_box,
    cts_dist_law,
    cts_rel_lift,
    echelonize,
    lwa_det_step,
    lwa_dist_law,
    lwa_modality,
    moore_determinize,
    nda_det_step,
    nda_dist_law,
    nda_modality,
)
from behaveq import liftings, rng
from behaveq.core import Subspace, bits
from behaveq.liftings import CORRUPTIONS
from behaveq.rng import Lcg, random_cts

from conftest import mask_of


# -------------------------------------------------------- one-step maps

def test_nda_dist_law_cases():
    assert nda_dist_law(Step(0, frozenset())) == frozenset()
    assert nda_dist_law(STOP) == frozenset({STOP})
    got = nda_dist_law(Step(0, frozenset({1, 2})))
    assert got == frozenset({Step(0, 1), Step(0, 2)})


def test_nda_det_step_cases():
    empty = nda_det_step(frozenset(), 2)
    assert empty.succ == (frozenset(), frozenset()) and not empty.accept
    stop_only = nda_det_step({STOP}, 2)
    assert stop_only.accept and stop_only.succ == (frozenset(), frozenset())
    mixed = nda_det_step({Step(0, 1), Step(1, 1), STOP}, 2)
    assert mixed.succ == (frozenset({1}), frozenset({1})) and mixed.accept


def test_lwa_det_step_cases():
    zero = lwa_det_step({}, 2, 1)
    assert zero.weight == 0 and zero.slices == ((Fraction(0), Fraction(0)),)
    stop3 = lwa_det_step({STOP: Fraction(3)}, 2, 1)
    assert stop3.weight == 3 and stop3.slices == ((Fraction(0), Fraction(0)),)
    half = lwa_det_step({Step(0, 1): Fraction(1, 2)}, 2, 2)
    assert half.weight == 0
    assert half.slices[0] == (Fraction(0), Fraction(1, 2))
    assert half.slices[1] == (Fraction(0), Fraction(0))


def test_cts_dist_law_cases():
    assert cts_dist_law(0, frozenset()) == frozenset()
    assert cts_dist_law(1, frozenset({2})) == frozenset({(1, 2)})
    full = cts_dist_law(0, frozenset({0, 1, 2}))
    assert len(full) == 3 and all(k == 0 for k, _ in full)


# ------------------------------------------------------------ modalities

def test_nda_modality_accept_is_z_membership(golden_nda):
    machine = moore_determinize(golden_nda, range(8))
    z = golden_nda.states.index("z")
    got = nda_modality(machine, "accept")
    for i, mask in enumerate(machine.subset_states):
        assert bool(got >> i & 1) == bool(mask >> z & 1)


def test_nda_modality_vacuous_region(golden_nda):
    machine = moore_determinize(golden_nda, range(8))
    everything = (1 << len(machine.subset_states)) - 1
    a = golden_nda.alphabet.index("a")
    assert nda_modality(machine, a, everything) == everything


def test_nda_modality_after_a_terminates(golden_nda):
    machine = moore_determinize(golden_nda, range(8))
    a = golden_nda.alphabet.index("a")
    accepting = nda_modality(machine, "accept")
    box_a = nda_modality(machine, a, accepting)
    xy = machine.pos(mask_of(golden_nda.states, "x", "y"))
    assert box_a >> xy & 1
    with pytest.raises(ValueError):
        nda_modality(machine, 5, accepting)


def test_cts_box_cases():
    # u -k-> v, v childless, single condition
    cts = Cts(Carrier(("k",)), Carrier(("u", "v")), ((0b10, 0b00),))
    full = 0b11
    assert cts_box(cts, full) == full
    # empty region selects exactly the childless states
    assert cts_box(cts, 0) == 0b10
    # region = {(k,v)}: u qualifies (its successor is v), v qualifies (childless)
    assert cts_box(cts, 0b10) == 0b11


def test_cts_box_monotone_and_meet_preserving():
    rng = Lcg(8)
    for _ in range(20):
        cts = random_cts(rng, max_conditions=3, max_states=4)
        total = len(cts.conditions) * len(cts.states)
        u = rng.randint(0, (1 << total) - 1)
        v = rng.randint(0, (1 << total) - 1)
        assert cts_box(cts, u & v) == cts_box(cts, u) & cts_box(cts, v)
        if u & ~v == 0:
            assert cts_box(cts, u) & ~cts_box(cts, v) == 0


def test_lwa_modality_cases():
    lwa = Lwa(Carrier(("x", "y")), Carrier(("a",)),
              (Fraction(0), Fraction(3)),
              (((Fraction(0), Fraction(2)), (Fraction(0), Fraction(0))),))
    assert lwa_modality(lwa, Fraction(0), (0, 0))
    assert lwa_modality(lwa, Fraction(3), (0, 1))
    # stepping x under a gives weight 6
    assert lwa_modality(lwa, 0, (1, 0),
                        lambda v: v == (Fraction(0), Fraction(2)))
    assert lwa_modality(lwa, 0, (1, 0), lambda v: lwa.observe(v) == 6)


# ------------------------------------------------------ relation liftings

def test_cts_rel_lift_cases():
    rel = BitRel.from_pairs(2, [(0, 1)])
    assert cts_rel_lift(rel, [0], [0]) == (1,)
    assert cts_rel_lift(rel, [0b01], [0]) == (0,)
    assert cts_rel_lift(rel, [0b01], [0b10]) == (1,)
    assert cts_rel_lift(rel, [0b10], [0b01]) == (0,)


def test_cts_rel_lift_single_condition_is_classic_lifting():
    # with one condition the lifting is the standard two-sided
    # simulation condition on plain successor sets
    rng = Lcg(17)
    for _ in range(30):
        n = rng.randint(1, 4)
        rel = BitRel.from_pairs(
            n, [(x, y) for x in range(n) for y in range(n) if rng.bit()])
        u = rng.randint(0, (1 << n) - 1)
        v = rng.randint(0, (1 << n) - 1)
        classic = (
            all(any(rel.has(x, y) for y in range(n) if v >> y & 1)
                for x in range(n) if u >> x & 1)
            and all(any(rel.has(x, y) for x in range(n) if u >> x & 1)
                    for y in range(n) if v >> y & 1))
        assert cts_rel_lift(rel, [u], [v]) == ((1,) if classic else (0,))


# The pairwise liftings that the row forms replaced, kept as references:
# one verdict per pair of tables or masks.

def reference_nda_lift_rel(rel_pairs, t1, t2) -> bool:
    if t1.accept != t2.accept:
        return False
    return rel_pairs.issuperset(zip(t1.succ, t2.succ))


def reference_nda_lift_ignores_stop(rel_pairs, t1, t2) -> bool:
    return rel_pairs.issuperset(zip(t1.succ, t2.succ))


def reference_nda_lift_any_action(rel_pairs, t1, t2) -> bool:
    if t1.accept != t2.accept:
        return False
    return not rel_pairs.isdisjoint(zip(t1.succ, t2.succ))


def reference_cts_rel_lift(rel, u, v) -> bool:
    image = 0
    for x in bits(u):
        row = rel.rows[x] & v
        if not row:
            return False
        image |= row
    return image == v


def reference_cts_lift_one_sided(rel, u, v) -> bool:
    return all(rel.rows[x] & v for x in bits(u))


def reference_rows(pairwise, rel, left, right) -> tuple[int, ...]:
    return tuple(sum(1 << j for j, b in enumerate(right) if pairwise(rel, a, b))
                 for a in left)


def _sample(rng, items, count):
    return [rng.choice(items) for _ in range(count)]


def test_nda_row_liftings_are_the_pairwise_definitions():
    row_forms = ((liftings._nda_lift_rel, reference_nda_lift_rel),
                 (liftings._nda_lift_ignores_stop, reference_nda_lift_ignores_stop),
                 (liftings._nda_lift_any_action, reference_nda_lift_any_action))
    rng = Lcg(20)
    for m in (1, 2):
        for _ in range(40):
            nx = rng.randint(1, 3)
            steps = [STOP] + [Step(a, x) for a in range(m) for x in range(nx)]
            tables = [nda_det_step(u, m) for u in liftings._powerset(steps)]
            targets = liftings._powerset(range(nx))
            rel = frozenset((u, v) for u in targets for v in targets if rng.bit())
            # lists of different lengths, with repeats, and empty ones
            for left, right in ((_sample(rng, tables, rng.randint(0, 9)),
                                 _sample(rng, tables, rng.randint(0, 9))),
                                (tables, tables), ([], tables), (tables, [])):
                for row_form, pairwise in row_forms:
                    assert row_form(rel, left, right) == reference_rows(
                        pairwise, rel, left, right), (m, row_form.__name__)


def test_cts_row_liftings_are_the_pairwise_definitions():
    row_forms = ((cts_rel_lift, reference_cts_rel_lift),
                 (liftings._cts_lift_one_sided, reference_cts_lift_one_sided))
    rng = Lcg(21)
    for _ in range(60):
        nk, n = rng.randint(1, 3), rng.randint(1, 4)
        size = nk * n
        rel = BitRel.from_pairs(size, [(i, j) for i in range(size)
                                       for j in range(size) if rng.bit()])
        # the masks of condition k are subsets of its slice, shifted by k*n
        slices = [[u << k * n for u in range(1 << n)] for k in range(nk)]
        cases = [(_sample(rng, masks, rng.randint(0, 6)),
                  _sample(rng, masks, rng.randint(0, 6))) for masks in slices]
        cases += [(slices[0], slices[-1]), ([], slices[0]), (slices[0], []),
                  ([rng.randint(0, (1 << size) - 1) for _ in range(4)],
                   [rng.randint(0, (1 << size) - 1) for _ in range(3)])]
        for left, right in cases:
            for row_form, pairwise in row_forms:
                assert row_form(rel, left, right) == reference_rows(
                    pairwise, rel, left, right), row_form.__name__


def test_cts_rel_lift_refuses_masks_past_the_carrier():
    rel = BitRel.full(2)
    for row_form in (cts_rel_lift, liftings._cts_lift_one_sided):
        for left, right, bad in (([0b1], [0b101], 5), ([0b100], [0b1], 4),
                                 ([0], [-4], -4), ([-1, 0b11], [0b10], -1),
                                 ([0b11], [0b01, 0b1000], 8)):
            with pytest.raises(ValueError,
                               match=f"^mask {bad} out of range for 2 positions$"):
                row_form(rel, left, right)
    # masks inside the carrier, the full one among them, are lifted
    assert cts_rel_lift(rel, [0b11, 0], [0b11, 0b01, 0]) == (0b011, 0b100)


# -------------------------------------------------------------- law suite

def test_law_suite_all_pass_small():
    for family in ("nda", "lwa", "cts"):
        report = check_lifting_laws(family, trials=25, seed=7)
        assert report.all_passed, [r.law for r in report.results if not r.passed]


def test_law_suite_rejects_bad_args():
    with pytest.raises(ValueError):
        check_lifting_laws("nda", trials=0)
    with pytest.raises(ValueError):
        check_lifting_laws("unknown")
    with pytest.raises(ValueError):
        check_lifting_laws("nda", corruption="nonsense")
    # another family's corruption name is unknown here
    for family, name in (("cts", "det-step"), ("lwa", "meet")):
        with pytest.raises(ValueError,
                           match=f"unknown corruption '{name}' for {family}"):
            check_lifting_laws(family, corruption=name)
    assert CORRUPTIONS == {
        "nda": {"dist-law": "kleisli-unit",
                "det-step": "gamma-theta-mu",
                "sigma": "pred-sigma-naturality",
                "lift": "equality-preservation",
                "meet": "intersection-preservation"},
        "lwa": {"dist-law": "kleisli-unit",
                "det-step": "gamma-theta-mu",
                "sigma": "pred-sigma-naturality",
                "lift": "equality-preservation"},
        "cts": {"dist-law": "cokleisli-counit",
                "sigma": "pred-sigma-naturality",
                "lift": "equality-preservation",
                "meet": "box-meet-preservation"},
    }


def test_law_suite_catches_each_corruption():
    for family, table in CORRUPTIONS.items():
        for corruption, law in table.items():
            report = check_lifting_laws(family, trials=25, seed=7,
                                        corruption=corruption)
            assert not report.result(law).passed, (family, corruption, law)
            assert report.result(law).failures


def test_law_report_serializes():
    report = check_lifting_laws("nda", trials=5, seed=1)
    data = report.to_json()
    assert data["family"] == "nda"
    assert data["all_passed"] is True
    assert {entry["law"] for entry in data["laws"]} == {
        r.law for r in report.results}


# SHA-256 of json.dumps(report.to_json(), sort_keys=True) at seed 3 and 10
# trials, for each family clean and with each named corruption.  The law
# suite may be made faster, but never change a report byte.
_GOLDEN_LAW_REPORTS = {
    ("nda", None): "d82e0344d9beb8c9f38edaecd3507353e8f2064f17abe640dfe5105a67c527a7",
    ("nda", "dist-law"): "955d59f9739eefcced14269f436f04a1e20be0e8c65577aa3604869c91feb6a4",
    ("nda", "det-step"): "ff83a72248a13764f2813621584f6983b02f754ca301faae1548e2869a15970f",
    ("nda", "sigma"): "9c17fd0e5d45de1adc6c6caddf2933bfcc682cb8c751e0a8be336d77893debb8",
    ("nda", "lift"): "25b8dc8b0009a2e5750cdb090e4d7d256389d0b7a4ec230cf818055d062b2ed1",
    ("nda", "meet"): "9150ab60855598ce4e23443aeb92088810cc1c18cb26c4c1c9756edf8e74c576",
    ("lwa", None): "f2c8c35b8c5b4be9fb5145c162d34a60a08bc365f8dae681686c3cda8d483117",
    ("lwa", "dist-law"): "2d3899793c8c2f39ee1003d31664740a31fa2cdaa0d02b4132169f8ef9fe4e58",
    ("lwa", "det-step"): "e2d6ab3dc271e11e1e167cc666f71a65d9777a0449655a54b99d1da4104477bd",
    ("lwa", "sigma"): "7e4dc4d8c141030eb2a908573e172b7ad8310bab9258e746b027e9db8d192184",
    ("lwa", "lift"): "93dd1e00526e51ac1c99bb6f1879dcdf176ae0538856baaeed86dfb3e78877c4",
    ("cts", None): "c512f3fe7543a3028331ce6f9baa808cef8190afca296590c02fdafb0ae7f710",
    ("cts", "dist-law"): "4d14be8b9d680c8d37ec9d015fbb93bb75664edc3be3e572b73b51715add1ad4",
    ("cts", "sigma"): "7619d3df520735fa74e9a6e401766eda684717c239b51f61a26e0ad9e70cc9c1",
    ("cts", "lift"): "b25c5b97506af2c87ad75c5d5055f312fb8d29e5528c8e155df8fa0de9bdc8e6",
    ("cts", "meet"): "2ea6b43a945a5f94cf98ba1c0942e48704645b0d1d4c5ff584045edaeb886162",
}


def test_law_reports_match_golden_digests():
    assert set(_GOLDEN_LAW_REPORTS) == {
        (family, name) for family, table in CORRUPTIONS.items()
        for name in [None, *table]}
    for (family, corruption), digest in _GOLDEN_LAW_REPORTS.items():
        report = check_lifting_laws(family, trials=10, seed=3,
                                    corruption=corruption)
        data = json.dumps(report.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == digest, (family, corruption)


# The same digests at seed 11 and 30 trials.  Every corruption fills at
# least one law (four failures) within its first ten trials, so most of
# each corrupted run skips that law: the skip must not change a byte.
_GOLDEN_FULL_LAW_REPORTS = {
    ("nda", None): "63a983c96ed6d327d019243cc20864e548ed5a4d08267d1acd09712789453d35",
    ("nda", "dist-law"): "d08c528df2fc44884d4a33737b7da10d272f385fd894736c1ec8f84aada2607f",
    ("nda", "det-step"): "8b6be6728f673f140b382f62eb9c1247f17ba6a7a202dcf1b2b44cbed1799ea3",
    ("nda", "sigma"): "d768257c0aad370281cb979b84488151d2f57f627cd36a61a8bc2dc38fc3a636",
    ("nda", "lift"): "deeec04aa672630f61dd281928cb1381bf344f8b8f0add64f5ea2d168b8c618d",
    ("nda", "meet"): "8786aaee91635916b563fd85d8a9aa770f976e8d8e13d3bfded5b7de2ffc61e6",
    ("lwa", None): "b21b30b0e9721b7b87dfbff754e760afcea617afd2585c758df35e1a39307cc8",
    ("lwa", "dist-law"): "c08ab321145c4448bccb7a724b396468b5b4a12e0598c617f58851219e5f68d8",
    ("lwa", "det-step"): "f786c9396522237de3e14869b537114ae436d56fd138c75aaa36bcf2910a7417",
    ("lwa", "sigma"): "c9996dd82633d0923ef800047c37d5167bc234fab096187c2eb63cb0c49d4c42",
    ("lwa", "lift"): "bebaa1b1ef7e7ffe81f725c451b94ef98d107fc9a378f31eb77ffb94a575f4a6",
    ("cts", None): "25750e9960819c9e05d2f9adc4f30c621963dc7ee6250340981c6dda01ceb2a6",
    ("cts", "dist-law"): "aa890fdf6ec6c2087dca1e269fd18c30114652d14a589fe71d12746da9693fc9",
    ("cts", "sigma"): "50265bed40d8f8c6f85e10acd355c4f8b6d0a6446111967d52af74f0c45757d3",
    ("cts", "lift"): "47ec8a2f03859fc63b2f7100fc22218b912845fc03454d1f5610da1a82b700e6",
    ("cts", "meet"): "932f8ca6cc7de0d759509732d8a5453c650e8d188e58cfeaab70282a837e8b72",
}


def _report_digest(report) -> str:
    data = json.dumps(report.to_json(), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def test_law_reports_with_full_laws_match_golden_digests():
    assert set(_GOLDEN_FULL_LAW_REPORTS) == set(_GOLDEN_LAW_REPORTS)
    for (family, corruption), digest in _GOLDEN_FULL_LAW_REPORTS.items():
        report = check_lifting_laws(family, trials=30, seed=11,
                                    corruption=corruption)
        assert _report_digest(report) == digest, (family, corruption)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_law_reports_match_golden_digests_for_any_worker_count(monkeypatch,
                                                               workers):
    monkeypatch.setattr(rng, "workers", lambda trials: workers)
    for golden, trials, seed in ((_GOLDEN_LAW_REPORTS, 10, 3),
                                 (_GOLDEN_FULL_LAW_REPORTS, 30, 11)):
        for (family, corruption), digest in golden.items():
            report = check_lifting_laws(family, trials=trials, seed=seed,
                                        corruption=corruption)
            assert _report_digest(report) == digest, (family, corruption)


@pytest.mark.parametrize("family", sorted(CORRUPTIONS))
def test_each_law_alone_reports_as_in_the_full_suite(monkeypatch, family):
    # a trial draws once and no law draws, so a law run alone sees the
    # same instances as in the full table: skipping the others, or a
    # full law, cannot change a byte of its result
    monkeypatch.setattr(rng, "workers", lambda trials: 1)
    draw, laws, kit, corruptions = liftings._FAMILIES[family]
    full = {corruption: check_lifting_laws(family, trials=10, seed=3,
                                           corruption=corruption)
            for corruption in [None, *corruptions]}
    for name, law, sizes in laws:
        monkeypatch.setitem(liftings._FAMILIES, family,
                            (draw, ((name, law, sizes),), kit, corruptions))
        for corruption, report in full.items():
            alone = check_lifting_laws(family, trials=10, seed=3,
                                       corruption=corruption)
            assert alone.results == (report.result(name),), (corruption, name)
    assert [r.law for r in full[None].results] == [name for name, _, _ in laws]


def _lift_to_equality(rel, left, right):
    # ignores the relation: not natural along a map that merges arguments
    return tuple(sum(1 << j for j, v in enumerate(right) if v == u) for u in left)


def _nda_dist_keeps_least(step):
    # one target per step: the unit square holds, the multiplication not
    if step.is_stop or not step.target:
        return nda_dist_law(step)
    return frozenset({Step(step.action, min(step.target))})


def _nda_pred_at_singletons(table, kind, region):
    if kind == "stop":
        return table.accept
    return len(table.succ[kind]) == 1 and table.succ[kind] in region


def _nda_modality_complement(machine, kind, region=0):
    full = (1 << len(machine.subset_states)) - 1
    return full & ~nda_modality(machine, kind, region)


def _lwa_dist_squares(step):
    # weights 1 stay 1, so the unit square holds; sums are not linear
    return {k: v * v for k, v in lwa_dist_law(step).items()}


def _lwa_det_odd_drops_stop(bag, num_states, num_actions):
    table = lwa_det_step(bag, num_states, num_actions)
    return table if num_states % 2 == 0 else replace(table, weight=Fraction(0))


def _lwa_lift_equality(space, num_states, num_actions):
    return liftings._lwa_lift_rel_subspace(echelonize([], num_states),
                                           num_states, num_actions)


# A broken map for each law that no named corruption trips: a kit entry,
# or the liftings function that the law reads directly.
_UNTRIPPED_LAWS = [
    ("nda", "kleisli-mult", "dist", _nda_dist_keeps_least),
    ("nda", "pred-lift-naturality", "_nda_lift_pred", _nda_pred_at_singletons),
    ("nda", "rel-lift-naturality", "lift_rel", _lift_to_equality),
    ("nda", "modality-recipe-agreement", "nda_modality", _nda_modality_complement),
    ("lwa", "kleisli-mult", "dist", _lwa_dist_squares),
    ("lwa", "pred-lift-naturality", "lwa_det_step", _lwa_det_odd_drops_stop),
    ("lwa", "rel-lift-naturality", "lift_subspace", _lwa_lift_equality),
    ("cts", "cokleisli-comult", "dist",
     lambda k, targets: frozenset((0, x) for x in targets)),
    ("cts", "rel-lift-naturality", "lift_rel", _lift_to_equality),
]


@pytest.mark.parametrize("family, law, target, broken", _UNTRIPPED_LAWS,
                         ids=[f"{f}-{law}" for f, law, _, _ in _UNTRIPPED_LAWS])
def test_every_law_reports_a_broken_map(monkeypatch, family, law, target, broken):
    # the law alone, as in test_each_law_alone_reports_as_in_the_full_suite:
    # it passes on the honest maps and fails once one is broken
    draw, laws, kit, corruptions = liftings._FAMILIES[family]
    table = tuple(entry for entry in laws if entry[0] == law)
    monkeypatch.setitem(liftings._FAMILIES, family, (draw, table, kit, corruptions))
    assert check_lifting_laws(family, trials=10, seed=3).all_passed
    if target in kit():
        monkeypatch.setitem(liftings._FAMILIES, family, (
            draw, table, lambda: {**kit(), target: broken}, corruptions))
    else:
        monkeypatch.setattr(liftings, target, broken)
    assert not check_lifting_laws(family, trials=10, seed=3).result(law).passed


def test_lwa_modality_law_reports_a_modality_that_tests_before_stepping(
        monkeypatch):
    # the law tests the modality's stepped vector itself wherever it is
    # not the collected slice; a modality that tests the region at the
    # configuration, not at its successor, must be caught
    def at_the_start(lwa, kind, p, region=None):
        if isinstance(kind, int):
            test = region.contains if isinstance(region, Subspace) else region
            return bool(test(tuple(p)))
        return lwa_modality(lwa, kind, p, region)

    law = "modality-recipe-agreement"
    draw, laws, kit, corruptions = liftings._FAMILIES["lwa"]
    table = tuple(entry for entry in laws if entry[0] == law)
    monkeypatch.setitem(liftings._FAMILIES, "lwa", (draw, table, kit, corruptions))
    assert check_lifting_laws("lwa", trials=10, seed=3).all_passed
    monkeypatch.setattr(liftings, "lwa_modality", at_the_start)
    assert not check_lifting_laws("lwa", trials=10, seed=3).result(law).passed


def test_full_law_is_not_evaluated_again(monkeypatch):
    # the meet corruption fills intersection-preservation in the first
    # trial; evaluated in every trial, that law alone would lift three
    # relations, each deciding all 32 x 32 pairs, per trial.  The
    # counter adds the pairs each call decides.  One part, so that
    # every call is made in this process and counted.
    monkeypatch.setattr(rng, "workers", lambda trials: 1)
    law, entry, broken = liftings._NDA_CORRUPTIONS["meet"]
    calls = 0

    def counting(rel_pairs, left, right):
        nonlocal calls
        calls += len(left) * len(right)
        return broken(rel_pairs, left, right)

    monkeypatch.setitem(liftings._NDA_CORRUPTIONS, "meet", (law, entry, counting))
    report = check_lifting_laws("nda", trials=30, seed=11, corruption="meet")
    assert _report_digest(report) == _GOLDEN_FULL_LAW_REPORTS[("nda", "meet")]
    assert 0 < calls < 30 * 2 * 32 * 32


def test_law_memo_lasts_one_call(monkeypatch):
    # a corrupted kit's tables must not reach a later clean call, nor a
    # clean call's tables a corrupted one; one part, so that every call
    # is made in this process and counted
    monkeypatch.setattr(rng, "workers", lambda trials: 1)
    alone = check_lifting_laws("nda", trials=10, seed=3).to_json()
    corrupted = check_lifting_laws("nda", trials=10, seed=3,
                                   corruption="det-step")
    assert not corrupted.result("pred-recipe-agreement").passed
    assert check_lifting_laws("nda", trials=10, seed=3).to_json() == alone
    # the honest map is looked up in the module on every call, so a
    # wrapper bound after import (as a tracing harness does) sees calls
    honest, calls = liftings.nda_det_step, []

    def counting(steps, num_actions):
        calls.append(steps)
        return honest(steps, num_actions)

    monkeypatch.setattr(liftings, "nda_det_step", counting)
    assert check_lifting_laws("nda", trials=10, seed=3).to_json() == alone
    first = len(calls)
    check_lifting_laws("nda", trials=10, seed=3)
    assert first > 0 and len(calls) == 2 * first
    # the one trial at seed 2 draws one target, so the kit's `det` sees
    # few of the 32 step sets over two targets and two actions; the meet
    # and equality laws read all 32, collected by the honest map
    steps = [STOP] + [Step(a, x) for a in range(2) for x in range(2)]
    fixed = {frozenset(s for i, s in enumerate(steps) if b >> i & 1)
             for b in range(1 << len(steps))}
    calls.clear()
    check_lifting_laws("nda", trials=1, seed=2)
    assert fixed <= set(calls)
