import functools
from dataclasses import replace
from fractions import Fraction

import pytest

from behaveq import (
    BitRel,
    Carrier,
    Cts,
    Lwa,
    Nda,
    build_output_lts,
    check_adequacy_expressivity,
    cts_box,
    cts_conditional_bisim,
    eval_cts,
    eval_word,
    moore_equiv,
    moore_pair_oracle,
    parse_cts_formula,
    parse_word,
    render_word,
    theory_word,
)
from behaveq import logic
from behaveq.core import CapExceeded, format_rational
from behaveq.logic import TT, box, conj_all, cts_logical_analysis, disj_all, neg
from behaveq.rng import (
    Lcg,
    random_cts,
    random_lts,
    random_lwa,
    random_nda,
    random_vector,
)

from conftest import gfp_cts_bisim, mask_of, relation_classes


# ------------------------------------------------------------ word logic

def test_eval_word_nda_cases(golden_nda):
    x = mask_of(golden_nda.states, "x")
    y = mask_of(golden_nda.states, "y")
    a = parse_word(golden_nda.alphabet, "a")
    b = parse_word(golden_nda.alphabet, "b")
    assert eval_word(golden_nda, x, a)
    assert not eval_word(golden_nda, x, b)
    assert eval_word(golden_nda, y, a)
    assert eval_word(golden_nda, y, b)
    # empty word observes acceptance of the subset itself
    assert not eval_word(golden_nda, x, ())
    assert eval_word(golden_nda, mask_of(golden_nda.states, "z"), ())


def test_word_render_and_parse_roundtrip(golden_nda):
    alphabet = golden_nda.alphabet
    for word in [(), (0,), (0, 1), (1, 1, 0)]:
        text = render_word(alphabet, word)
        assert parse_word(alphabet, text) == word
    assert render_word(alphabet, (0, 1)) == "[a][b]↓"
    assert parse_word(alphabet, "ab") == (0, 1)


def test_theory_word_nda(golden_nda):
    x = mask_of(golden_nda.states, "x")
    table = theory_word(golden_nda, x, 2)
    assert table[()] is False
    assert table[(0,)] is True
    assert table[(1,)] is False
    assert table[(0, 0)] is False
    assert len(table) == 1 + 2 + 4


def test_theory_word_agrees_with_eval_word(golden_nda):
    for start in range(8):
        table = theory_word(golden_nda, start, 3)
        for word, value in table.items():
            assert eval_word(golden_nda, start, word) == value


def test_theory_word_lwa():
    lwa = Lwa(Carrier(("x", "y")), Carrier(("a",)),
              (Fraction(0), Fraction(3)),
              (((Fraction(0), Fraction(2)), (Fraction(0), Fraction(0))),))
    table = theory_word(lwa, (1, 0), 1)
    assert table[()] == 0
    assert table[(0,)] == 6


def test_theory_word_moore_bottom_for_empty():
    states = Carrier(("x",))
    lts = build_output_lts(states, Carrier(("a",)), ((0,),), "trace")
    table = theory_word(lts, 1, 1)
    assert table[()] == 1
    assert table[(0,)] == 0  # empty successor set observes bottom


def test_eval_word_is_the_theory_table_entry():
    rng = Lcg(4004)
    for _ in range(10):
        nda = random_nda(rng, max_states=4, max_actions=3)
        lwa = random_lwa(rng, max_states=4, max_actions=3)
        states, alphabet, delta = random_lts(rng, max_states=4)
        starts = [(nda, rng.randint(0, (1 << len(nda.states)) - 1)),
                  (lwa, random_vector(rng, len(lwa.states)))]
        for semantics in ("trace", "failure", "ready"):
            lts = build_output_lts(states, alphabet, delta, semantics)
            starts.append((lts, rng.randint(0, (1 << len(states)) - 1)))
        for system, start in starts:
            for word, value in theory_word(system, start, 3).items():
                assert eval_word(system, start, word) == value


def test_systems_without_words_raise_value_error():
    cts = cts_for_formulas()
    with pytest.raises(ValueError):
        theory_word(cts, 1, 2)
    with pytest.raises(ValueError):
        eval_word(cts, 1, (0,))


# ------------------------------------------------------------- cts logic

def cts_for_formulas():
    # k: u -> v, v childless; k2: both childless
    return Cts(Carrier(("k", "k2")), Carrier(("u", "v")),
               ((0b10, 0b00), (0b00, 0b00)))


def test_eval_cts_tt_and_vacuous_box():
    cts = cts_for_formulas()
    full = (1 << 4) - 1
    assert eval_cts(cts, TT) == full
    assert eval_cts(cts, box(TT)) == full


def test_eval_cts_has_successor():
    cts = cts_for_formulas()
    has_succ = neg(box(neg(TT)))
    got = eval_cts(cts, has_succ)
    n = len(cts.states)
    want = 0
    for k in range(2):
        for x in range(2):
            if cts.delta[k][x]:
                want |= 1 << (k * n + x)
    assert got == want


def test_eval_cts_box_empty_region():
    cts = cts_for_formulas()
    no_succ = box(neg(TT))
    got = eval_cts(cts, no_succ)
    assert got == ((1 << 4) - 1) & ~eval_cts(cts, neg(box(neg(TT))))


def test_eval_cts_negation_involutive_and_box_meets():
    rng = Lcg(55)
    from behaveq.logic import conj
    for _ in range(15):
        cts = random_cts(rng, max_conditions=2, max_states=3)
        total = len(cts.conditions) * len(cts.states)
        full = (1 << total) - 1
        # random formulas built from a small pool
        pool = [TT, box(TT), neg(TT), box(neg(TT)), neg(box(neg(TT)))]
        f = rng.choice(pool)
        g = rng.choice(pool)
        assert eval_cts(cts, neg(neg(f))) == eval_cts(cts, f)
        assert eval_cts(cts, box(conj(f, g))) == (
            eval_cts(cts, box(f)) & eval_cts(cts, box(g)))
        assert eval_cts(cts, neg(f)) == full & ~eval_cts(cts, f)


def test_parse_cts_formula_roundtrip():
    for text, canonical in [
        ("tt", "tt"),
        ("!tt", "¬tt"),
        ("[] tt", "□tt"),
        ("!(tt & !tt)", "¬(tt∧¬tt)"),
        ("¬□¬tt", "¬□¬tt"),
    ]:
        formula = parse_cts_formula(text)
        assert formula.render() == canonical
        assert parse_cts_formula(canonical).render() == canonical
    with pytest.raises(ValueError):
        parse_cts_formula("tt &")
    with pytest.raises(ValueError):
        parse_cts_formula("zz")


# ----------------------------------------------------------- adequacy

def test_adequacy_golden_example(golden_nda):
    report = check_adequacy_expressivity(golden_nda)
    assert report.adequate and report.expressive
    merged = {frozenset(c) for c in report.logical_classes if len(c) > 1}
    assert merged == {frozenset({"{y}", "{x,y}"}),
                      frozenset({"{y,z}", "{x,y,z}"})}
    assert report.counterexamples == ()


def test_adequacy_random_ndas():
    for i in range(25):
        nda = random_nda(Lcg(31).spawn(i), max_states=4)
        report = check_adequacy_expressivity(nda)
        assert report.adequate and report.expressive, report.counterexamples


def test_adequacy_random_lwas():
    for i in range(25):
        lwa = random_lwa(Lcg(32).spawn(i), max_states=4)
        report = check_adequacy_expressivity(lwa)
        assert report.adequate and report.expressive, report.counterexamples


def test_adequacy_random_cts_with_depth_saturation():
    for i in range(15):
        cts = random_cts(Lcg(33).spawn(i), max_conditions=3, max_states=4)
        report = check_adequacy_expressivity(cts)
        assert report.adequate and report.expressive, report.counterexamples
        assert report.depth_saturated is True


def _reference_counterexamples(labels, behavioural, logical, formula, note):
    """Every ordered pair probed with `has`, in (i, j) order."""
    out = []
    for i in range(len(labels)):
        for j in range(len(labels)):
            beh = behavioural.has(i, j)
            if beh == logical.has(i, j):
                continue
            pair = [labels[i], labels[j]]
            out.append({"pair": pair, "kind": "adequacy", "formula": formula(i, j)}
                       if beh else {"pair": pair, "kind": "expressivity", "note": note})
    return out


def test_report_counterexamples_match_the_pairwise_reference():
    rng = Lcg(3601)
    disagreements = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        labels = [f"p{i}" for i in range(n)]
        keys = [[rng.randint(0, rng.randint(0, n - 1)) for _ in range(n)]
                for _ in range(2)]
        behavioural, logical = map(BitRel.from_blocks, keys)
        formula = lambda i, j: f"f{i},{j}"
        report = logic._report("test", labels, *keys, formula, "note", 0)
        want = _reference_counterexamples(labels, behavioural, logical,
                                          formula, "note")
        assert list(report.counterexamples) == want
        assert report.adequate == all(
            logical.has(i, j) for i, j in behavioural.pairs())
        assert report.expressive == all(
            behavioural.has(i, j) for i, j in logical.pairs())
        assert report.behavioural_classes == _labelled(behavioural, labels)
        assert report.logical_classes == _labelled(logical, labels)
        disagreements += bool(want)
    assert disagreements > 100


# Forced disagreements: the patched names answer for a second system, so
# the two relations differ in both directions.  Each case gives the
# system checked, the names patched with the system they answer for, the
# expected (pair, kind) list in report order, the expressivity note, and
# whether a formula separates two labelled positions in the system the
# logical side read.

_XY, _XYZ, _A = Carrier(("x", "y")), Carrier(("x", "y", "z")), Carrier(("a",))
_SUBSETS = {"{}": 0, "{x}": 1, "{y}": 2, "{x,y}": 3}
_EXPR, _ADEQ = "expressivity", "adequacy"


def _forced_nda():
    # no transitions; x accepts in the checked system, y in the oracle's
    checked = Nda(_XY, _A, ((0,), (0,)), 0b01)
    other = Nda(_XY, _A, ((0,), (0,)), 0b10)
    expected = [(("{}", "{x}"), _EXPR), (("{}", "{y}"), _ADEQ),
                (("{x}", "{}"), _EXPR), (("{x}", "{x,y}"), _ADEQ),
                (("{y}", "{}"), _ADEQ), (("{y}", "{x,y}"), _EXPR),
                (("{x,y}", "{x}"), _ADEQ), (("{x,y}", "{y}"), _EXPR)]

    def separates(text, p, q):
        word = parse_word(other.alphabet, text)
        return (eval_word(other, _SUBSETS[p], word)
                != eval_word(other, _SUBSETS[q], word))
    return (checked, ("_word_keys", "moore_pair_oracle"), other, expected,
            "no distinguishing word exists but the behavioural relation "
            "separates the pair", separates)


def _forced_moore():
    # trace semantics; x loops on a in the checked system, y in the oracle's
    checked = build_output_lts(_XY, _A, ((0b01,), (0b00,)), "trace")
    other = build_output_lts(_XY, _A, ((0b00,), (0b10,)), "trace")
    expected = [(("{x}", "{x,y}"), _ADEQ), (("{y}", "{x,y}"), _EXPR),
                (("{x,y}", "{x}"), _ADEQ), (("{x,y}", "{y}"), _EXPR)]

    def separates(text, p, q):
        word = parse_word(other.alphabet, text)
        return (eval_word(other, _SUBSETS[p], word)
                != eval_word(other, _SUBSETS[q], word))
    return (checked, ("_word_keys", "moore_pair_oracle"), other, expected,
            "no distinguishing word exists but the behavioural relation "
            "separates the pair", separates)


def _forced_lwa():
    # no transitions; outputs (1,1,2) checked, (2,1,1) for the subspace
    zero = ((Fraction(0),) * 3,) * 3
    checked = Lwa(_XYZ, _A, (Fraction(1), Fraction(1), Fraction(2)), (zero,))
    other = Lwa(_XYZ, _A, (Fraction(2), Fraction(1), Fraction(1)), (zero,))
    expected = [(("x", "y"), _EXPR), (("y", "x"), _EXPR),
                (("y", "z"), _ADEQ), (("z", "y"), _ADEQ)]

    def unit(label):
        return tuple(Fraction(int(s == label)) for s in _XYZ.names)

    def separates(text, p, q):
        word = parse_word(checked.alphabet, text)
        return (eval_word(checked, unit(p), word)
                != eval_word(checked, unit(q), word))
    return (checked, ("lwa_unobservable_subspace",), other, expected,
            "trace tables agree to the stabilisation bound but the "
            "subspace separates the pair", separates)


def _forced_cts():
    # under k, x loops and y, z deadlock in the checked system; in the
    # bisimulation's system y loops too; under l everything deadlocks
    conditions = Carrier(("k", "l"))
    checked = Cts(conditions, _XYZ, ((0b001, 0, 0), (0, 0, 0)))
    other = Cts(conditions, _XYZ, ((0b001, 0b010, 0), (0, 0, 0)))
    expected = [(("k:x", "k:y"), _ADEQ), (("k:y", "k:x"), _ADEQ),
                (("k:y", "k:z"), _EXPR), (("k:z", "k:y"), _EXPR)]

    def position(label):
        k, x = label.split(":")
        return conditions.index(k) * len(_XYZ) + _XYZ.index(x)

    def separates(text, p, q):
        sat = eval_cts(checked, parse_cts_formula(text))
        return bool(sat >> position(p) & 1) != bool(sat >> position(q) & 1)
    return (checked, ("cts_conditional_bisim",), other, expected,
            "no formula separates the pair but the bisimulation fixpoint does",
            separates)


@pytest.mark.parametrize("case", [_forced_nda, _forced_moore, _forced_lwa,
                                  _forced_cts])
def test_adequacy_counterexamples_on_forced_disagreement(case, monkeypatch):
    checked, names, other, expected, note, separates = case()
    # the word families' logical side reads the system through two names,
    # the word predicates and the pair search; both answer for `other`
    for patched in names:
        honest = getattr(logic, patched)
        monkeypatch.setattr(logic, patched,
                            lambda system, *rest, honest=honest: honest(other, *rest))
    report = check_adequacy_expressivity(checked)
    assert not report.adequate and not report.expressive
    got = [(tuple(ce["pair"]), ce["kind"]) for ce in report.counterexamples]
    assert got == expected
    for ce in report.counterexamples:
        if ce["kind"] == _ADEQ:
            assert separates(ce["formula"], *ce["pair"]), ce
        else:
            assert ce["note"] == note


# The logical side of the word-reading families reads the backward
# construction: word predicates for automata and Moore systems, the
# backward Krylov basis for weighted automata.  The references read
# words forward: equal word tables up to |states| letters for weighted
# automata, and the pair oracle, asked about every ordered pair or
# against one representative per class, for automata and Moore systems.

def _labelled(rel, labels):
    return tuple(tuple(labels[i] for i in cls) for cls in relation_classes(rel))


def _table_relation(tables):
    """Positions related when their weights agree on every word of at
    most |states| letters."""
    return BitRel.from_pairs(len(tables), (
        (i, j) for i, t in enumerate(tables) for j, u in enumerate(tables)
        if t == u))


def _direct_sum(one, two):
    k, m = len(one.states), len(two.states)
    return Lwa(Carrier(tuple(f"q{i}" for i in range(k + m))), one.alphabet,
               one.out + two.out,
               tuple(tuple(row + (Fraction(0),) * m for row in a)
                     + tuple((Fraction(0),) * k + row for row in b)
                     for a, b in zip(one.mat, two.mat)))


def _shift_chain(rng, length):
    """States 0..length; both actions shift i to i+1 with a random
    nonzero weight and only the last state has an output, so two chains
    are told apart only by words of exactly `length` letters."""
    n, zero = length + 1, Fraction(0)
    mats = tuple(tuple(tuple(rng.choice((Fraction(1), Fraction(-1), Fraction(2)))
                             if j == i + 1 else zero for j in range(n))
                       for i in range(n)) for _ in range(2))
    return Lwa(Carrier(tuple(f"c{i}" for i in range(n))), Carrier(("a", "b")),
               (zero,) * length + (Fraction(1),), mats)


@functools.cache
def _lwa_cases():
    """Random automata, each next to a copy of itself, and shift chains
    next to a copy and to another chain, each with its unit vectors and
    with explicit vectors that include repeats, a sum and zero; with the
    vectors' word tables."""
    rng = Lcg(3501)
    systems = [random_lwa(rng, max_states=5) for _ in range(30)]
    for _ in range(6):
        one = random_lwa(rng, max_states=3)
        systems.append(_direct_sum(one, one))
    for _ in range(2):
        chain = _shift_chain(rng, 2)
        systems += [_direct_sum(chain, chain),
                    _direct_sum(chain, _shift_chain(rng, 2))]
    cases = []
    for lwa in systems:
        n = len(lwa.states)
        units = [tuple(Fraction(int(i == x)) for i in range(n)) for x in range(n)]
        vecs = [random_vector(rng, n) for _ in range(3)]
        vecs += [vecs[0], tuple(a + b for a, b in zip(vecs[0], vecs[1])),
                 (Fraction(0),) * n]
        for vectors, configs, labels in [
                (None, units, lwa.states.names),
                (vecs, vecs, ["[" + ",".join(map(format_rational, vec)) + "]"
                              for vec in vecs])]:
            tables = [theory_word(lwa, c, n) for c in configs]
            cases.append((lwa, vectors, tuple(labels), tables))
    return cases


def test_lwa_logical_classes_are_the_word_table_classes():
    merged = 0
    for lwa, vectors, labels, tables in _lwa_cases():
        report = check_adequacy_expressivity(lwa, vectors=vectors)
        want = _labelled(_table_relation(tables), labels)
        assert report.logical_classes == want
        merged += len(want) < len(tables)
    assert merged > 20


def test_lwa_adequacy_formula_is_the_first_differing_table_word(monkeypatch):
    # the subspace answers for a system with its outputs reversed, so the
    # relations disagree; the logical side still reads the checked system
    honest = logic.lwa_unobservable_subspace
    monkeypatch.setattr(logic, "lwa_unobservable_subspace",
                        lambda lwa: honest(replace(lwa, out=lwa.out[::-1])))
    formulas = 0
    for lwa, vectors, labels, tables in _lwa_cases():
        report = check_adequacy_expressivity(lwa, vectors=vectors)
        for ce in report.counterexamples:
            if ce["kind"] != "adequacy":
                continue
            t, u = (tables[labels.index(label)] for label in ce["pair"])
            first = next(w for w in t if t[w] != u[w])
            assert ce["formula"] == render_word(lwa.alphabet, first)
            formulas += 1
    assert formulas > 30


def test_word_logical_relation_is_the_pairwise_oracle_relation():
    rng = Lcg(3503)
    cases = []
    for _ in range(30):
        nda = random_nda(rng, max_states=6)
        cases.append((nda, moore_equiv(nda), moore_pair_oracle))
        states, alphabet, delta = random_lts(rng, max_states=6)
        for semantics in ("trace", "failure", "ready"):
            lts = build_output_lts(states, alphabet, delta, semantics)
            cases.append((lts, moore_equiv(lts), moore_pair_oracle))
    merged = 0
    for system, equiv, oracle in cases:
        masks = equiv.machine.subset_states
        labels = [equiv.machine.label(i) for i in range(len(masks))]
        pairwise = BitRel.from_pairs(len(masks), (
            (i, j) for i, u in enumerate(masks) for j, v in enumerate(masks)
            if oracle(system, u, v).equivalent))
        report = check_adequacy_expressivity(system)
        assert report.logical_classes == _labelled(pairwise, labels)
        merged += len(report.logical_classes) < len(masks)
    assert merged > 20


def reference_word_blocks(system, configs):
    """Logical block of each configuration, numbered in order of first
    appearance, by asking the pair oracle about it and one
    representative of each block found before it."""
    reps, blocks = [], []
    for c in configs:
        block = next((b for b, rep in enumerate(reps)
                      if moore_pair_oracle(system, rep, c).equivalent), len(reps))
        if block == len(reps):
            reps.append(c)
        blocks.append(block)
    return blocks


def _sized_delta(rng, n, one_in):
    """n states over {a, b}, each possible edge present with
    probability 1/one_in."""
    return tuple(tuple(sum(1 << y for y in range(n) if rng.randint(1, one_in) == 1)
                       for _ in range(2)) for _ in range(n))


def test_word_blocks_match_the_representative_reference(golden_nda,
                                                        trace_failure_lts):
    # past the sizes the pairwise oracle test reaches: 7-10 states, sparse
    # enough for dozens of classes, over the full powerset and from a few
    # initial subsets; and both data files
    rng, ab = Lcg(3507), Carrier(("a", "b"))
    cases = [(golden_nda, None), (trace_failure_lts, None),
             (trace_failure_lts, [mask_of(trace_failure_lts.states, "p0"),
                                  mask_of(trace_failure_lts.states, "q0")])]
    for n in (7, 8, 9, 10):
        states = Carrier(tuple(f"q{i}" for i in range(n)))
        systems = [Nda(states, ab, _sized_delta(rng, n, n // 2),
                       rng.randint(0, (1 << n) - 1))]
        delta = _sized_delta(rng, n, n // 2 + 1)
        systems += [build_output_lts(states, ab, delta, semantics)
                    for semantics in ("trace", "failure", "ready")]
        for system in systems:
            cases.append((system, None))
            cases.append((system, [rng.randint(1, (1 << n) - 1) for _ in range(3)]))
    sizes = []
    for system, initials in cases:
        configs = moore_equiv(system, initials).machine.subset_states
        keys = logic._word_keys(system, configs)
        numbers: dict[int, int] = {}
        blocks = [numbers.setdefault(key, len(numbers)) for key in keys]
        assert blocks == reference_word_blocks(system, configs)
        sizes.append(len(numbers))
    assert sum(size > 20 for size in sizes) > 5, sizes


def test_cts_single_condition_matches_hennessy_milner_oracle():
    # with one condition the logical classes are the bisimilarity blocks
    for i in range(10):
        cts = random_cts(Lcg(34).spawn(i), max_conditions=1, max_states=5)
        d = len(cts.states) + 1
        partitions, _ = cts_logical_analysis(cts, d)
        logical = partitions[min(d, len(partitions) - 1)]
        bisimilar = gfp_cts_bisim(cts).relation
        n = len(cts.states)
        for x in range(n):
            for y in range(n):
                assert (logical[x] == logical[y]) == bisimilar.has(x, y)


# `cts_logical_analysis` boxes one union of atoms per position and
# level.  The reference is the enumeration it replaced, which boxes
# every union of atoms, 2^atoms - 1 of them per level.

def reference_cts_generators(cts, depth):
    """(relations, levels): relations[d] the relation of the partition
    that `cts_logical_analysis` gives at depth d, for every d up to
    `depth`, and levels[d] the generators found by level d."""
    n = len(cts.states)
    total = len(cts.conditions) * n
    full = (1 << total) - 1
    gens = [(full, TT)]
    known = {full}

    def relation():
        return BitRel.from_blocks(
            [(i // n, tuple(g >> i & 1 for g, _ in gens)) for i in range(total)])

    def atoms():
        profiles = {}
        for i in range(total):
            prof = tuple(bool(g >> i & 1) for g, _ in gens)
            profiles.setdefault(prof, []).append(i)
        out = []
        for prof, positions in sorted(profiles.items()):
            mask = sum(1 << i for i in positions)
            parts = []
            for keep, (g_mask, g_formula) in zip(prof, gens):
                if keep and g_mask == full:
                    continue
                parts.append(g_formula if keep else neg(g_formula))
            out.append((mask, conj_all(parts)))
        return out

    relations, levels = [relation()], [list(gens)]
    for _ in range(depth):
        level_atoms = atoms()
        fresh = []
        for combo in range(1, 1 << len(level_atoms)):
            mask = 0
            formulas = []
            for i in range(len(level_atoms)):
                if combo >> i & 1:
                    mask |= level_atoms[i][0]
                    formulas.append(level_atoms[i][1])
            boxed = cts_box(cts, mask)
            if boxed not in known:
                known.add(boxed)
                fresh.append((boxed, box(disj_all(formulas))))
        boxed_empty = cts_box(cts, 0)
        if boxed_empty not in known:
            known.add(boxed_empty)
            fresh.append((boxed_empty, box(neg(TT))))
        gens.extend(fresh)
        relations.append(relation())
        levels.append(list(gens))
    return relations, levels


def _sparse_cts(rng):
    """Up to 16 positions, as 1x16, 2x8, 4x4, 1x12 or 3x5, with each
    edge present with probability 1/m for a random m in 2..|X|+1."""
    k, n = rng.choice([(1, 16), (2, 8), (4, 4), (1, 12), (3, 5)])
    one_in = rng.randint(2, n + 1)
    return Cts(Carrier(tuple(f"k{i}" for i in range(k))),
               Carrier(tuple(f"q{i}" for i in range(n))),
               tuple(tuple(sum(1 << y for y in range(n) if rng.randint(1, one_in) == 1)
                           for _ in range(n)) for _ in range(k)))


def _atoms(gens, total):
    masks = {}
    for i in range(total):
        prof = tuple(g >> i & 1 for g, _ in gens)
        masks[prof] = masks.get(prof, 0) | 1 << i
    return list(masks.values())


def test_cts_generators_match_the_exhaustive_reference():
    rng = Lcg(3625)
    cases = [random_cts(rng.spawn(i), max_conditions=4, max_states=4)
             for i in range(40)]
    cases += [_sparse_cts(rng.spawn(100 + i)) for i in range(60)]
    classes = []
    for cts in cases:
        total = len(cts.conditions) * len(cts.states)
        top = cts_conditional_bisim(cts).iterations + 2
        want, levels = reference_cts_generators(cts, top)
        for d in range(top + 1):
            partitions, gens = cts_logical_analysis(cts, d)
            assert [BitRel.from_blocks(partitions[min(e, len(partitions) - 1)])
                    for e in range(d + 1)] == want[:d + 1]
            # numbered by first appearance, so equal partitions are equal
            # tuples, as the saturation check compares them
            for blocks in partitions:
                first = {}
                assert blocks == tuple(first.setdefault(b, len(first)) for b in blocks)
            # the reference's predicates are Boolean combinations of the
            # new generators, depth by depth
            atoms = _atoms(gens, total)
            for mask, _ in levels[d]:
                assert all(mask & atom in (0, atom) for atom in atoms)
        classes.append(len(relation_classes(want[-1])))
    assert sum(c >= 10 for c in classes) > 10, classes


def _chain(n):
    """One condition, q_i -> q_i+1, q_(n-1) deadlocked."""
    return Cts(Carrier(("k",)), Carrier(tuple(f"q{i}" for i in range(n))),
               (tuple(1 << (i + 1) if i + 1 < n else 0 for i in range(n)),))


def test_cts_chain_adequacy_boxes_twice_per_position_and_level(monkeypatch):
    # Boxing every union of atoms took 196,606 `cts_box` calls here;
    # one box per position and level, with one box per atom to find the
    # atoms each successor set meets, takes at most two per position.
    cts, calls = _chain(16), 0
    honest = logic.cts_box

    def counted(*args):
        nonlocal calls
        calls += 1
        return honest(*args)
    monkeypatch.setattr(logic, "cts_box", counted)
    report = check_adequacy_expressivity(cts)
    assert report.passed and report.depth_saturated is True
    assert len(report.logical_classes) == 16
    levels = report.iterations + 2
    assert calls <= 2 * 16 * levels, (calls, levels)


def test_cts_levels_stop_where_no_generator_is_added():
    for cts in (cts_for_formulas(), _chain(5)):
        partitions, gens = cts_logical_analysis(cts, 10 ** 9)
        last = len(partitions) - 1
        assert cts_logical_analysis(cts, last) == (partitions, gens)
        assert cts_logical_analysis(cts, last + 1) == (partitions, gens)
        assert cts_logical_analysis(cts, last - 1)[0] == partitions[:-1]


def test_cts_distinguishing_formula_is_actually_distinguishing():
    cts = cts_for_formulas()
    d = 3
    _, gens = cts_logical_analysis(cts, d)
    # u and v differ under k; find and re-evaluate a separating formula
    from behaveq.logic import cts_distinguishing_formula
    text = cts_distinguishing_formula(gens, 0, 1)
    assert text is not None
    formula = parse_cts_formula(text)
    sat = eval_cts(cts, formula)
    n = len(cts.states)
    assert bool(sat >> (0 * n + 0) & 1) != bool(sat >> (0 * n + 1) & 1)


def test_moore_adequacy_on_semantics(trace_failure_lts):
    m = trace_failure_lts
    p0 = mask_of(m.states, "p0")
    q0 = mask_of(m.states, "q0")
    report = check_adequacy_expressivity(m, initials=[p0, q0])
    assert report.adequate and report.expressive


def test_word_predicates_past_the_subset_cap_are_refused():
    # "the 13th letter is a" on 14 states: 15 subsets are reachable from
    # {q0}, but the backward construction from the accepting state
    # passes 2^12 predicates, and it fails loudly under the same cap
    states = Carrier(tuple(f"q{i}" for i in range(14)))
    delta = (*((1 << i + 1, 1 << i + 1) for i in range(12)),
             (1 << 13, 0), (1 << 13, 1 << 13))
    nda = Nda(states, Carrier(("a", "b")), delta, 1 << 13)
    assert len(moore_equiv(nda, [1]).machine.subset_states) == 15
    with pytest.raises(CapExceeded, match="^subset machine reaches 4098 "
                                          "positions, past the cap of 2\\^12$"):
        check_adequacy_expressivity(nda, initials=[1])


def test_adequacy_search_count_on_trace_vs_failure(trace_failure_lts, monkeypatch):
    # 512 subset positions in 9 classes.  The logical side reads the word
    # predicates, so an honest check searches no pair; a tree of
    # separating words over the pair search took 504 searches here
    searches, honest = 0, logic.moore_pair_oracle

    def counted(*args):
        nonlocal searches
        searches += 1
        return honest(*args)
    monkeypatch.setattr(logic, "moore_pair_oracle", counted)
    report = check_adequacy_expressivity(trace_failure_lts)
    assert report.passed and len(report.logical_classes) == 9
    assert len(sum(report.logical_classes, ())) == 512
    assert searches == 0
