"""Acceptance suite.

One test per acceptance criterion, run at the stated sizes and
tolerances; each prints a single pass/fail line (visible with -s or in
the captured output summary).
"""

import functools
import itertools
import pathlib
import subprocess
import sys
import time
from fractions import Fraction
from operator import or_

from behaveq import (
    build_output_lts,
    build_respecting_automaton,
    check_adequacy_expressivity,
    check_lifting_laws,
    cts_conditional_bisim,
    eval_word,
    moore_equiv,
    moore_pair_oracle,
    respecting_subsets,
    verify_witness_homomorphism,
)
from behaveq.core import BitRel
from behaveq.equivalence import lwa_observability_chain
from behaveq.liftings import CORRUPTIONS
from behaveq.rng import (
    Lcg,
    random_cts,
    random_lwa,
    random_nda,
    random_vector,
)

from conftest import cts_relation, gfp_cts_bisim, mask_of

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_golden_worked_example(golden_nda):
    started = time.time()
    states = golden_nda.states

    # (a) language-equivalence classes over the full powerset
    equiv = moore_equiv(golden_nda)
    xy = mask_of(states, "x", "y")
    y = mask_of(states, "y")
    xyz = mask_of(states, "x", "y", "z")
    yz = mask_of(states, "y", "z")
    nontrivial = {
        frozenset((equiv.machine.subset_states[i], equiv.machine.subset_states[j]))
        for i, j in BitRel.from_blocks(equiv.blocks).pairs() if i != j}
    classes_ok = nontrivial == {frozenset((xy, y)), frozenset((xyz, yz))}

    # (b) the respecting carrier
    carrier = set(respecting_subsets(golden_nda, equiv.blocks))
    want_carrier = {0, xy, y, mask_of(states, "z"), yz, xyz}
    carrier_ok = carrier == want_carrier

    # (c) witness images of {x,y} and {y}
    auto = build_respecting_automaton(golden_nda, equiv.blocks)
    want_image = {xy, y, yz, xyz}
    image_ok = (set(auto.witness_image(xy)) == want_image
                and set(auto.witness_image(y)) == want_image)

    # (d) the witness is a homomorphism
    hom_ok = bool(verify_witness_homomorphism(golden_nda, auto))

    elapsed = time.time() - started
    report("1", classes_ok and carrier_ok and image_ok and hom_ok
           and elapsed < 1.0,
           f"classes={classes_ok} carrier={carrier_ok} image={image_ok} "
           f"hom={hom_ok} {elapsed:.3f}s")


def test_criterion_2_nda_oracle_agreement():
    started = time.time()
    disagreements = 0
    for i in range(200):
        rng = Lcg(200).spawn(i)
        nda = random_nda(rng, max_states=5, max_actions=2)
        n = len(nda.states)
        initials = sorted({0, (1 << n) - 1,
                           *(1 << x for x in range(n)),
                           rng.randint(0, (1 << n) - 1),
                           rng.randint(0, (1 << n) - 1)})
        equiv = moore_equiv(nda, initials)
        for u in initials:
            for v in initials:
                if equiv.related(u, v) != moore_pair_oracle(nda, u, v).equivalent:
                    disagreements += 1
    elapsed = time.time() - started
    report("2", disagreements == 0 and elapsed < 60.0,
           f"200 automata, disagreements={disagreements}, {elapsed:.1f}s")


def test_criterion_3_lwa_oracle_agreement():
    started = time.time()
    disagreements = 0
    chain_violations = 0
    for i in range(200):
        rng = Lcg(300).spawn(i)
        lwa = random_lwa(rng, max_states=4, max_actions=2)
        n, m = len(lwa.states), len(lwa.alphabet)
        chain = lwa_observability_chain(lwa)
        if len(chain) - 1 > n:
            chain_violations += 1
        space = chain[-1]
        words = [()]
        for length in range(1, n + 1):
            words.extend(itertools.product(range(m), repeat=length))
        probes = [tuple(Fraction(int(j == x)) for j in range(n))
                  for x in range(n)]
        probes.append(random_vector(rng, n))
        for p in probes:
            for q in probes:
                diff = tuple(a - b for a, b in zip(p, q))
                by_space = space.contains(diff)
                by_words = all(eval_word(lwa, p, w) == eval_word(lwa, q, w)
                               for w in words)
                if by_space != by_words:
                    disagreements += 1
    elapsed = time.time() - started
    report("3", disagreements == 0 and chain_violations == 0 and elapsed < 60.0,
           f"200 automata, disagreements={disagreements}, "
           f"chain_violations={chain_violations}, {elapsed:.1f}s")


def test_criterion_4_cts_oracle_agreement():
    disagreements = 0
    for i in range(100):
        rng = Lcg(400).spawn(i)
        cts = random_cts(rng, max_conditions=3, max_states=6)
        if cts_relation(cts_conditional_bisim(cts)) != gfp_cts_bisim(cts).relation:
            disagreements += 1
    report("4", disagreements == 0, f"100 systems, disagreements={disagreements}")


def test_criterion_5_law_suite_and_mutations():
    failures = []
    for family in ("nda", "lwa", "cts"):
        rep = check_lifting_laws(family, trials=100, seed=500)
        for r in rep.results:
            if not r.passed:
                failures.append((family, r.law, "clean run failed"))
    missed = []
    for family, table in CORRUPTIONS.items():
        for corruption, law in table.items():
            rep = check_lifting_laws(family, trials=100, seed=500,
                                     corruption=corruption)
            if rep.result(law).passed:
                missed.append((family, corruption, law))
    report("5", not failures and not missed,
           f"laws clean across 100 instances/family, failures={failures}, "
           f"missed mutations={missed}")


def test_criterion_6_adequacy_and_expressivity(golden_nda):
    bad = []
    rep = check_adequacy_expressivity(golden_nda)
    if not (rep.adequate and rep.expressive):
        bad.append(("golden", rep.counterexamples[:1]))
    for i in range(100):
        nda = random_nda(Lcg(601).spawn(i), max_states=4)
        rep = check_adequacy_expressivity(nda)
        if not (rep.adequate and rep.expressive):
            bad.append(("nda", i))
    for i in range(100):
        lwa = random_lwa(Lcg(602).spawn(i), max_states=4)
        rep = check_adequacy_expressivity(lwa)
        if not (rep.adequate and rep.expressive):
            bad.append(("lwa", i))
    unsaturated = 0
    for i in range(50):
        cts = random_cts(Lcg(603).spawn(i), max_conditions=3, max_states=4)
        rep = check_adequacy_expressivity(cts)
        if not (rep.adequate and rep.expressive):
            bad.append(("cts", i))
        if rep.depth_saturated is not True:
            unsaturated += 1
    report("6", not bad and unsaturated == 0,
           f"golden + 100 nda + 100 lwa + 50 cts, counterexamples={bad}, "
           f"unsaturated={unsaturated}")


def test_criterion_7_moore_semantics_separation(trace_failure_lts):
    m = trace_failure_lts
    p0 = mask_of(m.states, "p0")
    q0 = mask_of(m.states, "q0")

    # independent confirmation by direct trace and refusal enumeration
    def traces(start, depth):
        out = {()}
        frontier = {(): start}
        for _ in range(depth):
            nxt = {}
            for word, mask in frontier.items():
                for a in range(len(m.alphabet)):
                    t = m.post(mask, a)
                    if t:
                        out.add(word + (a,))
                        nxt[word + (a,)] = t
            frontier = nxt
        return out

    trace_sets_equal = traces(p0, 2 ** len(m.states)) == traces(q0, 2 ** len(m.states))

    fail_lts = build_output_lts(m.states, m.alphabet, m.delta, "failure")
    ready_lts = build_output_lts(m.states, m.alphabet, m.delta, "ready")
    a = m.alphabet.index("a")
    # each output is a set of refusals, a mask, and a subset's is their union
    refusals_after_a_differ = (
        functools.reduce(or_, (
            fail_lts.output[x] for x in range(len(m.states))
            if fail_lts.post(p0, a) >> x & 1), 0)
        != functools.reduce(or_, (
            fail_lts.output[x] for x in range(len(m.states))
            if fail_lts.post(q0, a) >> x & 1), 0))

    trace_verdict = moore_equiv(m, [p0, q0]).related(p0, q0)
    failure_verdict = moore_equiv(fail_lts, [p0, q0]).related(p0, q0)
    ready_verdict = moore_equiv(ready_lts, [p0, q0]).related(p0, q0)

    ok = (trace_sets_equal and refusals_after_a_differ
          and trace_verdict and not failure_verdict and not ready_verdict)
    report("7", ok,
           f"trace={trace_verdict} failure={failure_verdict} "
           f"ready={ready_verdict}, enumeration confirms separation")


def test_criterion_8_cli_determinism():
    args = [sys.executable, "-m", "behaveq.cli", "check",
            "--random", "nda", "--laws", "--adequacy",
            "--trials", "10", "--seed", "424242", "--json"]
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"}
    first = subprocess.run(args, capture_output=True, text=True, env=env)
    second = subprocess.run(args, capture_output=True, text=True, env=env)
    identical = (first.stdout == second.stdout
                 and first.returncode == second.returncode == 0
                 and len(first.stdout) > 0)
    report("8", identical,
           f"two runs, {len(first.stdout)} bytes each, byte-identical={identical}")
