"""The three workloads as call lists with their expected answers.

A round writes fresh input files and returns `Call`s.  Each call is one
`behaveq` command line; its `check` compares the captured stdout with
an answer that comes from construction or from `ref.py`, never from
behaveq, and returns a description of the first mismatch or None.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import gen
import ref
from behaveq.rng import Lcg

# Law-suite trials per `check --laws` call: the 100 of the acceptance
# suite, except 20 for nda, where 100 trials take ~4 s.  At 20 trials the
# nda det-step corruption trips its named law (gamma-theta-mu) on only
# ~88% of seeds (other laws catch it on the rest), so that call keeps 100.
LAW_TRIALS = {"nda": 20, "lwa": 100, "cts": 100}
DET_STEP_TRIALS = 100
ADEQUACY_TRIALS = 50
# Refinement rounds asked of the random systems in `classes`: the most
# frequent round count of each semantics at n = 6..9, and of random
# 3-condition cts at n = 20..60.
CLASSES_ROUNDS = {None: 5, "trace": 3, "failure": 5, "ready": 5}
CTS_ROUNDS = 8
CANDIDATES = 12

# Which law each named corruption must trip, restated from the law
# suite's documentation rather than imported from it.
CORRUPTIONS = {
    "nda": {"dist-law": "kleisli-unit", "det-step": "gamma-theta-mu",
            "sigma": "pred-sigma-naturality", "lift": "equality-preservation",
            "meet": "intersection-preservation"},
    "lwa": {"dist-law": "kleisli-unit", "det-step": "gamma-theta-mu",
            "sigma": "pred-sigma-naturality", "lift": "equality-preservation"},
    "cts": {"dist-law": "cokleisli-counit", "sigma": "pred-sigma-naturality",
            "lift": "equality-preservation", "meet": "box-meet-preservation"},
}

# Random moore systems given to `check FILE --adequacy`: 64 subset
# positions, so the oracle runs on 4096 pairs.  The repository's
# data/trace-vs-failure.json has 512 positions and takes ~11 s per call,
# longer than a whole round, so only data/paper-nda.json is used.
ADEQUACY_STATES = 6

# lwa pair sizes (states of A + A'), the sizes that also get an
# equivalent copy pair, and the shift-chain length: each extra chain
# letter doubles the word enumeration of the witness search.
LWA_PAIR_SIZES = (8, 16, 32)
LWA_COPY_SIZES = (8, 16)
CHAIN_LENGTH = 6

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Call:
    """One command line, its expected exit code, and two checks on its
    stdout: `check` against the known answer, and `wrong` against a
    deliberately wrong answer, which must report a mismatch."""

    label: str
    argv: list[str]
    exit: int
    check: Callable[[str], str | None]
    wrong: Callable[[str], str | None]


class Round:
    """Writes the inputs of one round under `workdir`."""

    def __init__(self, workdir: str, rng: Lcg):
        self.workdir = workdir
        self.rng = rng
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def child(self) -> Lcg:
        self.count += 1
        return self.rng.spawn(self.count)

    def write(self, stem: str, text: str) -> str:
        path = os.path.join(self.workdir, f"{stem}.json")
        with open(path, "w") as fh:
            fh.write(text)
        return path


def _subset_arg(states, mask: int) -> str:
    return "{" + ",".join(sorted(ref.names_of(states, mask))) + "}"


# --------------------------------------------------------------- classes

def _check_classes(expect, rounds):
    def check(stdout):
        got = json.loads(stdout)
        classes = frozenset(frozenset(ref.parse_subset(s) for s in cls)
                            for cls in got["classes"])
        if classes != expect:
            return "classes differ"
        if got["iterations"] != rounds:
            return f"iterations {got['iterations']} != {rounds}"
        return None
    return check


def _typical(draw, rounds_of, target):
    """Of CANDIDATES draws, the first whose refinement takes `target`
    rounds, else the nearest.  Every seed then asks the engine for about
    the same number of iterations, and set-up always makes the same
    number of draws.  Returns (system, reference answer)."""
    best = None
    for _ in range(CANDIDATES):
        system = draw()
        answer = rounds_of(system)
        if best is None or abs(answer[1] - target) < abs(best[1][1] - target):
            best = system, answer
    return best


def _auto_classes(rnd: Round, stem: str, n: int, semantics) -> Call:
    """Full-powerset classes of a random automaton."""
    auto, (block, rounds) = _typical(
        lambda: gen.relabel(rnd.child(), gen.random_auto(rnd.child(), n, semantics))[0],
        ref.subset_classes, CLASSES_ROUNDS[semantics])
    expect = ref.group(block, lambda m: ref.names_of(auto.states, m))
    path = rnd.write(stem, gen.dumps(auto))
    return Call(stem, ["equiv", path, "--json"], 0,
                _check_classes(expect, rounds), _check_classes(expect, rounds + 1))


def _check_cts(expect, rounds, verdicts):
    def check(stdout):
        got = json.loads(stdout)
        classes = {c: frozenset(frozenset(cls) for cls in v)
                   for c, v in got["classes"].items()}
        if classes != expect:
            return "cts classes differ"
        if got["iterations"] != rounds:
            return f"iterations {got['iterations']} != {rounds}"
        if verdicts is not None:
            if got["per_condition"] != verdicts:
                return "per-condition verdicts differ"
            if got["equivalent"] != all(verdicts.values()):
                return "verdict differs"
        return None
    return check


def _cts_call(rnd: Round, stem: str, cts: gen.Cts, pair=None) -> Call:
    """`equiv` on a cts, optionally with `--pair` of two state indices
    (before relabelling).  The report carries the classes either way."""
    cts, pos = gen.relabel(rnd.child(), cts)
    blocks, rounds = ref.cts_classes(cts)
    expect = {c: ref.group(blocks[k], lambda x: cts.states[x])
              for k, c in enumerate(cts.conditions)}
    path = rnd.write(stem, gen.dumps(cts))
    argv = ["equiv", path, "--json"]
    verdicts = None
    if pair is not None:
        x, y = (pos[i] for i in pair)
        argv += ["--pair", cts.states[x], cts.states[y]]
        verdicts = {c: blocks[k][x] == blocks[k][y]
                    for k, c in enumerate(cts.conditions)}
    code = 0 if verdicts is None or all(verdicts.values()) else 1
    return Call(stem, argv, code, _check_cts(expect, rounds, verdicts),
                _check_cts(expect, rounds + 1, verdicts))


def _check_lwa_classes(expect):
    def check(stdout):
        got = frozenset(frozenset(c) for c in json.loads(stdout)["classes"])
        return None if got == expect else "lwa classes differ"
    return check


def _lwa_classes(rnd: Round, stem: str, n: int) -> Call:
    """Classes of unit vectors in a random block of n//2 states beside
    a copy of itself (plus one random state when n is odd)."""
    half = gen.random_lwa(rnd.child(), n // 2)
    lwa = gen.union(half, half)
    if n % 2:
        lwa = gen.union(lwa, gen.random_lwa(rnd.child(), 1))
    lwa, _ = gen.relabel(rnd.child(), lwa)
    expect = ref.lwa_classes(lwa, ref.krylov(lwa))
    path = rnd.write(stem, gen.dumps(lwa))
    return Call(stem, ["equiv", path, "--json"], 0, _check_lwa_classes(expect),
                _check_lwa_classes(expect | {frozenset({"?"})}))


def _refuted_pair(rnd: Round, n: int):
    """A random 3-condition cts and two of its states that some
    condition separates."""
    cts, (blocks, _) = _typical(lambda: gen.random_cts(rnd.child(), n),
                                ref.cts_classes, CTS_ROUNDS)
    rng = rnd.child()
    while True:
        x, y = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if any(b[x] != b[y] for b in blocks):
            return cts, (x, y)


def classes_round(rnd: Round) -> list[Call]:
    calls = []
    for n in (6, 7, 8, 9):
        calls.append(_auto_classes(rnd, f"nda{n}", n, None))
        for sem in gen.SEMANTICS:
            calls.append(_auto_classes(rnd, f"moore-{sem}{n}", n, sem))
    for n in (20, 40, 60):
        # `equiv --pair` on a cts still computes and reports every
        # class; refuted pairs are the workload's exit-1 calls
        calls.append(_cts_call(rnd, f"cts-chain{n}", gen.cts_chain(n), (0, n - 1)))
        calls.append(_cts_call(rnd, f"cts-random{n}", *_refuted_pair(rnd, n)))
    for n in (4, 5, 6):
        calls.append(_lwa_classes(rnd, f"lwa{n}", n))
    return calls


# ----------------------------------------------------------------- pairs

def _check_auto_pair(auto: gen.Auto, u: int, v: int, shortest):
    view = ref.SubsetView(auto)

    def check(stdout):
        got = json.loads(stdout)
        if got["equivalent"] != (shortest is None):
            return "verdict differs"
        if shortest is None:
            return None if "witness" not in got else "witness on an equivalent pair"
        word = ref.parse_word(auto.alphabet, got["witness"])
        if view.run(u, word) == view.run(v, word):
            return f"witness {got['witness']} does not distinguish"
        if len(word) != shortest:
            return f"witness length {len(word)} != {shortest}"
        return None
    return check


def _planted(shortest):
    return 1 if shortest is None else shortest + 1


def _auto_pair(rnd: Round, stem: str, left: gen.Auto, right: gen.Auto,
               known_shortest) -> Call:
    """Pair query between the start states (index 0) of two automata
    put side by side in one file.  `known_shortest` is the witness
    length by construction (None: equivalent); the reference BFS must
    agree with it."""
    auto, pos = gen.relabel(rnd.child(), gen.union(left, right))
    u, v = 1 << pos[0], 1 << pos[len(left.states)]
    shortest = ref.pair_bfs(auto, u, v)
    if shortest != known_shortest:
        raise AssertionError(f"{stem}: reference BFS gives {shortest}, "
                             f"construction {known_shortest}")
    path = rnd.write(stem, gen.dumps(auto))
    argv = ["equiv", path, "--pair", _subset_arg(auto.states, u),
            _subset_arg(auto.states, v), "--json"]
    return Call(stem, argv, 0 if shortest is None else 1,
                _check_auto_pair(auto, u, v, shortest),
                _check_auto_pair(auto, u, v, _planted(shortest)))


def _check_lwa_pair(lwa: gen.Lwa, p, q, shortest):
    def check(stdout):
        got = json.loads(stdout)
        if got["equivalent"] != (shortest is None):
            return "verdict differs"
        if shortest is None:
            return None
        word = ref.parse_word(lwa.alphabet, got["witness"])
        wp, wq = ref.weight(lwa, p, word), ref.weight(lwa, q, word)
        if wp == wq:
            return f"witness {got['witness']} does not distinguish"
        if got["weights"] != [gen.fmt(wp), gen.fmt(wq)]:
            return "reported weights differ"
        if len(word) != shortest:
            return f"witness length {len(word)} != {shortest}"
        return None
    return check


def _lwa_pair(rnd: Round, stem: str, lwa: gen.Lwa, x: int, y: int,
              known_shortest=False) -> Call:
    """Pair query between unit vectors e_x and e_y.  `known_shortest`
    is the witness length by construction, None for an equivalent
    pair, or False when only the reference knows it."""
    lwa, pos = gen.relabel(rnd.child(), lwa)
    x, y = pos[x], pos[y]
    n = len(lwa.states)
    p, q = ref.unit(n, x), ref.unit(n, y)
    shortest = ref.lwa_shortest(ref.krylov(lwa), p, q)
    if known_shortest is not False and shortest != known_shortest:
        raise AssertionError(f"{stem}: reference gives {shortest}, "
                             f"construction {known_shortest}")
    path = rnd.write(stem, gen.dumps(lwa))
    argv = ["equiv", path, "--pair", lwa.states[x], lwa.states[y], "--json"]
    return Call(stem, argv, 0 if shortest is None else 1,
                _check_lwa_pair(lwa, p, q, shortest),
                _check_lwa_pair(lwa, p, q, _planted(shortest)))


def pairs_round(rnd: Round) -> list[Call]:
    calls = []
    for k in (5, 6, 7, 8):
        calls.append(_auto_pair(rnd, f"nda-kth{k}-copy", gen.kth_from_end(k),
                                gen.kth_from_end(k), None))
        calls.append(_auto_pair(rnd, f"nda-kth{k}-vs{k - 1}", gen.kth_from_end(k),
                                gen.kth_from_end(k - 1), k - 1))
    for k, sem in zip((5, 6, 7), gen.SEMANTICS):
        calls.append(_auto_pair(rnd, f"moore-{sem}-kth{k}-copy",
                                gen.kth_from_end(k, sem), gen.kth_from_end(k, sem), None))
        # under trace semantics only the c-loop at the final state
        # tells k from k-1, one letter later than acceptance would
        calls.append(_auto_pair(rnd, f"moore-{sem}-kth{k}-vs{k - 1}",
                                gen.kth_from_end(k, sem), gen.kth_from_end(k - 1, sem),
                                k if sem == "trace" else k - 1))
    for n in LWA_PAIR_SIZES:
        half = n // 2
        block = gen.random_lwa(rnd.child(), half)
        x = rnd.child().randint(0, half - 1)
        if n in LWA_COPY_SIZES:
            calls.append(_lwa_pair(rnd, f"lwa-sum{n}-copy", gen.union(block, block),
                                   x, x + half, None))
        y = (x + 1) % half
        changed = gen.with_output(block, y, block.out[y] + 3)
        calls.append(_lwa_pair(rnd, f"lwa-sum{n}-output", gen.union(block, changed),
                               x, x + half))
    chain = gen.shift_chain(rnd.child(), CHAIN_LENGTH)
    calls.append(_lwa_pair(rnd, f"lwa-chain{CHAIN_LENGTH}-copy",
                           gen.union(chain, chain), 0, CHAIN_LENGTH + 1, None))
    # perturbing the first step puts the first witness (in the order the
    # search enumerates words) halfway through the words of full length
    calls.append(_lwa_pair(rnd, f"lwa-chain{CHAIN_LENGTH}-perturbed",
                           gen.union(chain, gen.perturb_chain(chain, 0)),
                           0, CHAIN_LENGTH + 1, CHAIN_LENGTH))
    for n in (20, 40, 60):
        h = n // 2
        if n < 60:
            calls.append(_cts_call(rnd, f"cts-paths{n}-equal",
                                   gen.cts_two_paths(n, False), (0, h)))
        calls.append(_cts_call(rnd, f"cts-paths{n}-short",
                               gen.cts_two_paths(n, True), (0, h)))
    return calls


# ---------------------------------------------------------------- checks

def _check_laws(corrupted_law):
    """Clean runs (None) must pass every law; a corrupted run must trip
    the law its corruption is named for.  Corruptions also trip laws
    derived from the broken map, which is expected."""
    def check(stdout):
        got = json.loads(stdout)
        laws = {law["law"]: law["passed"]
                for law in got["checks"][0]["detail"]["laws"]}
        if corrupted_law is None:
            return None if got["all_passed"] and all(laws.values()) else "a law failed"
        if laws.get(corrupted_law, True):
            tripped = sorted(k for k, ok in laws.items() if not ok)
            return f"corruption tripped {tripped}, not {corrupted_law}"
        return None
    return check


def _check_passed(expect: bool):
    def check(stdout):
        return None if json.loads(stdout)["all_passed"] == expect else "verdict differs"
    return check


def _check_quotient(expect):
    def check(stdout):
        got = json.loads(stdout)
        sets = lambda labels: frozenset(ref.parse_subset(s) for s in labels)
        a = got["automaton"]
        seen = {
            "states": sets(a["states"]),
            "transitions": frozenset((ref.parse_subset(t["from"]), t["action"],
                                      ref.parse_subset(t["to"]))
                                     for t in a["transitions"]),
            "accepting": ref.parse_subset(a["accepting"][0]),
            "witness": {x: sets(ws) for x, ws in got["witness"].items()},
            "redundant": sets(got["redundant"]),
            "iterations": got["iterations"],
        }
        for key, value in expect.items():
            if seen[key] != value:
                return f"quotient {key} differs"
        return None if got["homomorphism"] is True else "not a homomorphism"
    return check


def _quotient_call(rnd: Round, stem: str, n: int, identity: bool) -> Call:
    auto, _ = gen.relabel(rnd.child(), gen.random_auto(rnd.child(), n))
    expect = ref.quotient(auto, identity)
    path = rnd.write(stem, gen.dumps(auto))
    argv = ["quotient", path, "--json"] + (["--identity-eq"] if identity else [])
    return Call(stem, argv, 0, _check_quotient(expect),
                _check_quotient(dict(expect, iterations=expect["iterations"] + 1)))


def _file_adequacy(rnd: Round, stem: str, text: str) -> Call:
    """Adequacy holds for every input (the logics characterise the
    equivalences), so the check must pass."""
    path = rnd.write(stem, text)
    return Call(stem, ["check", path, "--adequacy", "--json"], 0,
                _check_passed(True), _check_passed(False))


def checks_round(rnd: Round) -> list[Call]:
    calls = []

    def seed() -> str:
        return str(rnd.child().next_u32())

    for family, table in CORRUPTIONS.items():
        calls.append(Call(f"laws-{family}",
                          ["check", "--random", family, "--laws", "--trials",
                           str(LAW_TRIALS[family]), "--seed", seed(), "--json"],
                          0, _check_laws(None), _check_laws(next(iter(table.values())))))
        for corruption, law in table.items():
            trials = DET_STEP_TRIALS if (family, corruption) == ("nda", "det-step") \
                else LAW_TRIALS[family]
            calls.append(Call(f"laws-{family}-{corruption}",
                              ["check", "--random", family, "--laws", "--trials",
                               str(trials), "--seed", seed(), "--corruption",
                               corruption, "--json"],
                              1, _check_laws(law), _check_laws(None)))
        calls.append(Call(f"adequacy-{family}",
                          ["check", "--adequacy", "--random", family, "--trials",
                           str(ADEQUACY_TRIALS), "--seed", seed(), "--json"],
                          0, _check_passed(True), _check_passed(False)))
    with open(os.path.join(ROOT, "data", "paper-nda.json")) as fh:
        doc = gen.rename_document(rnd.child(), json.load(fh))
    calls.append(_file_adequacy(rnd, "data-paper-nda",
                                json.dumps(doc, indent=1, sort_keys=True) + "\n"))
    for sem in gen.SEMANTICS:
        auto, _ = gen.relabel(rnd.child(),
                              gen.random_auto(rnd.child(), ADEQUACY_STATES, sem))
        calls.append(_file_adequacy(rnd, f"adequacy-moore-{sem}", gen.dumps(auto)))
    for n in (4, 5, 6):
        for identity in (False, True):
            calls.append(_quotient_call(
                rnd, f"quotient{n}" + ("-identity" if identity else ""), n, identity))
    return calls


WORKLOADS = {"classes": classes_round, "pairs": pairs_round, "checks": checks_round}
