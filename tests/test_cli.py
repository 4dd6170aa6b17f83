import json
import os
import pathlib
import subprocess
import sys

import pytest

from behaveq import logic
from behaveq.cli import load_system, main
from behaveq.rng import Lcg

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
GOLDEN = str(DATA / "paper-nda.json")
MOORE = str(DATA / "trace-vs-failure.json")


def run_cli(args, cwd=None, timeout=None):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"}
    return subprocess.run(
        [sys.executable, "-m", "behaveq.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout)


LWA_DOC = {
    "kind": "lwa",
    "states": ["x", "y"],
    "alphabet": ["a"],
    "output": {"x": "0", "y": "3"},
    "matrices": {"a": [["0", "2"], ["0", "0"]]},
}

CTS_DOC = {
    "kind": "cts",
    "conditions": ["k", "k2"],
    "states": ["u", "v"],
    "transitions": [{"cond": "k", "from": "u", "to": "v"}],
}


def test_schema_violation_messages():
    from behaveq.cli import SchemaError
    with pytest.raises(SchemaError):
        load_system({"kind": "nda", "states": ["x"]})
    with pytest.raises(SchemaError):
        load_system({"kind": "starship"})
    with pytest.raises(SchemaError):
        load_system({"kind": "nda", "states": ["x", "x"], "alphabet": ["a"],
                     "transitions": [], "accepting": []})


# ---------------------------------------------------------------- equiv

def test_equiv_pair_equivalent_exit_zero():
    res = run_cli(["equiv", GOLDEN, "--pair", "{x,y}", "{y}", "--json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["equivalent"] is True


def test_equiv_pair_inequivalent_exit_one_with_witness():
    res = run_cli(["equiv", GOLDEN, "--pair", "{x}", "{y}", "--json"])
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["equivalent"] is False
    assert payload["witness"] == "[b]↓"


def test_equiv_all_classes(tmp_path):
    res = run_cli(["equiv", GOLDEN, "--json"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    classes = {frozenset(c) for c in payload["classes"]}
    assert frozenset({"{y}", "{x,y}"}) in classes
    assert frozenset({"{y,z}", "{x,y,z}"}) in classes


def test_equiv_cts_all(tmp_path):
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(CTS_DOC))
    res = run_cli(["equiv", str(path), "--json"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["classes"]["k"] == [["u"], ["v"]]
    assert payload["classes"]["k2"] == [["u", "v"]]
    res = run_cli(["equiv", str(path), "--pair", "u", "v", "--json"])
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["per_condition"] == {"k": False, "k2": True}


def test_equiv_cts_pair_specs_name_one_state(tmp_path, capsys):
    # a side is a state or a one-state subset, read like an automaton's
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(CTS_DOC))
    for u in ("u", "{u}", " u", "{ u }"):
        code, out, _ = run_main(["equiv", str(path), "--pair", u, "v", "--json"], capsys)
        assert code == 1 and json.loads(out)["per_condition"] == {"k": False, "k2": True}
    for u, line in [("{}", "error: pair spec '{}' must name exactly one state"),
                    ("{u,v}", "error: pair spec '{u,v}' must name exactly one state"),
                    ("{u", "error: subset must be written '{x,y}', got '{u'"),
                    ("u}", "error: unknown label 'u}'"),
                    ("{u}}", "error: unknown label 'u}'")]:
        assert run_main(["equiv", str(path), "--pair", u, "v"], capsys) == (2, "", [line])


def test_equiv_lwa_pair(tmp_path):
    path = tmp_path / "lwa.json"
    path.write_text(json.dumps(LWA_DOC))
    res = run_cli(["equiv", str(path), "--pair", "x", "y", "--json"])
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["equivalent"] is False
    assert "witness" in payload
    res = run_cli(["equiv", str(path), "--pair", "[0,1]", "y", "--json"])
    assert res.returncode == 0


def test_equiv_moore_semantics_flag():
    res = run_cli(["equiv", MOORE, "--pair", "{p0}", "{q0}", "--json"])
    assert res.returncode == 0
    res = run_cli(["equiv", MOORE, "--pair", "{p0}", "{q0}",
                   "--semantics", "failure", "--json"])
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["witness"] == "[a]↓"


def count_relations(monkeypatch):
    """The sizes of the relations `BitRel.from_blocks` builds from now on."""
    from behaveq import BitRel
    honest, sizes = BitRel.from_blocks.__func__, []

    def counting(cls, blocks):
        sizes.append(len(blocks))
        return honest(cls, blocks)

    monkeypatch.setattr(BitRel, "from_blocks", classmethod(counting))
    return sizes


def test_equiv_never_builds_the_machine_relation(monkeypatch, capsys):
    # the relation of a subset machine takes ~N^2/16 bytes over N
    # positions; `equiv` reads only the blocks
    sizes = count_relations(monkeypatch)
    for argv in (["equiv", GOLDEN], ["equiv", GOLDEN, "--pair", "{x,y}", "{y}"],
                 ["equiv", GOLDEN, "--pair", "{x}", "{y}", "--json"],
                 ["equiv", MOORE, "--semantics", "failure"],
                 ["equiv", MOORE, "--pair", "{p0}", "{q0}", "--semantics", "ready"]):
        assert run_main(argv, capsys)[0] in (0, 1), argv
    # so does the quotient
    assert run_main(["quotient", GOLDEN], capsys)[0] == 0
    assert run_main(["quotient", GOLDEN, "--identity-eq"], capsys)[0] == 0
    assert sizes == []


def test_equiv_never_builds_the_cts_relation(monkeypatch, capsys, tmp_path):
    # a cts relation takes ~N^2/16 bytes over N condition/state
    # positions; `equiv` reads only the blocks, the adequacy check reads
    # the relation
    sizes = count_relations(monkeypatch)
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(CTS_DOC))
    for argv in (["equiv", str(path)], ["equiv", str(path), "--json"],
                 ["equiv", str(path), "--pair", "u", "v"]):
        assert run_main(argv, capsys)[0] in (0, 1), argv
    assert sizes == []
    assert run_main(["check", str(path), "--adequacy"], capsys)[0] == 0
    assert 4 in sizes


def kth_from_end_doc(k):
    """Words whose k-th letter from the end is a: k + 1 states, and 2^k
    subsets reachable from {s0}."""
    states = [f"s{i}" for i in range(k + 1)]
    trans = [("s0", "a", "s0"), ("s0", "b", "s0"), ("s0", "a", "s1")]
    trans += [(states[i], a, states[i + 1]) for i in range(1, k) for a in "ab"]
    return {"kind": "nda", "states": states, "alphabet": ["a", "b"],
            "transitions": [{"from": x, "action": a, "to": y} for x, a, y in trans],
            "accepting": [states[k]]}


def test_reachable_subset_machine_is_capped(monkeypatch, capsys, tmp_path):
    # 2^20 reachable subsets: refused once the queue passes 2^12, after
    # about 2 x 4096 successor computations
    from behaveq import Nda
    honest, posts = Nda.post, [0]

    def counting(self, mask, a):
        posts[0] += 1
        return honest(self, mask, a)

    monkeypatch.setattr(Nda, "post", counting)
    path = tmp_path / "kth20.json"
    path.write_text(json.dumps(kth_from_end_doc(20)))
    assert run_main(["equiv", str(path), "--pair", "{s0}", "{s0,s1}"], capsys) == (
        2, "", ["error: subset machine reaches 4098 positions, past the cap of 2^12"])
    assert 4096 < posts[0] <= 2 * 4097
    posts[0] = 0
    assert run_main(["equiv", str(path), "--pair", "{s0}", "{s0,s1}", "--cap", "4"],
                    capsys) == (
        2, "", ["error: subset machine reaches 18 positions, past the cap of 2^4"])
    assert 16 < posts[0] <= 2 * 17


def test_cap_above_the_default_computes_the_reachable_machine(tmp_path, capsys):
    path = tmp_path / "kth13.json"
    path.write_text(json.dumps(kth_from_end_doc(13)))
    pair = ["equiv", str(path), "--pair", "{s0}", "{s0,s1}", "--json"]
    assert run_main(pair, capsys)[0] == 2
    code, out, _ = run_main([*pair, "--cap", "17"], capsys)
    payload = json.loads(out)
    # {s0,s1} reaches the accepting s13 after twelve letters, {s0} after 13
    assert code == 1 and payload["witness"] == "[a]" * 12 + "↓"
    assert len(payload["classes"]) == 1 << 13


def test_determinize_initials_pass_the_cap(tmp_path, capsys):
    path = tmp_path / "kth5.json"
    path.write_text(json.dumps(kth_from_end_doc(5)))
    argv = ["determinize", str(path), "--initials", "{s0}", "--json"]
    assert run_main([*argv, "--cap", "4"], capsys) == (
        2, "", ["error: subset machine reaches 18 positions, past the cap of 2^4"])
    code, out, _ = run_main([*argv, "--cap", "5"], capsys)
    assert code == 0 and len(json.loads(out)["states"]) == 32


@pytest.mark.parametrize("command", ["equiv", "determinize"])
@pytest.mark.parametrize("cap", ["21", "1000000"])
def test_cap_above_the_ceiling_is_refused(capsys, command, cap):
    # refused before the file is read, so nothing of 2^cap is built
    assert run_main([command, GOLDEN, "--cap", cap], capsys) == (
        2, "", [f"error: --cap {cap} exceeds the ceiling of 20"])


def test_equiv_cts_chain_at_two_thousand_states(tmp_path, capsys):
    # one condition, the path q0 -> ... -> q1999: each round splits off
    # one more state, counted from the end, and a last round confirms
    n = 2000
    states = [f"q{i}" for i in range(n)]
    doc = {"kind": "cts", "conditions": ["k"], "states": states,
           "transitions": [{"cond": "k", "from": states[x], "to": states[x + 1]}
                           for x in range(n - 1)]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_main(["equiv", str(path), "--json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["iterations"] == n
    assert payload["classes"]["k"] == [[x] for x in states]


# -------------------------------------------------------------- quotient

def test_quotient_golden():
    res = run_cli(["quotient", GOLDEN, "--json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert len(payload["automaton"]["states"]) == 6
    assert payload["homomorphism"] is True
    assert payload["automaton"]["accepting"] == ["{z}"]
    assert set(payload["witness"]["x"]) == {"{x,y}", "{x,y,z}"}
    assert set(payload["witness"]["y"]) == {"{y}", "{x,y}", "{y,z}", "{x,y,z}"}
    assert set(payload["redundant"]) == {"{}", "{y,z}", "{x,y,z}"}


def test_quotient_identity_eq_full_dfa():
    res = run_cli(["quotient", GOLDEN, "--identity-eq", "--json"])
    payload = json.loads(res.stdout)
    assert len(payload["automaton"]["states"]) == 8
    assert payload["homomorphism"] is True


def test_quotient_mutated_accepting(tmp_path):
    doc = json.load(open(GOLDEN))
    doc["accepting"] = []
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    res = run_cli(["quotient", str(path), "--json"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["homomorphism"] is True
    assert len(payload["automaton"]["states"]) == 1


def test_quotient_rejects_non_nda(tmp_path):
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(CTS_DOC))
    res = run_cli(["quotient", str(path)])
    assert res.returncode == 2


# ----------------------------------------------------------------- check

def test_check_laws_random():
    res = run_cli(["check", "--random", "nda", "--laws",
                   "--trials", "5", "--seed", "3", "--json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["all_passed"] is True


def test_check_laws_corruption_fails():
    res = run_cli(["check", "--random", "nda", "--laws", "--trials", "5",
                   "--seed", "3", "--corruption", "lift", "--json"])
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["all_passed"] is False


def test_check_adequacy_file():
    res = run_cli(["check", GOLDEN, "--adequacy", "--json"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["all_passed"] is True


def test_check_adequacy_on_the_16_state_cts_chain(capsys):
    # the largest conditional system the formula cap admits; boxing
    # every union of atoms kept this check busy for about ten seconds
    code, out, _ = run_main(["check", str(DATA / "cts-chain16.json"),
                             "--adequacy", "--json"], capsys)
    detail = json.loads(out)["checks"][0]["detail"]
    assert code == 0 and detail["depth_saturated"] is True
    assert len(detail["logical_classes"]) == 16 and detail["counterexamples"] == []


def test_check_requires_mode():
    res = run_cli(["check", GOLDEN])
    assert res.returncode == 2


@pytest.mark.parametrize("argv", [
    ["check", GOLDEN, "--adequacy", "--corruption", "lift"],
    ["check", "--random", "cts", "--adequacy", "--corruption", "lift"],
])
def test_check_corruption_without_laws_exits_two(capsys, argv):
    # a corruption is injected into the law suite only; adequacy alone
    # would drop it and pass
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --corruption needs --laws\n"


def test_check_refuses_a_corruption_of_another_family_before_any_suite(
        monkeypatch, capsys):
    # det-step names an nda and an lwa corruption but no cts one; the
    # three families run in that order, so no suite may run first
    from behaveq import cli
    honest, calls = cli.check_lifting_laws, []

    def counting(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(cli, "check_lifting_laws", counting)
    assert main(["check", "--laws", "--corruption", "det-step"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unknown corruption 'det-step' for cts\n"
    assert calls == []


@pytest.mark.parametrize("argv,line", [
    (["check", GOLDEN, "--laws"], "error: FILE is read only by --adequacy"),
    (["check", GOLDEN, "--adequacy", "--random", "cts"],
     "error: pass FILE or --random, not both"),
])
def test_check_refuses_a_file_it_would_not_read(capsys, argv, line):
    assert run_main(argv, capsys) == (2, "", [line])


def test_check_adequacy_without_file_or_random_runs_every_family(capsys):
    code, out, err = run_main(["check", "--adequacy", "--trials", "2"], capsys)
    assert (code, err) == (0, [])
    assert out.splitlines() == ["adequacy:nda: pass", "adequacy:lwa: pass",
                                "adequacy:cts: pass", "all: pass"]


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("mode", ["--laws", "--adequacy"])
def test_check_random_without_trials_exits_two(capsys, mode, trials):
    assert main(["check", "--random", "nda", mode, "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: trials must be at least 1\n"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_check_file_without_trials_exits_two(capsys, trials):
    # the file's adequacy check runs no trials, but --trials is checked
    # in every mode
    code, out, err = run_main(
        ["check", GOLDEN, "--adequacy", "--trials", trials, "--json"], capsys)
    assert (code, out, err) == (2, "", ["error: trials must be at least 1"])


@pytest.mark.parametrize("argv,drawn", [
    (["check", GOLDEN, "--adequacy"], False),
    (["check", GOLDEN, "--adequacy", "--laws"], True),
    (["check", "--random", "nda", "--adequacy"], True),
    (["check", "--random", "lwa", "--laws"], True),
])
def test_check_report_echoes_seed_and_trials_only_when_it_draws(
        capsys, argv, drawn):
    # the file's adequacy check draws nothing, so its report names no seed
    code, out, err = run_main(
        [*argv, "--seed", "9", "--trials", "2", "--json"], capsys)
    assert (code, err) == (0, [])
    payload = json.loads(out)
    assert (payload.get("seed"), payload.get("trials")) == (
        (9, 2) if drawn else (None, None))


def test_main_builds_the_argument_parser_once(capsys):
    from behaveq import cli
    cli._build_parser.cache_clear()
    assert run_main(["equiv", GOLDEN], capsys)[0] == 0
    assert run_main(["eval", GOLDEN, "--subset", "{x}", "--word", "a"],
                    capsys)[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("semantics", ["trace", "failure", "ready"])
def test_check_adequacy_on_all_subsets_of_trace_vs_failure(tmp_path, semantics):
    # 512 subset positions in 9 classes under trace semantics; comparing
    # each position with representatives of the classes found so far,
    # and skipping positions and pairs that earlier searches proved
    # equivalent, keeps this well inside the timeout, where all 262,144
    # ordered pairs took ~10 s
    path = tmp_path / "lts.json"
    path.write_text(json.dumps(dict(json.load(open(MOORE)), semantics=semantics)))
    res = run_cli(["check", str(path), "--adequacy", "--json"], timeout=5)
    assert res.returncode == 0, res.stderr
    detail = json.loads(res.stdout)["checks"][0]["detail"]
    assert len(sum(detail["logical_classes"], [])) == 512
    assert detail["logical_classes"] == detail["behavioural_classes"]


def random_subset_doc(seed, n, kind, semantics=None, one_in=4):
    """A seeded automaton or Moore system on n states over {a, b}, each
    possible edge present with probability 1/one_in."""
    rng = Lcg(seed)
    states = [f"s{i}" for i in range(n)]
    doc = {"kind": kind, "states": states, "alphabet": ["a", "b"],
           "transitions": [{"from": x, "action": a, "to": y}
                           for x in states for a in "ab" for y in states
                           if rng.randint(1, one_in) == 1]}
    if kind == "nda":
        doc["accepting"] = [x for x in states if rng.bit()]
    else:
        doc["semantics"] = semantics
    return doc


# Moore systems get fewer edges, so that some states refuse an action
# and the failure and ready outputs tell subsets apart
@pytest.mark.parametrize("kind, n, semantics, one_in", [
    ("nda", 12, None, 4), ("moore", 10, "trace", 8), ("moore", 10, "failure", 8),
    ("moore", 10, "ready", 8)])
def test_check_adequacy_on_the_full_powerset_at_the_cap(tmp_path, capsys, kind, n,
                                                        semantics, one_in):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(random_subset_doc(2012 + n, n, kind, semantics, one_in)))
    code, out, err = run_main(["check", str(path), "--adequacy", "--json"], capsys)
    assert (code, err) == (0, [])
    detail = json.loads(out)["checks"][0]["detail"]
    assert len(sum(detail["logical_classes"], [])) == 1 << n
    assert detail["logical_classes"] == detail["behavioural_classes"]
    assert len(detail["logical_classes"]) > 5


def test_check_adequacy_at_the_cap_makes_one_search_per_position(
        tmp_path, capsys, monkeypatch):
    # 4,096 subset positions in 336 classes.  Comparing each position
    # with the representatives of its observation group took 629,994
    # searches; the tree of separating words makes at most one per
    # position (4,088 measured)
    searches, honest = 0, logic.moore_pair_oracle

    def counted(*args):
        nonlocal searches
        searches += 1
        return honest(*args)
    monkeypatch.setattr(logic, "moore_pair_oracle", counted)
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(random_subset_doc(2024, 12, "nda", one_in=12)))
    code, out, err = run_main(["check", str(path), "--adequacy", "--json"], capsys)
    assert (code, err) == (0, [])
    detail = json.loads(out)["checks"][0]["detail"]
    assert len(sum(detail["logical_classes"], [])) == 1 << 12
    assert len(detail["logical_classes"]) == 336
    assert detail["logical_classes"] == detail["behavioural_classes"]
    assert 0 < searches <= 1 << 12, searches


def test_check_adequacy_on_a_12_state_lwa_copy_pair(tmp_path):
    # a seeded 6-state block next to a copy of itself, so that every state
    # has an equivalent partner; word tables to 12 letters took minutes
    rng = Lcg(2010)
    half, names = 6, [f"q{i}" for i in range(12)]

    def weights():
        return [str(rng.randint(-2, 2)) for _ in range(half)]
    zeros = ["0"] * half
    blocks = {a: [weights() for _ in range(half)] for a in ("a", "b")}
    out = weights()
    doc = {"kind": "lwa", "states": names, "alphabet": ["a", "b"],
           "output": dict(zip(names, out + out)),
           "matrices": {a: [row + zeros for row in rows]
                        + [zeros + row for row in rows]
                        for a, rows in blocks.items()}}
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(doc))
    res = run_cli(["check", str(path), "--adequacy", "--json"], timeout=30)
    assert res.returncode == 0, res.stderr
    detail = json.loads(res.stdout)["checks"][0]["detail"]
    assert detail["logical_classes"] == detail["behavioural_classes"]
    block = {x: i for i, cls in enumerate(detail["logical_classes"]) for x in cls}
    assert all(block[f"q{x}"] == block[f"q{x + half}"] for x in range(half))


# ------------------------------------------------------------------ eval

def test_eval_word_and_table():
    res = run_cli(["eval", GOLDEN, "--subset", "{x}", "--word", "a", "--json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["accepted"] is True
    res = run_cli(["eval", GOLDEN, "--subset", "{x}", "--maxlen", "1", "--json"])
    payload = json.loads(res.stdout)
    assert payload["theory"]["↓"] is False
    assert payload["theory"]["[a]↓"] is True


def test_eval_table_above_the_cap_exits_two():
    # 2^41 words: refused before the table outgrows its cap
    res = run_cli(["eval", GOLDEN, "--subset", "{x}", "--maxlen", "40"],
                  timeout=30)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


@pytest.mark.parametrize("kind,flag", [("nda", "--subset"), ("lwa", "--vector"),
                                       ("moore", "--subset")])
def test_eval_without_start_exits_two(tmp_path, capsys, kind, flag):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(CONTRACT_DOCS[kind]))
    for extra in ([], ["--word", "a"]):
        assert main(["eval", str(path), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: evaluation needs a start: --state or {flag}\n"


def test_eval_cts_formula(tmp_path):
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(CTS_DOC))
    res = run_cli(["eval", str(path), "--formula", "!([] !tt)", "--json"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["satisfied"] == [{"cond": "k", "state": "u"}]


def test_eval_lwa_word(tmp_path):
    path = tmp_path / "lwa.json"
    path.write_text(json.dumps(LWA_DOC))
    res = run_cli(["eval", str(path), "--state", "x", "--word", "a", "--json"])
    payload = json.loads(res.stdout)
    assert payload["weight"] == "6"


def test_eval_moore_word_and_cts_depth(tmp_path):
    res = run_cli(["eval", MOORE, "--subset", "{p0}", "--word", "a", "--json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["output"] == "1"
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(CTS_DOC))
    res = run_cli(["eval", str(path), "--depth", "1", "--json"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    rendered = {e["formula"] for e in payload["formulas"]}
    assert "tt" in rendered and any("□" in f for f in rendered)


CTS_TWO_CONDITIONS = {
    "kind": "cts",
    "conditions": ["k", "l"],
    "states": ["a", "b", "c"],
    "transitions": [{"cond": "k", "from": "a", "to": "b"},
                    {"cond": "k", "from": "b", "to": "c"},
                    {"cond": "k", "from": "c", "to": "c"},
                    {"cond": "l", "from": "a", "to": "a"},
                    {"cond": "l", "from": "a", "to": "c"},
                    {"cond": "l", "from": "b", "to": "a"}],
}


@pytest.mark.parametrize("doc", [CTS_DOC, CTS_TWO_CONDITIONS])
def test_eval_cts_depth_formulas_hold_where_printed(tmp_path, capsys, doc):
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_main(["eval", str(path), "--depth", "3", "--json"], capsys)
    assert code == 0
    system = load_system(doc)
    labels = [f"{k}:{x}" for k in doc["conditions"] for x in doc["states"]]
    formulas = json.loads(out)["formulas"]
    assert len(formulas) >= 2
    for entry in formulas:
        sat = logic.eval_cts(system, logic.parse_cts_formula(entry["formula"]))
        assert entry["satisfied"] == [label for i, label in enumerate(labels)
                                      if sat >> i & 1], entry


@pytest.mark.parametrize("doc", [CTS_DOC, CTS_TWO_CONDITIONS])
def test_eval_cts_depth_past_saturation_prints_the_saturated_list(
        tmp_path, capsys, doc):
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(doc))
    outputs = [run_main(["eval", str(path), "--depth", str(d)], capsys)
               for d in range(8)]
    saturated = next(d for d in range(7) if outputs[d] == outputs[d + 1])
    assert saturated > 0 and outputs[saturated][0] == 0
    assert run_main(["eval", str(path), "--depth", "1000000000"],
                    capsys) == outputs[saturated]


def test_eval_negative_depth_exits_two(tmp_path, capsys):
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(CTS_DOC))
    code, out, err = run_main(["eval", str(path), "--depth", "-1"], capsys)
    assert (code, out, err) == (2, "", ["error: depth must be nonnegative"])


def test_eval_long_moore_word_reads_only_that_word():
    # one word of 64 letters; a table of all 3^64 words would never end
    res = run_cli(["eval", MOORE, "--subset", "{p0}", "--word", "[a]" * 64,
                   "--json"], timeout=30)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["word"] == "[a]" * 64 + "↓"
    assert payload["output"] == "0"


def test_eval_word_on_nda_with_large_subset_machine(tmp_path):
    # "a at the 18th position from the end": the subset machine reachable
    # from {q0} has 2^18 states, and evaluating one word needs none of them
    k = 19
    names = [f"q{i}" for i in range(k)]
    transitions = [{"from": "q0", "action": c, "to": "q0"} for c in "ab"]
    transitions.append({"from": "q0", "action": "a", "to": "q1"})
    transitions += [{"from": names[i], "action": c, "to": names[i + 1]}
                    for i in range(1, k - 1) for c in "ab"]
    path = tmp_path / "nda.json"
    path.write_text(json.dumps({
        "kind": "nda", "states": names, "alphabet": ["a", "b"],
        "transitions": transitions, "accepting": [names[-1]]}))
    res = run_cli(["eval", str(path), "--state", "q0", "--word", "ab",
                   "--json"], timeout=30)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["accepted"] is False
    word = "a" + "b" * (k - 2)
    res = run_cli(["eval", str(path), "--state", "q0", "--word", word,
                   "--json"], timeout=30)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["accepted"] is True


@pytest.mark.parametrize("argv", [
    ["equiv", GOLDEN, "--all"],
    ["equiv", GOLDEN, "--text"],
    ["quotient", GOLDEN, "--text"],
    ["quotient", GOLDEN, "--cap", "1"],
    ["check", GOLDEN, "--adequacy", "--text"],
    ["check", GOLDEN, "--adequacy", "--cap", "1"],
    ["check", "--kind", "nda", "--adequacy"],
    ["eval", GOLDEN, "--state", "x", "--text"],
    ["eval", GOLDEN, "--state", "x", "--cap", "1"],
    ["determinize", GOLDEN, "--text"],
])
def test_removed_flags_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [],
    ["check", "--random"],
    ["check", "--bogus"],
    ["check", "--random", "moore", "--laws"],
    ["equiv", GOLDEN, "--cap", "x"],
    ["equiv"],
    ["quotient", GOLDEN, "--bogus"],
    ["eval", GOLDEN, "--maxlen", "two"],
    ["determinize", GOLDEN, "--direction", "sideways"],
])
def test_argument_errors_are_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# ----------------------------------------------------------- determinize

def test_backward_determinize_honours_initials():
    # from {z} the backward dynamics reach exactly the sets pre_w({z})
    res = run_cli(["determinize", GOLDEN, "--direction", "backward",
                   "--initials", "{z}", "--json"])
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    want = ["{z}", "{x,y}", "{y}", "{}"]
    assert payload["states"] == want
    assert {label for t in payload["transitions"]
            for label in (t["from"], t["to"])} == set(want)
    assert payload["accepting"] == "{z}"
    assert "outputs" not in payload


def test_backward_determinize_over_cap_exits_two():
    res = run_cli(["determinize", GOLDEN, "--direction", "backward", "--cap", "2"])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["error: default initials need 3 <= cap 2"]


def test_determinize_forward_and_backward():
    res = run_cli(["determinize", GOLDEN, "--initials", "{x,y}", "--json"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert "{x,y}" in payload["states"]
    assert payload["outputs"]["{z}"] is True
    res = run_cli(["determinize", GOLDEN, "--direction", "backward", "--json"])
    payload = json.loads(res.stdout)
    assert {"from": "{z}", "action": "a", "to": "{x,y}"} in payload["transitions"]
    assert payload["accepting"] == "{z}"


# ----------------------------------------------------------- determinism

def test_reports_are_byte_identical_across_runs():
    args = ["check", "--random", "cts", "--laws", "--adequacy",
            "--trials", "4", "--seed", "99", "--json"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_input_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert_input_error(run_cli(["equiv", str(bad)]))
    missing = tmp_path / "missing.json"
    assert_input_error(run_cli(["equiv", str(missing)]))


def assert_input_error(res):
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


def test_lwa_zero_denominator_weight_exit_two(tmp_path):
    doc = dict(LWA_DOC, matrices={"a": [["0", "1/0"], ["0", "0"]]})
    path = tmp_path / "lwa.json"
    path.write_text(json.dumps(doc))
    assert_input_error(run_cli(["equiv", str(path)]))
    path.write_text(json.dumps(LWA_DOC))
    assert_input_error(run_cli(["equiv", str(path), "--pair", "[1/0,0]", "x"]))


def test_non_list_transitions_exit_two(tmp_path):
    path = tmp_path / "nda.json"
    path.write_text(json.dumps(dict(json.load(open(GOLDEN)), transitions=5)))
    assert_input_error(run_cli(["equiv", str(path)]))


DEEP_LIST = "[" * 100_000 + "]" * 100_000


def run_main(argv, capsys):
    """main(argv) in-process: (exit code, stdout, stderr lines)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()


@pytest.mark.parametrize("argv", [["equiv"], ["eval", "--formula", "tt"],
                                  ["check", "--adequacy"]])
def test_deeply_nested_json_exit_two(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_LIST)
    code, _, err = run_main([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("argv", [["equiv"], ["check", "--adequacy"],
                                  ["determinize"]])
@pytest.mark.parametrize("text", ["[1]", '"x"', "5"])
def test_document_that_is_not_an_object_exit_two(tmp_path, capsys, argv, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_main([argv[0], str(path), *argv[1:]], capsys)
    assert (code, out) == (2, "")
    assert err == ["error: top-level document must be an object"], err


def test_json_decimal_weight_read_exactly(tmp_path, capsys):
    # a JSON number, not a string: a double would round it to 1/10
    path = tmp_path / "lwa.json"
    path.write_text(json.dumps(LWA_DOC).replace(
        '"y": "3"', '"y": 0.10000000000000000001'))
    code, out, _ = run_main(
        ["eval", str(path), "--state", "y", "--word", "", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["weight"] == (
        "10000000000000000001/100000000000000000000")
    path.write_text(json.dumps(LWA_DOC).replace('"y": "3"', '"y": 1e10000'))
    code, _, err = run_main(["equiv", str(path)], capsys)
    assert code == 2 and len(err) == 1, err


MOORE_DOC = {
    "kind": "moore",
    "states": ["p", "q"],
    "alphabet": ["a", "b"],
    "transitions": [{"from": "p", "action": "a", "to": "q"}],
    "semantics": "failure",
}

CONTRACT_DOCS = {"nda": json.load(open(GOLDEN)), "lwa": LWA_DOC,
                 "cts": CTS_DOC, "moore": MOORE_DOC}

# JSON texts put in place of one top-level field
ODD_VALUES = {"null": "null", "true": "true", "0": "0", "-1": "-1",
              "1.5": "1.5", "1e400": "1e400", "empty-string": '""',
              "ratio-1/0": '"1/0"', "empty-list": "[]", "list-of-null": "[null]",
              "empty-object": "{}", "deep-list": DEEP_LIST}


@pytest.mark.parametrize("kind,field,odd", [
    (kind, field, odd) for kind, doc in CONTRACT_DOCS.items()
    for field in doc for odd in ODD_VALUES])
def test_equiv_exit_code_contract(tmp_path, capsys, kind, field, odd):
    # exit 0 = computed, 1 = inequivalent, 2 = input error with one line
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(CONTRACT_DOCS[kind], **{field: "@odd"}))
                    .replace('"@odd"', ODD_VALUES[odd]))
    code, out, err = run_main(["equiv", str(path), "--json"], capsys)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("error: "), err
    if code == 1:
        assert json.loads(out)["equivalent"] is False


# a moore document with its own lattice instead of a semantics
LATTICE_DOC = {
    "kind": "moore",
    "states": ["p", "q"],
    "alphabet": ["a", "b"],
    "transitions": [{"from": "p", "action": "a", "to": "q"}],
    "lattice": {"elements": ["lo", "hi"], "join": [["lo", "hi"], ["hi", "hi"]],
                "bottom": "lo"},
    "outputs": {"p": "hi", "q": "lo"},
}

# the same document also naming a semantics, which it would not use
BOTH_KEYS_DOC = dict(LATTICE_DOC, semantics="failure")


def test_moore_lattice_with_a_semantics_is_refused(tmp_path, capsys):
    # the lattice decides the classes, so a semantics beside it would
    # only be reported as an assumption that was never made
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(BOTH_KEYS_DOC))
    for argv in (["equiv", str(path)], ["check", str(path), "--adequacy"]):
        code, out, err = run_main([*argv, "--json"], capsys)
        assert (code, out) == (2, "") and len(err) == 1, (argv, err)
        assert err[0].startswith("error: ") and "not both" in err[0]
    path.write_text(json.dumps(LATTICE_DOC))
    code, out, err = run_main(["equiv", str(path), "--semantics", "failure"], capsys)
    assert (code, out) == (2, "") and len(err) == 1
    assert err[0].startswith("error: ") and "--semantics" in err[0]
    code, out, _ = run_main(["equiv", str(path), "--json"], capsys)
    assert code == 0 and "assumptions" not in json.loads(out)


def test_moore_lattice_laws_are_checked_once_per_load(tmp_path, capsys,
                                                      monkeypatch):
    # the O(L^3) law check runs in `Semilattice.create`, and the system
    # built from the checked lattice does not run it again
    from behaveq.core import Semilattice
    honest, calls = Semilattice.diagnostics, []

    def counting(self):
        calls.append(self.names)
        return honest(self)

    monkeypatch.setattr(Semilattice, "diagnostics", counting)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(LATTICE_DOC))
    code, out, _ = run_main(["equiv", str(path), "--json"], capsys)
    assert code == 0 and json.loads(out)["classes"]
    assert calls == [("lo", "hi")]


def test_moore_lattice_is_reported_before_its_outputs(tmp_path, capsys):
    bad_join = dict(LATTICE_DOC["lattice"], join=[["hi", "hi"], ["hi", "hi"]])
    bad_outputs = {"p": "mid", "q": "lo"}
    path = tmp_path / "doc.json"
    for doc, line in (
            (dict(LATTICE_DOC, lattice=bad_join, outputs=bad_outputs),
             "error: bad lattice: join not idempotent at lo"),
            (dict(LATTICE_DOC, lattice=bad_join),
             "error: bad lattice: join not idempotent at lo"),
            (dict(LATTICE_DOC, outputs=bad_outputs), "error: bad outputs: 'mid'")):
        path.write_text(json.dumps(doc))
        assert run_main(["equiv", str(path)], capsys) == (2, "", [line])

# --pair specs: a state, a subset, two vectors, the empty subset, an
# unknown label, a condition:state position, the empty vector and two
# subsets with one brace missing
PAIR_SPECS = ("@first", "{@first}", "[1,0]", "[0,1]", "{}", "zz", "k:u", "[]",
              "{@first", "@first}")
MALFORMED_SPECS = ("{@first", "@first}")

PAIR_FLAGS = [semantics + cap
              for semantics in ([], ["--semantics", "failure"])
              for cap in ([], ["--cap", "0"], ["--cap", "-1"], ["--cap", "1"])]


@pytest.mark.parametrize("kind", [*CONTRACT_DOCS, "moore-lattice"])
def test_equiv_pair_flag_combinations_exit_code_contract(tmp_path, capsys, kind):
    doc = CONTRACT_DOCS.get(kind, LATTICE_DOC)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    first = doc["states"][0]
    for u in PAIR_SPECS:
        for v in PAIR_SPECS:
            malformed = u in MALFORMED_SPECS or v in MALFORMED_SPECS
            for flags in PAIR_FLAGS:
                argv = ["equiv", str(path), "--pair", u.replace("@first", first),
                        v.replace("@first", first), *flags, "--json"]
                code, out, err = run_main(argv, capsys)
                assert code in ((2,) if malformed else (0, 1, 2)), argv
                if code == 2:
                    assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
                else:
                    assert json.loads(out)["equivalent"] is (code == 0), argv


# transition records put in place of the first one
ODD_TRANSITIONS = {
    "missing-to": {"from": "@first", "action": "a"},
    "unknown-action": {"from": "@first", "action": "zz", "to": "@first"},
    "number-label": {"from": 0, "action": "a", "to": "@first"},
}

SUBSET_COMMANDS = {
    "determinize": ["determinize"],
    "backward": ["determinize", "--direction", "backward"],
    "quotient": ["quotient"],
    "eval": ["eval", "--state", "@first", "--maxlen", "2"],
}


# eval on weighted and conditional inputs: vectors of odd length or with
# odd entries, some reaching the weighted products, and formulas and
# depths for the conditional logic
EVAL_COMMANDS = {
    "lwa": {
        "vector": ["eval", "--vector", "[1/2,-3]", "--maxlen", "2"],
        "vector-word": ["eval", "--vector", "[1,0]", "--word", "aa"],
        "vector-long": ["eval", "--vector", "[1,0,0]"],
        "vector-empty": ["eval", "--vector", "[]"],
        "vector-1/0": ["eval", "--vector", "[1/0]"],
        "vector-1/0-pair": ["eval", "--vector", "[1/0,0]", "--word", "a"],
        "vector-1e999": ["eval", "--vector", "[1e999]"],
        "vector-1e999-pair": ["eval", "--vector", "[1e999,-1/3]", "--word", "a"],
    },
    "cts": {
        "formula": ["eval", "--formula", "[]tt & !tt"],
        "formula-unparsed": ["eval", "--formula", "[]("],
        "depth": ["eval", "--depth", "2"],
        "depth-negative": ["eval", "--depth", "-1"],
    },
}


SUBSET_DOCS = {**CONTRACT_DOCS, "moore-lattice": LATTICE_DOC,
               "moore-both": BOTH_KEYS_DOC}


@pytest.mark.parametrize("kind,command", [
    (kind, command) for kind in SUBSET_DOCS
    for command in (*SUBSET_COMMANDS, *EVAL_COMMANDS.get(kind, ()))])
def test_subset_commands_exit_code_contract(tmp_path, capsys, kind, command):
    # exit 0 = computed, 2 = input error with one line; never 1.  A
    # document with both a lattice and a semantics is always refused, and
    # the lattice document as written renders its lattice's values
    doc = SUBSET_DOCS[kind]
    first = doc["states"][0]
    texts = {"as-written": json.dumps(doc)}
    texts.update({f"{field}={odd}": json.dumps(dict(doc, **{field: "@odd"}))
                  .replace('"@odd"', text)
                  for field in doc for odd, text in ODD_VALUES.items()})
    if kind != "lwa":
        for name, record in ODD_TRANSITIONS.items():
            texts[name] = json.dumps(
                dict(doc, transitions=[record, *doc["transitions"][1:]])
            ).replace("@first", first)
    path = tmp_path / "doc.json"
    argv = {**SUBSET_COMMANDS, **EVAL_COMMANDS.get(kind, {})}[command]
    argv = [first if arg == "@first" else arg for arg in argv]
    for name, text in texts.items():
        path.write_text(text)
        code, out, err = run_main([argv[0], str(path), *argv[1:], "--json"], capsys)
        assert code in ((2,) if kind == "moore-both" else (0, 2)), name
        if kind == "moore-lattice" and name == "as-written" and command in (
                "determinize", "eval"):
            assert code == 0 and '"hi"' in out, (name, err)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: "), (name, err)


@pytest.mark.parametrize("command", ["determinize", "backward", "quotient"])
@pytest.mark.parametrize("kind", ["lwa", "cts"])
def test_subset_commands_refuse_weighted_and_conditional_inputs(
        tmp_path, capsys, kind, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(CONTRACT_DOCS[kind]))
    argv = SUBSET_COMMANDS[command]
    code, out, err = run_main([argv[0], str(path), *argv[1:]], capsys)
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: ") and "expects" in err[0]


@pytest.mark.parametrize("argv", [
    ["check"],
    ["check", "--random", "nda"],
    ["check", "--laws", "--trials", "-1"],
    ["check", "--random", "lwa", "--laws", "--corruption", "meet"],
    ["check", "--random", "nda", "--adequacy", "--corruption", "lift"],
    ["check", "--laws", "--adequacy", "--trials", "2"],
    ["check", "--random", "nda", "--laws", "--trials", "2",
     "--seed", "12345678901234567890123"],
    ["check", "--random", "cts", "--laws", "--trials", "2",
     "--corruption", "lift"],
    ["check", GOLDEN, "--laws"],
    ["check", GOLDEN, "--adequacy", "--random", "cts"],
    ["check", GOLDEN, "--laws", "--adequacy", "--random", "nda"],
    ["check", GOLDEN, "--adequacy", "--trials", "-5"],
])
def test_check_exit_code_contract(capsys, argv):
    # exit 0 = all passed, 1 = a check failed, 2 = input error with one line
    code, out, err = run_main([*argv, "--json"], capsys)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("error: "), err
    if code == 1:
        assert json.loads(out)["all_passed"] is False


def test_deeply_nested_formula_exit_two(tmp_path):
    path = tmp_path / "cts.json"
    path.write_text(json.dumps(CTS_DOC))
    assert_input_error(
        run_cli(["eval", str(path), "--formula", "!" * 5000 + "tt"]))


def test_unknown_label_error_shows_json_number_as_written(tmp_path, capsys):
    path = tmp_path / "nda.json"
    path.write_text(json.dumps(dict(json.load(open(GOLDEN)), accepting=["@"]))
                    .replace('"@"', "1.5"))
    code, _, err = run_main(["equiv", str(path)], capsys)
    assert code == 2 and err == ["error: unknown label 1.5"], err


def test_rational_error_shows_json_number_as_written(tmp_path, capsys):
    path = tmp_path / "lwa.json"
    path.write_text(json.dumps(LWA_DOC).replace('"y": "3"', '"y": 1e10000'))
    code, _, err = run_main(["equiv", str(path)], capsys)
    assert code == 2 and err == ["error: not an exact rational: 1e10000"], err


# ------------------------------------------------------- reading weights

# JSON texts of weights: equal numbers written as strings, ints and
# decimal numbers, each read exactly
WEIGHT_TEXTS = ['"1/2"', '"2/4"', '"-0"', '-0', '0', '1', '-1', '2', '0.5',
                '0.50', '5e-1', '-5E-1', '1.0', '"0.5"', '"-1/2"', '"3"']


def lwa_text(n, weights) -> str:
    """An lwa document over two letters whose weights are the JSON texts
    drawn by `weights()`: outputs first, then the matrices row by row."""
    states = [f"s{i}" for i in range(n)]
    output = ",".join(f'"{s}":{weights()}' for s in states)
    matrices = ",".join(
        f'"{a}":[' + ",".join("[" + ",".join(weights() for _ in states) + "]"
                              for _ in states) + "]"
        for a in "ab")
    return (f'{{"kind":"lwa","states":{json.dumps(states)},"alphabet":["a","b"],'
            f'"output":{{{output}}},"matrices":{{{matrices}}}}}')


@pytest.mark.parametrize("seed", range(6))
def test_shared_weights_load_the_system_read_entry_by_entry(tmp_path, seed):
    from behaveq import Lwa
    from behaveq.cli import _carrier, _rational, read_json
    rng = Lcg(3100 + seed)
    path = tmp_path / "lwa.json"
    path.write_text(lwa_text(rng.randint(1, 7), lambda: rng.choice(WEIGHT_TEXTS)))
    raw = read_json(str(path))
    states = _carrier(raw, "states")
    expect = Lwa(states, _carrier(raw, "alphabet"),
                 tuple(_rational(raw["output"][s]) for s in states),
                 tuple(tuple(tuple(_rational(v) for v in row)
                             for row in raw["matrices"][a]) for a in "ab"))
    assert load_system(raw) == expect


# A refused weight next to a weight that is accepted and equal to it, or
# next to itself; the message names the refused one as it was written.
REFUSED_WEIGHTS = [
    ("0e5000", "0.0", "0e5000"),
    ("true", "1", "True"),
    ('"1/0"', '"1/0"', "'1/0'"),
    ('["1"]', '"1"', "['1']"),
]


@pytest.mark.parametrize("bad,twin,shown", REFUSED_WEIGHTS)
@pytest.mark.parametrize("place", ["first", "repeat"])
def test_a_refused_weight_is_refused_wherever_it_stands(
        tmp_path, capsys, bad, twin, shown, place):
    texts = [bad, twin] if place == "first" else [twin, twin, twin, bad, twin, bad]
    path = tmp_path / "lwa.json"
    path.write_text(lwa_text(2, iter(texts + ["0"] * (10 - len(texts))).__next__))
    for argv in (["equiv", str(path)], ["equiv", str(path), "--pair", "s0", "s1"]):
        assert run_main(argv, capsys) == (
            2, "", [f"error: not an exact rational: {shown}"])


def test_zero_with_a_huge_exponent_is_refused_after_zero(tmp_path, capsys):
    path = tmp_path / "lwa.json"
    path.write_text(lwa_text(2, iter(["0.0", "0e5000"] + ["0"] * 8).__next__))
    assert run_main(["equiv", str(path)], capsys) == (
        2, "", ["error: not an exact rational: 0e5000"])


def test_each_distinct_weight_is_read_once(tmp_path, monkeypatch):
    from behaveq import cli
    from behaveq.rng import WEIGHT_GRID
    rng = Lcg(3200)
    # A (+) A: a 16-state block next to its copy, integral weights written
    # as ints and the others as "p/q"
    block = [[[rng.choice(WEIGHT_GRID) for _ in range(16)] for _ in range(16)]
             for _ in "ab"]
    out = [rng.choice(WEIGHT_GRID) for _ in range(16)] * 2
    mats = [[row + [0] * 16 for row in mat] + [[0] * 16 + row for row in mat]
            for mat in block]

    def written(w):
        return int(w) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"

    doc = {"kind": "lwa", "states": [f"s{i}" for i in range(32)],
           "alphabet": ["a", "b"],
           "output": {f"s{i}": written(w) for i, w in enumerate(out)},
           "matrices": {a: [[written(w) for w in row] for row in mat]
                        for a, mat in zip("ab", mats)}}
    entries = [*doc["output"].values(),
               *(v for mat in doc["matrices"].values() for row in mat for v in row)]
    assert len(entries) == 2048 + 32
    calls = []
    read = cli._rational
    monkeypatch.setattr(cli, "_rational", lambda v: calls.append(v) or read(v))
    system = load_system(json.loads(json.dumps(doc)))
    assert len(calls) == len({json.dumps(v) for v in entries})
    assert system.out == tuple(out)
    calls.clear()
    cli._parse_vector(system, "[" + ",".join(["1/2", "2/4", "1/2", "0"] * 8) + "]")
    assert calls == ["1/2", "2/4", "0"]


@pytest.mark.parametrize("exc,line", [
    (RuntimeError("engine\nfailed"), "error: RuntimeError: engine failed"),
    (KeyError("x"), "error: KeyError: 'x'"),
])
def test_unexpected_exception_exits_two(monkeypatch, capsys, exc, line):
    def broken(args):
        raise exc
    monkeypatch.setattr("behaveq.cli.cmd_equiv", broken)
    code, out, err = run_main(["equiv", GOLDEN], capsys)
    assert (code, out, err) == (2, "", [line])


# ------------------------------------------------------- parallel trials

def force_workers(monkeypatch, count):
    from behaveq import rng
    monkeypatch.setattr(rng, "workers", lambda trials: count)


def check_output(monkeypatch, capfd, argv, workers):
    force_workers(monkeypatch, workers)
    code = main(argv)
    out, err = capfd.readouterr()
    return code, out, err


@pytest.mark.parametrize("family", ["nda", "lwa", "cts"])
def test_random_adequacy_report_is_the_same_for_any_worker_count(
        monkeypatch, capfd, family):
    argv = ["check", "--adequacy", "--random", family, "--trials", "25",
            "--seed", "4", "--json"]
    one = check_output(monkeypatch, capfd, argv, 1)
    assert one[0] == 0 and one[2] == ""
    assert check_output(monkeypatch, capfd, argv, 3) == one


@pytest.mark.parametrize("family", ["nda", "lwa", "cts"])
def test_random_adequacy_failures_keep_trial_order_for_any_worker_count(
        monkeypatch, capfd, family):
    import dataclasses

    from behaveq import cli
    honest = cli.check_adequacy_expressivity

    def fails_on_odd_sizes(system):
        report = honest(system)
        if len(system.states) % 2:
            report = dataclasses.replace(report, adequate=False)
        return report

    monkeypatch.setattr(cli, "check_adequacy_expressivity", fails_on_odd_sizes)
    argv = ["check", "--adequacy", "--random", family, "--trials", "25",
            "--seed", "4", "--json"]
    one = check_output(monkeypatch, capfd, argv, 1)
    failures = json.loads(one[1])["checks"][0]["detail"]["failures"]
    trials = [f["trial"] for f in failures]
    assert one[0] == 1 and trials and trials == sorted(trials)
    assert max(trials) >= 9     # past the first of three parts
    assert check_output(monkeypatch, capfd, argv, 3) == one


def break_nda_trials_in_children(monkeypatch, broken):
    """Make every nda law trial after the first part call `broken`."""
    from behaveq import liftings
    draw, laws, kit, corruptions = liftings._FAMILIES["nda"]
    parent = os.getpid()

    def trial(rng):
        if os.getpid() != parent:
            broken()
        return draw(rng)

    monkeypatch.setitem(liftings._FAMILIES, "nda", (trial, laws, kit, corruptions))


def raise_error():
    raise ArithmeticError("broken\ntrial")


def exit_silently():
    os._exit(1)


@pytest.mark.parametrize("broken, detail", [
    (raise_error, "failed: ArithmeticError: broken trial"),
    (exit_silently, "failed: exit status 1"),
])
def test_failing_trial_part_exits_two_with_one_error_line(
        monkeypatch, capfd, broken, detail):
    break_nda_trials_in_children(monkeypatch, broken)
    argv = ["check", "--random", "nda", "--laws", "--trials", "6", "--json"]
    code, out, err = check_output(monkeypatch, capfd, argv, 2)
    assert (code, out) == (2, "")
    assert err == f"error: TrialPartError: trials 3..5 {detail}\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ------------------------------------------- exit-code contract, fuzzed
# Seeded structural mutations of whole documents, run through every
# command with drawn specs and flags.  Flags that could ask for a large
# allocation or many processes (--cap, --trials, --maxlen, --depth) are
# drawn small or refused.

FUZZ_DOCS = {"paper-nda": CONTRACT_DOCS["nda"], "trace-vs-failure": json.load(open(MOORE)),
             "lwa": LWA_DOC, "cts": CTS_DOC, "lattice": LATTICE_DOC}

# values put in place of a field or an entry
FUZZ_VALUES = [None, True, 0, -1, 1.5, "", "x", "1/0", [], {}, [None], {"x": "y"}]


def fuzz_paths(value, path=()):
    """Every position inside a JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from fuzz_paths(child, path + (key,))


def mutate(rng: Lcg, doc, edits: int):
    """A copy of `doc` after `edits` edits, each at a drawn position:
    deleted, given a wrong value, given the value of another position,
    or swapped with a sibling."""
    doc = json.loads(json.dumps(doc))
    for _ in range(edits):
        paths = list(fuzz_paths(doc))
        if not paths:
            break
        *head, key = rng.choice(paths)
        parent = doc
        for step in head:
            parent = parent[step]
        kind = rng.randint(0, 3)
        if kind == 0:
            del parent[key]
        elif kind == 1:
            parent[key] = json.loads(json.dumps(rng.choice(FUZZ_VALUES)))
        elif kind == 2:
            value = doc
            for step in rng.choice(paths):
                value = value[step]
            parent[key] = json.loads(json.dumps(value))
        else:
            other = rng.choice(list(parent.keys() if isinstance(parent, dict)
                                    else range(len(parent))))
            parent[key], parent[other] = parent[other], parent[key]
    return doc


def fuzz_argv(rng: Lcg, path: str, doc: dict) -> list[str]:
    """One command line on `path`.  Specs are drawn from the labels of
    `doc` as it was before mutation, and one in four is junk."""
    labels = lambda key: [s for s in doc.get(key, []) if isinstance(s, str)] or ["x"]
    states, letters = labels("states"), labels("alphabet")
    pick = lambda *options: options[rng.randint(0, len(options) - 1)]
    junk = lambda good, *bad: pick(*bad) if rng.randint(0, 3) == 0 else good()
    state = lambda: junk(lambda: rng.choice(states), "zz", "")
    subset = lambda: junk(lambda: "{" + ",".join(
        s for s in states if rng.randint(0, 1)) + "}", "{zz}", "{", "x,y")
    vector = lambda: junk(lambda: "[" + ",".join(
        pick("1", "0", "1/2", "-3") for _ in states) + "]", "[1]", "[1/0]", "[")
    spec = lambda: pick(state, vector if doc["kind"] == "lwa" else subset)()
    cap = pick([], [], [], ["--cap", pick("0", "2", "12", "-1")])
    json_flag = pick([], ["--json"])
    command = rng.randint(0, 5)
    if command == 0:
        return ["equiv", path, *cap, *json_flag,
                *pick([], [], ["--semantics", pick("trace", "failure", "ready")])]
    if command == 1:
        return ["equiv", path, "--pair", spec(), spec(), *cap, *json_flag]
    if command == 2:
        initials = pick([], ["--initials"], ["--initials", subset(), subset()])
        backward = ["--direction", "backward"] if doc["kind"] == "nda" else []
        return ["determinize", path, *initials, *cap, *json_flag,
                *pick([], backward)]
    if command == 3:
        return ["quotient", path, *pick([], ["--identity-eq"]), *json_flag]
    if command == 4:
        if doc["kind"] == "cts":
            return ["eval", path, *json_flag, *pick(
                ["--formula", junk(lambda: pick("tt", "[]tt", "!tt & []!tt"),
                                   "([]", "zz")],
                ["--depth", pick("-1", "0", "1")], [])]
        start = pick(["--state", state()], ["--vector", vector()]
                     if doc["kind"] == "lwa" else ["--subset", subset()], [])
        word = junk(lambda: "".join(rng.choice(letters)
                                    for _ in range(rng.randint(0, 3))), "zz", "[")
        query = pick(["--word", word], ["--maxlen", pick("-1", "0", "2")])
        return ["eval", path, *start, *query, *json_flag]
    return ["check", path, "--adequacy", "--trials",
            junk(lambda: pick("1", "2"), "0", "-1"),
            "--seed", str(rng.randint(0, 9)), *json_flag]


def test_mutated_documents_keep_the_exit_code_contract(tmp_path, capsys,
                                                        monkeypatch):
    # 0 = equivalent or computed, 1 = inequivalent, 2 = input error with
    # one error line; only the refusals that main expects leave a command
    from behaveq import CapExceeded, cli
    escaped = []

    def recording(command):
        def run(args):
            try:
                return command(args)
            except (cli.SchemaError, CapExceeded, ValueError):
                raise
            except Exception as exc:
                escaped.append(exc)
                raise
        return run

    for name in ("cmd_equiv", "cmd_quotient", "cmd_check", "cmd_eval",
                 "cmd_determinize"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    rng = Lcg(2121)
    codes = set()
    for name, doc in FUZZ_DOCS.items():
        for i in range(200):
            path = tmp_path / f"{name}-{i}.json"
            # zero edits two times in five, so that commands also run
            edits = max(0, rng.randint(-1, 3))
            path.write_text(json.dumps(mutate(rng, doc, edits)))
            argv = fuzz_argv(rng, str(path), doc)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err.splitlines()
            assert code in (0, 1, 2), (argv, path.read_text())
            if code == 2:
                assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
            assert not escaped, (argv, path.read_text(), escaped)
            codes.add(code)
    assert codes == {0, 1, 2}
