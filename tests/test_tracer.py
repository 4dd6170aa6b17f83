"""The benchmark's tracer (`perfbench/spans.py`) against the package.

The tracer wraps behaveq functions by name after import.  A renamed,
removed or inlined function would make `perfbench/run.py --trace 1`
fail or read zero, so the calls below are run untraced and traced, and
must print the same bytes.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = str(ROOT / "data" / "paper-nda.json")
MOORE = str(ROOT / "data" / "trace-vs-failure.json")

LWA_DOC = {
    "kind": "lwa",
    "states": ["x", "y", "z"],
    "alphabet": ["a", "b"],
    "output": {"x": "1", "y": "1", "z": "0"},
    "matrices": {"a": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1/2"]],
                 "b": [["0", "0", "1"], ["0", "0", "1"], ["0", "0", "0"]]},
}

CTS_DOC = {
    "kind": "cts",
    "conditions": ["k", "k2"],
    "states": ["u", "v"],
    "transitions": [{"cond": "k", "from": "u", "to": "v"}],
}

# Runs each command line on a fresh import, then on another fresh
# import with the tracer installed; prints both results and the counts.
SCRIPT = r"""
import contextlib, importlib, io, json, sys
perfbench, src, calls = sys.argv[1:]
sys.path[:0] = [perfbench, src]
import spans

def fresh_cli():
    for name in [m for m in sys.modules if m == "behaveq" or m.startswith("behaveq.")]:
        del sys.modules[name]
    return importlib.import_module("behaveq.cli")

def run(main, invoke):
    results = []
    for argv in json.loads(calls):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = invoke(main, argv)
        results.append([code, out.getvalue()])
    return results

plain = run(fresh_cli().main, lambda main, argv: main(argv))
tracer = spans.Tracer()
cli = fresh_cli()
tracer.install(spans.behaveq_modules())
traced = run(cli.main, tracer.call)
print(json.dumps({"plain": plain, "traced": traced, "counts": dict(tracer.counts)}))
"""


def test_traced_calls_print_the_same_bytes(tmp_path):
    lwa = tmp_path / "lwa.json"
    lwa.write_text(json.dumps(LWA_DOC))
    cts = tmp_path / "cts.json"
    cts.write_text(json.dumps(CTS_DOC))
    failure = tmp_path / "failure.json"
    failure.write_text(json.dumps(dict(json.load(open(MOORE)),
                                       semantics="failure")))
    calls = [
        ["equiv", GOLDEN, "--pair", "{x}", "{y}", "--json"],
        ["equiv", MOORE, "--pair", "p0", "q0", "--semantics", "failure", "--json"],
        ["equiv", str(lwa), "--pair", "x", "y", "--json"],
        ["check", str(lwa), "--adequacy", "--json"],
        ["check", "--random", "nda", "--laws", "--trials", "1", "--json"],
        ["quotient", GOLDEN, "--json"],
        ["quotient", GOLDEN, "--identity-eq", "--json"],
        ["determinize", GOLDEN, "--direction", "backward", "--json"],
        ["eval", str(lwa), "--vector", "[1,1/2,0]", "--word", "ab", "--json"],
        ["equiv", str(cts), "--pair", "u", "v", "--json"],
        ["check", "--random", "cts", "--adequacy", "--trials", "1", "--json"],
        ["determinize", str(failure), "--json"],
        ["eval", str(failure), "--state", "p0", "--maxlen", "1", "--json"],
    ]
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         json.dumps(calls)],
        capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    assert got["traced"] == got["plain"]
    assert [code for code, _ in got["plain"]] == [1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]
    assert got["counts"]["systems.positions"] > 0
    assert got["counts"]["equivalence.oracle_calls"] > 0
    assert got["counts"]["equivalence.lwa_chain_len"] > 0
    assert got["counts"]["liftings.nda_det_step_calls"] > 0
    assert got["counts"]["quotient.carrier_size"] > 0
    assert got["counts"]["logic.cts_generators"] > 0
