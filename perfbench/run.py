#!/usr/bin/env python3
"""Benchmark of the behaveq command line, run in-process.

    python3 perfbench/run.py --workload {classes,pairs,checks} --seed N \
        --seconds S --trace {0,1}

One closed-loop client calls `behaveq.cli.main(argv)` once at a time.
The run is a sequence of rounds.  Each round imports behaveq afresh,
writes a fresh set of seeded inputs with their reference answers
(`calls.py`), then makes every call of the workload once.  Rounds go on
while another round fits in S seconds, and there are at least two.  No
two calls of a run read the same system, and no module state survives
from one round to the next.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each round
twice, untraced and then with spans (`spans.py`) on a new import, checks
that every call prints the same bytes both times, and reports the
per-layer metrics.  --self-check tests the benchmark itself: one seed
writes byte-identical inputs twice, and a planted wrong answer is
counted as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric
with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "behaveq")):
    sys.exit(f"perfbench: no behaveq sources under {ROOT}/src")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calls  # noqa: E402  (needs the paths above; imports behaveq)
import spans  # noqa: E402
from behaveq.rng import Lcg  # noqa: E402

MIN_ROUNDS = 2
WORK = os.path.join(ROOT, ".bench_work")

# Host-speed probe.  The host is shared: the same run of the same seed
# varies by a third from one minute to the next, and a fixed pure-Python
# loop slows down in step with behaveq (correlation 0.88 call by call).
# A probe runs before every call; each time is reported as measured,
# times PROBE_SECONDS over the median of the probes around it, that is
# in seconds of a host on which the probe takes PROBE_SECONDS (its
# median on the 2-core host used to write this benchmark).
PROBE_LOOPS = 40000
PROBE_SECONDS = 0.0075
PROBE_WINDOW = 3             # probes on each side of a call


_PROBE_TABLE = {i: i * 2654435761 & 0xFFFF for i in range(1024)}


def probe() -> float:
    """Seconds for a fixed loop of dict reads and int arithmetic.  It
    allocates no garbage-collected objects, so the objects a run holds
    do not slow it down."""
    table, acc = _PROBE_TABLE, 0
    start = time.perf_counter()
    for i in range(PROBE_LOOPS):
        acc = (acc + table[(i ^ acc) & 1023]) & 0xFFFFF
        acc ^= i << 2
    return time.perf_counter() - start


def scaled(seconds: float, probes) -> float:
    return seconds * PROBE_SECONDS / statistics.median(probes)


def fresh_cli():
    """Import behaveq from scratch, dropping every module of a previous
    import, and return its cli module."""
    for name in [m for m in sys.modules if m == "behaveq" or m.startswith("behaveq.")]:
        del sys.modules[name]
    return importlib.import_module("behaveq.cli")


def make_round(workload: str, seed: int, index: int, workdir: str):
    """Set up one round: import, inputs, reference answers, files.
    Returns the cli module, the calls and the scaled set-up time."""
    before = probe()
    start = time.perf_counter()
    cli = fresh_cli()
    rnd = calls.Round(os.path.join(workdir, f"round{index}"), Lcg(seed).spawn(index))
    call_list = calls.WORKLOADS[workload](rnd)
    seconds = time.perf_counter() - start
    return cli, call_list, scaled(seconds, [before, probe()])


def run_pass(main, call_list, invoke=None):
    """Make every call once, with a probe before each call and after the
    last.  Returns per-call [exit, stdout, error, scaled seconds,
    measured seconds]."""
    results, probes = [], [probe()]
    for call in call_list:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = invoke(main, call.argv) if invoke else main(call.argv)
        except (Exception, SystemExit) as exc:     # a crash or an argparse exit
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        probes.append(probe())
        results.append([code, out.getvalue(), error, seconds, seconds])
    for i, result in enumerate(results):
        window = probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]
        result[3] = scaled(result[4], window)
    return results


def judge(exit_code, check, code, stdout, error):
    """Why a call failed, or None.  Caps surface as exit 2 and fail."""
    if error is not None:
        return error
    if code != exit_code:
        return f"exit {code}, expected {exit_code}"
    try:
        return check(stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile, taken over log
    latencies: the order statistics weighted by a Beta(p(n+1),
    (1-p)(n+1)) distribution.  A workload's calls fall into groups whose
    latencies differ several-fold; the sample median rests on the one or
    two calls at the middle rank, which on a shared host are as noisy as
    single calls, and the log keeps a neighbouring group from pulling the
    weighted average far."""
    logs = sorted(math.log(v) for v in values)
    n = len(logs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 400                                   # integration steps per rank
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = 0.0
    for i, x in enumerate(logs):
        weight = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            weight += math.exp(norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += x * weight / (steps * n)
    return math.exp(total)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it."""
    return max((p for p in range(1, 100) if n - math.ceil(p * n / 100) >= 10), default=50)


def measure(args, workdir):
    rounds, setups, walls, traced_walls, raw = 0, [], [], [], 0.0
    latencies = {0: [], 1: []}
    record = []                      # [round, call, expected exit, ms]
    failures: list[str] = []
    attempted = 0
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        cli, call_list, setup = make_round(args.workload, args.seed, rounds, workdir)
        setups.append(setup)
        gc.collect()
        results = run_pass(cli.main, call_list)
        walls.append(sum(r[3] for r in results))
        if tracer:
            cli = fresh_cli()
            tracer.install(spans.behaveq_modules())
            gc.collect()
            traced = run_pass(cli.main, call_list, tracer.call)
            traced_walls.append(sum(r[3] for r in traced))
        raw += sum(r[4] for r in results)
        for i, (call, (code, stdout, error, seconds, _)) in enumerate(zip(call_list, results)):
            attempted += 1
            reason = judge(call.exit, call.check, code, stdout, error)
            if reason is None and tracer and traced[i][:3] != [code, stdout, error]:
                reason = "traced run printed different bytes"
            # the checks must also reject a wrong answer and a wrong exit code
            if reason is None and (
                    judge(call.exit, call.wrong, code, stdout, error) is None
                    or judge(1 - call.exit, call.check, code, stdout, error) is None):
                reason = "a planted wrong answer passed the check"
            if reason is not None:
                failures.append(f"round {rounds} {call.label}: {reason}")
            latencies[call.exit].append(seconds * 1000)
            record.append([rounds, call.label, call.exit, seconds * 1000])
        shutil.rmtree(os.path.join(workdir, f"round{rounds}"))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-{args.seed}-trace{args.trace}")
    with open(stem + "-calls.json", "w") as fh:
        json.dump(record, fh)
    if tracer:
        tracer.dump(stem + "-spans.jsonl")
        report = tracer.metrics(rounds, sum(traced_walls) / sum(walls), sum(walls) / raw)
    else:
        every = latencies[0] + latencies[1]
        # fixed by the calls of MIN_ROUNDS rounds, so that every run of a
        # workload estimates the same percentile
        pct = tail_percentile(MIN_ROUNDS * len(call_list))
        report = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "verdict_p50_ms": (quantile(every, 0.5), "ms"),
            "verdict_tail_ms": (quantile(every, pct / 100), "ms"),
            "exit0_p50_ms": (quantile(latencies[0], 0.5), "ms"),
            "exit1_p50_ms": (quantile(latencies[1], 0.5), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"# verdict_tail_ms is p{pct} of {len(every)} calls; "
              f"exit0 {len(latencies[0])} calls, exit1 {len(latencies[1])} calls")
    print(f"# {args.workload} seed {args.seed}: {rounds} rounds, {attempted} calls, "
          f"python {platform.python_version()}, {os.cpu_count()} cpus; times are scaled "
          f"to the reference host by {sum(walls) / raw:.3f}")
    print(f"failed_share {len(failures) / attempted:.4f} share  "
          f"({len(failures)} of {attempted})")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    for name, (value, unit) in report.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in report.items()}}


def self_check(args, workdir) -> bool:
    """Generation is deterministic, and a planted wrong answer fails."""
    ok = True
    for workload, build in calls.WORKLOADS.items():
        dirs = [os.path.join(workdir, f"{workload}-{i}") for i in range(2)]
        for d in dirs:
            build(calls.Round(d, Lcg(args.seed).spawn(0)))
        names = sorted(os.listdir(dirs[0]))
        _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        same = names == sorted(os.listdir(dirs[1])) and not mismatch and not errors
        print(f"{workload}: {len(names)} inputs, byte-identical twice: {same}")
        ok &= same
    cli, call_list, _ = make_round("classes", args.seed, 0, workdir)
    call_list = call_list[:3]
    call_list[1].check = call_list[1].wrong
    results = run_pass(cli.main, call_list)
    failed = [c.label for c, r in zip(call_list, results)
              if judge(c.exit, c.check, *r[:3]) is not None]
    print(f"planted wrong answer on {call_list[1].label}: failed calls {failed}")
    return ok and failed == [call_list[1].label]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(calls.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    workdir = os.path.join(WORK, f"{args.workload or 'self-check'}-{args.seed}-{os.getpid()}")
    try:
        if args.self_check:
            return 0 if self_check(args, workdir) else 1
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
