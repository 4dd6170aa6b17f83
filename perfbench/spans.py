"""Spans and counters around behaveq's layers, installed from outside.

`Tracer.install` wraps public functions of a freshly imported behaveq
and rebinds each wrapper in every module namespace that holds the
function (cli, logic and equivalence import engine names into their
own globals), so nothing under src/ changes.  Spans (name, start, end,
parent, call id) stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Spans whose self times are reported, by span name -> metric.
SELF_TIMES = {
    "cli.load": "cli.load_s",
    "cli.cmd": "cli.self_s",
    "systems.determinize": "systems.determinize_s",
    "core.gfp": "core.gfp_s",
    "equivalence.cts_bisim": "equivalence.cts_bisim_s",
    "equivalence.lwa_subspace": "equivalence.lwa_subspace_s",
    "core.linalg": "core.linalg_s",
    "equivalence.oracle": "equivalence.oracle_s",
    "logic.adequacy": "logic.adequacy_self_s",
    "logic.cts_formulas": "logic.cts_formulas_s",
    "liftings.laws.nda": "liftings.laws_s.nda",
    "liftings.laws.lwa": "liftings.laws_s.lwa",
    "liftings.laws.cts": "liftings.laws_s.cts",
    "quotient": "quotient.self_s",
}

COUNTS = (
    "cli.lwa_trace_calls", "systems.positions", "core.gfp_iterations",
    "equivalence.machine_cells", "equivalence.cts_iterations",
    "equivalence.lwa_chain_len", "core.linalg_calls", "equivalence.oracle_calls",
    "equivalence.witness_len", "logic.lwa_trace_calls", "logic.cts_generators",
    "liftings.nda_det_step_calls", "quotient.carrier_size",
)

class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, call id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.step_sets: set = set()
        self.call_id = 0
        self.call_time = 0.0

    # ------------------------------------------------------------ wrapping

    def _span(self, name, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            idx = len(spans)
            spans.append([label, clock(), None, stack[-1] if stack else -1,
                          self.call_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count:
                count(counts, result)
            return result
        return wrapper

    def _counter(self, fn, count):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, result)
            return result
        return wrapper

    def _gfp(self, fn):
        """A gfp run for a cts belongs to the cts engine's span; every
        other gfp run is a core.gfp span."""
        traced = self._span("core.gfp", fn, _add("core.gfp_iterations", "iterations"))
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "equivalence.cts_bisim":
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)
        return wrapper

    def _det_step(self, fn):
        counts, seen = self.counts, self.step_sets

        @functools.wraps(fn)
        def wrapper(steps, num_actions):
            counts["liftings.nda_det_step_calls"] += 1
            seen.add((steps, num_actions))
            return fn(steps, num_actions)
        return wrapper

    def install(self, modules) -> None:
        """Wrap and rebind in the behaveq modules given by name."""
        def rebind(home, name, wrapper):
            original = getattr(modules[home], name)
            for module in modules.values():
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)

        span, counter = self._span, self._counter
        for name in ("read_json", "load_system"):
            rebind("cli", name, span("cli.load", getattr(modules["cli"], name)))
        for name in ("cmd_equiv", "cmd_quotient", "cmd_check", "cmd_eval",
                     "cmd_determinize"):
            rebind("cli", name, span("cli.cmd", getattr(modules["cli"], name)))
        # one counter per caller: the cli witness loop and logic's tables
        for home in ("cli", "logic"):
            mod = modules[home]
            mod.lwa_trace = counter(mod.lwa_trace, _tally(f"{home}.lwa_trace_calls"))
        for name in ("forward_determinize", "moore_determinize"):
            fn = getattr(modules["systems"], name)
            rebind("systems", name, span("systems.determinize", fn,
                                         _add_len("systems.positions", "subset_states")))
        rebind("core", "gfp", self._gfp(modules["core"].gfp))
        eq = modules["equivalence"]
        rebind("equivalence", "machine_equiv", counter(eq.machine_equiv, _cells))
        rebind("equivalence", "cts_conditional_bisim",
               span("equivalence.cts_bisim", eq.cts_conditional_bisim,
                    _add("equivalence.cts_iterations", "iterations")))
        rebind("equivalence", "lwa_observability_chain",
               span("equivalence.lwa_subspace", eq.lwa_observability_chain,
                    _add_len("equivalence.lwa_chain_len")))
        for name in ("echelonize", "nullspace"):
            rebind("core", name, span("core.linalg", getattr(modules["core"], name),
                                      _tally("core.linalg_calls")))
        for name in ("nda_pair_oracle", "moore_pair_oracle"):
            rebind("equivalence", name, span("equivalence.oracle", getattr(eq, name),
                                             _oracle))
        logic = modules["logic"]
        rebind("logic", "check_adequacy_expressivity",
               span("logic.adequacy", logic.check_adequacy_expressivity))
        rebind("logic", "cts_logical_analysis",
               span("logic.cts_formulas", logic.cts_logical_analysis,
                    lambda counts, result: counts.update(
                        {"logic.cts_generators": len(result[1])})))
        lift = modules["liftings"]
        rebind("liftings", "check_lifting_laws",
               span(lambda family, *rest: f"liftings.laws.{family}",
                    lift.check_lifting_laws))
        rebind("liftings", "nda_det_step", self._det_step(lift.nda_det_step))
        quotient = modules["quotient"]
        rebind("quotient", "build_respecting_automaton",
               span("quotient", quotient.build_respecting_automaton,
                    _add_len("quotient.carrier_size", "carrier")))
        for name in ("verify_witness_homomorphism", "redundant_members"):
            rebind("quotient", name, span("quotient", getattr(quotient, name)))

    # --------------------------------------------------------------- calls

    def call(self, main, argv):
        """Run main(argv) as one traced call; returns its exit code."""
        self.call_id += 1
        start = time.perf_counter()
        try:
            return main(argv)
        finally:
            self.call_time += time.perf_counter() - start

    # ------------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def metrics(self, rounds: int, overhead: float, scale: float) -> dict:
        """Per-round values with their units; times are multiplied by
        `scale`."""
        selfs = self.self_times()
        out = {metric: (selfs.get(name, 0.0) * scale / rounds, "s")
               for name, metric in SELF_TIMES.items()}
        out.update({name: (self.counts[name] / rounds, "count") for name in COUNTS})
        calls = self.counts["liftings.nda_det_step_calls"]
        out["liftings.nda_det_step_distinct_ratio"] = (
            len(self.step_sets) / calls if calls else 0.0, "ratio")
        out["trace.overhead_ratio"] = (overhead, "ratio")
        out["trace.unattributed_share"] = (
            1 - sum(selfs.values()) / self.call_time if self.call_time else 0.0, "ratio")
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")


def behaveq_modules() -> dict:
    return {name.split(".", 1)[1]: module for name, module in sys.modules.items()
            if name.startswith("behaveq.")}


# Counting callbacks: each adds to `counts` from a wrapped call's result.

def _add(metric, attr):
    return lambda counts, result: counts.update({metric: getattr(result, attr)})


def _add_len(metric, attr=None):
    return lambda counts, result: counts.update(
        {metric: len(getattr(result, attr) if attr else result)})


def _tally(metric):
    return lambda counts, result: counts.update({metric: 1})


def _cells(counts, result):
    machine = result.machine
    counts["equivalence.machine_cells"] += (
        result.iterations * len(machine.subset_states) ** 2 * len(machine.alphabet))


def _oracle(counts, result):
    counts["equivalence.oracle_calls"] += 1
    if result.witness is not None:
        counts["equivalence.witness_len"] += len(result.witness)
