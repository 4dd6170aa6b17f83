"""Command-line driver and JSON file formats.

Subcommands: equiv, quotient, check, eval, determinize.  All reports
are deterministic: dictionaries are emitted with sorted keys and every
random draw flows from --seed through the package generator, so equal
invocations produce byte-identical output.

System files are JSON documents with a "kind" discriminator:

  nda    {"kind","states","alphabet","transitions":[{from,action,to}],
          "accepting":[...]}
  lwa    {"kind","states","alphabet","output":{state:"p/q"},
          "matrices":{action:[["p/q",...],...]}}
  cts    {"kind","conditions","states","transitions":[{cond,from,to}]}
  moore  {"kind","states","alphabet","transitions":[{from,action,to}]}
         plus either "semantics": trace|failure|ready (outputs derived)
         or explicit "lattice":{elements,join,bottom} and
         "outputs":{state:element}, not both

Weights are strings "p/q", integers or decimal numbers, all read
exactly as written: the JSON number 0.10000000000000000001 is
10000000000000000001/100000000000000000000, not the nearest double.
Subsets are written "{x,y}"; vectors "[1/2,0,-3]".
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from decimal import Decimal
from fractions import Fraction

from .core import (
    CapExceeded,
    Carrier,
    Semilattice,
    format_rational,
    parse_subset_label,
    subset_label,
)
from .equivalence import (
    REFUSAL_ASSUMPTION,
    SEMANTICS,
    build_output_lts,
    cts_conditional_bisim,
    lwa_classes,
    lwa_pair,
    lwa_trace,
    moore_equiv,
    moore_pair_oracle,
)
from .liftings import CORRUPTIONS, check_lifting_laws
from .logic import (
    check_adequacy_expressivity,
    cts_logical_analysis,
    eval_cts,
    parse_cts_formula,
    parse_word,
    render_word,
    theory_word,
)
from .quotient import (
    build_respecting_automaton,
    redundant_members,
    verify_witness_homomorphism,
)
from .rng import Lcg, random_cts, random_lwa, random_nda, run_trials
from .systems import (
    Cts,
    Lwa,
    Nda,
    OutputLts,
    eval_word,
    lattice_lts,
    moore_determinize,
)


class SchemaError(ValueError):
    pass


# ----------------------------------------------------------------- loading

def _require(data: dict, *keys):
    if not isinstance(data, dict):
        raise SchemaError(f"expected an object with fields {list(keys)}, "
                          f"got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise SchemaError(f"missing field {key!r}")


def _typed(data: dict, key: str, kind: type):
    """data[key], which must be a JSON list or object (`kind`)."""
    value = data[key]
    if not isinstance(value, kind):
        what = "list" if kind is list else "object"
        raise SchemaError(f"field {key!r} must be a {what}")
    return value


# A decimal exponent beyond this is refused: Fraction builds 10**exponent
# in full, so one short number could take all memory.
_MAX_EXPONENT = 4300


def _rational(value) -> Fraction:
    """A weight: a "p/q" string, an integer or a decimal literal (a JSON
    number with a fraction or an exponent arrives as a Decimal), read
    exactly as written."""
    if isinstance(value, (str, int, Decimal)) and not isinstance(value, bool):
        try:
            text = str(value)
            exponent = text.lower().partition("e")[2]
            if not exponent or abs(int(exponent)) <= _MAX_EXPONENT:
                return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"not an exact rational: {value!r}")


def _weight_reader():
    """`_rational` for one document or vector: each distinct weight as
    written (its JSON type and text) is read once, and equal entries
    share one Fraction.  Keys never compare values, since equal numbers
    can differ in what is accepted: 0.0 is a weight and 0e5000 is not,
    nor is true, which equals 1.  Other types go to `_rational` as they
    come, to be refused."""
    memo = {}

    def read(value) -> Fraction:
        kind = type(value)
        if kind is _JsonNumber:
            key = (kind, value.text)
        elif kind is str or kind is int:
            key = (kind, value)
        else:
            return _rational(value)
        weight = memo.get(key)
        if weight is None:
            weight = memo[key] = _rational(value)
        return weight

    return read


def _carrier(data, key) -> Carrier:
    names = data[key]
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) for n in names)):
        raise SchemaError(f"field {key!r} must be a nonempty list of labels")
    try:
        return Carrier(tuple(names))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def load_system(data: dict):
    """Build a system from its JSON document; a malformed document is
    refused with a `SchemaError`.  Masks are built from labels and
    tables from the carriers' sizes, so the shape check each system
    type makes at construction has nothing left to refuse."""
    if not isinstance(data, dict):
        raise SchemaError("top-level document must be an object")
    kind = data.get("kind")
    if kind in ("nda", "moore"):
        _require(data, "states", "alphabet", "transitions",
                 *(("accepting",) if kind == "nda" else ()))
        states = _carrier(data, "states")
        alphabet = _carrier(data, "alphabet")
        table = [[0] * len(alphabet) for _ in range(len(states))]
        for t in _typed(data, "transitions", list):
            _require(t, "from", "action", "to")
            table[states.index(t["from"])][alphabet.index(t["action"])] |= (
                1 << states.index(t["to"]))
        delta = tuple(tuple(r) for r in table)
        if kind == "nda":
            accepting = 0
            for label in _typed(data, "accepting", list):
                accepting |= 1 << states.index(label)
            system = Nda(states, alphabet, delta, accepting)
        elif "lattice" in data:
            if "semantics" in data:
                raise SchemaError("a moore document gives either 'lattice' "
                                  "or 'semantics', not both")
            _require(data, "outputs")
            lat_data = data["lattice"]
            _require(lat_data, "elements", "join", "bottom")
            elements = _carrier(lat_data, "elements").names
            pos = {e: i for i, e in enumerate(elements)}
            try:
                join_table = tuple(
                    tuple(pos[v] for v in row) for row in lat_data["join"])
                lattice = Semilattice.create(
                    elements, join_table, pos[lat_data["bottom"]])
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"bad lattice: {exc}") from None
            output_of = _typed(data, "outputs", dict)
            try:
                outputs = tuple(pos[output_of[label]] for label in states.names)
            except (KeyError, TypeError) as exc:
                raise SchemaError(f"bad outputs: {exc}") from None
            system = lattice_lts(states, alphabet, delta, lattice, outputs)
        else:
            semantics = data.get("semantics", "trace")
            if semantics not in SEMANTICS:
                raise SchemaError(f"unknown semantics {semantics!r}")
            system = build_output_lts(states, alphabet, delta, semantics)
    elif kind == "lwa":
        _require(data, "states", "alphabet", "output", "matrices")
        states = _carrier(data, "states")
        alphabet = _carrier(data, "alphabet")
        n = len(states)
        weight = _weight_reader()
        out = [Fraction(0)] * n
        for label, value in _typed(data, "output", dict).items():
            out[states.index(label)] = weight(value)
        matrices = _typed(data, "matrices", dict)
        mats = []
        for a in alphabet.names:
            rows = matrices.get(a)
            if rows is None:
                raise SchemaError(f"missing matrix for action {a!r}")
            if (not isinstance(rows, list) or len(rows) != n
                    or any(not isinstance(r, list) or len(r) != n for r in rows)):
                raise SchemaError(f"matrix for {a!r} is not {n}x{n}")
            mats.append(tuple(tuple(map(weight, row)) for row in rows))
        system = Lwa(states, alphabet, tuple(out), tuple(mats))
    elif kind == "cts":
        _require(data, "conditions", "states", "transitions")
        conditions = _carrier(data, "conditions")
        states = _carrier(data, "states")
        table = [[0] * len(states) for _ in range(len(conditions))]
        for t in _typed(data, "transitions", list):
            _require(t, "cond", "from", "to")
            k = conditions.index(t["cond"])
            table[k][states.index(t["from"])] |= 1 << states.index(t["to"])
        system = Cts(conditions, states, tuple(tuple(r) for r in table))
    else:
        raise SchemaError(f"unknown or missing kind {kind!r}")
    return system


class _JsonNumber(Decimal):
    """A JSON number with a fraction or an exponent, kept exactly and
    shown in messages as written."""

    __slots__ = ("text",)

    def __new__(cls, text: str):
        number = super().__new__(cls, text)
        number.text = text
        return number

    def __repr__(self) -> str:
        return self.text


def read_json(path: str) -> dict:
    """The JSON document at `path`; numbers with a fraction or an
    exponent are kept as exact Decimals."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_JsonNumber)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{path} nests too deeply to read") from None


def load_file(path: str):
    return load_system(read_json(path))


# ------------------------------------------------------------------ output

def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines(payload):
            print(line)


def _parse_state_set(system, text: str) -> int:
    text = text.strip()
    if text.startswith("{"):
        return parse_subset_label(system.states, text)
    return 1 << system.states.index(text)


def _parse_state(system, text: str) -> int:
    """The one state of a spec written as a state or a one-state subset."""
    mask = _parse_state_set(system, text)
    if mask & (mask - 1) or not mask:
        raise SchemaError(f"pair spec {text!r} must name exactly one state")
    return mask.bit_length() - 1


def _parse_vector(system: Lwa, text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise SchemaError(f"malformed vector {text!r}")
        body = text[1:-1].strip()
        parts = [p.strip() for p in body.split(",")] if body else []
        vec = tuple(map(_weight_reader(), parts))
        if len(vec) != len(system.states):
            raise SchemaError(
                f"vector has {len(vec)} entries for {len(system.states)} states")
        return vec
    x = system.states.index(text)
    return tuple(Fraction(int(i == x)) for i in range(len(system.states)))


# ------------------------------------------------------------- subcommands

# The largest --cap accepted: 2^20 subset positions
MAX_CAP = 20


def _refuse_cap_past_ceiling(args) -> None:
    if args.cap > MAX_CAP:
        raise CapExceeded(f"--cap {args.cap} exceeds the ceiling of {MAX_CAP}")


def cmd_equiv(args) -> int:
    _refuse_cap_past_ceiling(args)
    raw = read_json(args.file)
    system = load_system(raw)
    semantics = None
    if isinstance(system, OutputLts):
        if args.semantics:
            if "lattice" in raw:
                raise SchemaError("--semantics is for bare moore inputs, and "
                                  "this one gives its own lattice")
            system = build_output_lts(
                system.states, system.alphabet, system.delta, args.semantics)
        semantics = args.semantics or raw.get("semantics")
    if isinstance(system, (Nda, OutputLts)):
        initials = None
        if args.pair:
            initials = [_parse_state_set(system, s) for s in args.pair]
        equiv = moore_equiv(system, initials, cap=args.cap)
        payload = {
            "kind": "nda" if isinstance(system, Nda) else "moore",
            "iterations": equiv.iterations,
            "classes": [list(c) for c in equiv.classes()],
        }
        if semantics == "failure":
            payload["assumptions"] = [REFUSAL_ASSUMPTION]
        if args.pair:
            u, v = initials
            verdict = equiv.related(u, v)
            payload["pair"] = [subset_label(system.states, u),
                               subset_label(system.states, v)]
            payload["equivalent"] = verdict
            if not verdict:
                witness = moore_pair_oracle(system, u, v).witness
                payload["witness"] = render_word(system.alphabet, witness)
    elif isinstance(system, Lwa) and args.pair:
        p, q = (_parse_vector(system, s) for s in args.pair)
        verdict = lwa_pair(system, p, q)
        payload = {
            "kind": "lwa",
            "pair": list(args.pair),
            "equivalent": verdict.equivalent,
        }
        if not verdict.equivalent:
            witness = verdict.witness
            payload["witness"] = render_word(system.alphabet, witness)
            payload["weights"] = [
                format_rational(lwa_trace(system, vec, witness))
                for vec in (p, q)]
    elif isinstance(system, Lwa):
        payload = {"kind": "lwa",
                   "classes": [[system.states.label(x) for x in cls]
                               for cls in lwa_classes(system)]}
    elif isinstance(system, Cts):
        result = cts_conditional_bisim(system)
        payload = {"kind": "cts", "iterations": result.iterations,
                   "classes": {}}
        for k in range(len(system.conditions)):
            payload["classes"][system.conditions.label(k)] = [
                [system.states.label(x) for x in cls]
                for cls in result.classes(k)]
        if args.pair:
            x, y = (_parse_state(system, s) for s in args.pair)
            per_condition = {
                label: result.blocks[k][x] == result.blocks[k][y]
                for k, label in enumerate(system.conditions)}
            payload["pair"] = list(args.pair)
            payload["per_condition"] = per_condition
            payload["equivalent"] = all(per_condition.values())
    else:
        raise SchemaError("unsupported system for equiv")
    _emit(payload, args.json, _equiv_lines)
    # exit 1 exactly when a pair was asked for and found inequivalent
    return 0 if payload.get("equivalent", True) else 1


def _equiv_lines(payload):
    if "pair" in payload:
        yield ("equivalent" if payload.get("equivalent")
               else "inequivalent") + ": " + " vs ".join(payload["pair"])
        if "witness" in payload:
            yield f"witness: {payload['witness']}"
        if "per_condition" in payload:
            for cond, ok in sorted(payload["per_condition"].items()):
                yield f"  under {cond}: {'yes' if ok else 'no'}"
    classes = payload.get("classes")
    if isinstance(classes, list):
        for cls in classes:
            yield "class: " + " ".join(cls)
    elif isinstance(classes, dict):
        for cond, clss in sorted(classes.items()):
            yield f"condition {cond}:"
            for cls in clss:
                yield "  class: " + " ".join(cls)


def cmd_quotient(args) -> int:
    system = load_file(args.file)
    if not isinstance(system, Nda):
        raise SchemaError("quotient expects an nda input")
    n = len(system.states)
    if args.identity_eq:
        blocks, iterations = range(1 << n), 0
    else:
        result = moore_equiv(system)
        blocks, iterations = result.blocks, result.iterations
    auto = build_respecting_automaton(system, blocks)
    hom = verify_witness_homomorphism(system, auto)
    labels = auto.labels()
    automaton_json = {
        "kind": "nda",
        "states": list(labels),
        "alphabet": list(system.alphabet.names),
        # edges in reading direction: from --a--> to means the backward
        # dynamics send `to` to `from` under a
        "transitions": [
            {"from": labels[auto.trans[i][a]],
             "action": system.alphabet.label(a),
             "to": labels[i]}
            for i in range(len(auto.carrier))
            for a in range(len(system.alphabet))
        ],
        "accepting": [subset_label(system.states, auto.accepting)],
    }
    payload = {
        "automaton": automaton_json,
        "witness": {
            system.states.label(x): [subset_label(system.states, w)
                                     for w in auto.witness_sets(x)]
            for x in range(n)},
        "homomorphism": hom.ok,
        "redundant": [subset_label(system.states, w)
                      for w in redundant_members(auto)],
        "iterations": iterations,
    }
    if not hom.ok:
        payload["homomorphism_witness"] = hom.witness

    def lines(p):
        yield f"respecting subautomaton with {len(p['automaton']['states'])} states"
        yield "states: " + " ".join(p["automaton"]["states"])
        yield f"homomorphism: {p['homomorphism']}"
        yield "redundant: " + " ".join(p["redundant"])

    _emit(payload, args.json, lines)
    return 0


# Random instances for `check --adequacy`, one per family `check` runs.
_ADEQUACY_SYSTEMS = {
    "nda": lambda rng: random_nda(rng, max_states=4),
    "lwa": lambda rng: random_lwa(rng, max_states=4),
    "cts": lambda rng: random_cts(rng, max_conditions=3, max_states=4),
}


def _families(args) -> list[str]:
    """The family named by --random, else all three."""
    return [args.random] if args.random else list(_ADEQUACY_SYSTEMS)


def _run_law_checks(args, results: list) -> None:
    for family in _families(args):
        report = check_lifting_laws(family, trials=args.trials,
                                    seed=args.seed,
                                    corruption=args.corruption)
        results.append({
            "check": f"laws:{family}",
            "passed": report.all_passed,
            "detail": report.to_json(),
        })


def _run_adequacy_checks(args, results: list) -> None:
    if args.file:
        raw = read_json(args.file)
        system = load_system(raw)
        report = check_adequacy_expressivity(system)
        detail = report.to_json()
        if isinstance(system, OutputLts) and raw.get("semantics") == "failure":
            detail["assumptions"] = [REFUSAL_ASSUMPTION]
        results.append({
            "check": "adequacy:file",
            "passed": report.passed,
            "detail": detail,
        })
        return
    master = Lcg(args.seed)
    for family in _families(args):
        draw = _ADEQUACY_SYSTEMS[family]

        def run_part(part: range) -> list:
            failures = []
            for i in part:
                report = check_adequacy_expressivity(draw(master.spawn(i)))
                if not report.passed:
                    failures.append({"trial": i, "report": report.to_json()})
            return failures

        failures = [f for part in run_trials(args.trials, run_part) for f in part]
        results.append({
            "check": f"adequacy:{family}",
            "passed": not failures,
            "detail": {"trials": args.trials, "failures": failures},
        })


def cmd_check(args) -> int:
    if not args.laws and not args.adequacy:
        raise SchemaError("nothing to check: pass --laws and/or --adequacy")
    if args.corruption is not None and not args.laws:
        raise SchemaError("--corruption needs --laws")
    if args.file and not args.adequacy:
        raise SchemaError("FILE is read only by --adequacy")
    if args.file and args.random:
        raise SchemaError("pass FILE or --random, not both")
    if args.trials < 1:
        raise SchemaError("trials must be at least 1")
    # an unknown corruption is refused before any suite runs, in the
    # words of check_lifting_laws
    for family in _families(args):
        if args.corruption not in (None, *CORRUPTIONS[family]):
            raise SchemaError(
                f"unknown corruption {args.corruption!r} for {family}")
    results: list[dict] = []
    if args.laws:
        _run_law_checks(args, results)
    if args.adequacy:
        _run_adequacy_checks(args, results)
    payload = {
        "all_passed": all(r["passed"] for r in results),
        "checks": results,
    }
    if args.laws or not args.file:     # a FILE adequacy check draws nothing
        payload.update(seed=args.seed, trials=args.trials)

    def lines(p):
        for r in p["checks"]:
            yield f"{r['check']}: {'pass' if r['passed'] else 'FAIL'}"
        yield f"all: {'pass' if p['all_passed'] else 'FAIL'}"

    _emit(payload, args.json, lines)
    return 0 if payload["all_passed"] else 1


def cmd_eval(args) -> int:
    system = load_file(args.file)
    if isinstance(system, Cts):
        if args.formula is None and args.depth is not None:
            _, gens = cts_logical_analysis(system, args.depth)
            n = len(system.states)
            payload = {"formulas": [
                {"formula": formula.render(),
                 "satisfied": [
                     f"{system.conditions.label(i // n)}:"
                     f"{system.states.label(i % n)}"
                     for i in range(len(system.conditions) * n)
                     if mask >> i & 1]}
                for mask, formula in gens]}
            _emit(payload, args.json,
                  lambda p: (f"{e['formula']}: " + " ".join(e["satisfied"])
                             for e in p["formulas"]))
            return 0
        if not args.formula:
            raise SchemaError("cts evaluation needs --formula or --depth")
        formula = parse_cts_formula(args.formula)
        sat = eval_cts(system, formula)
        n = len(system.states)
        payload = {
            "formula": formula.render(),
            "satisfied": [
                {"cond": system.conditions.label(k),
                 "state": system.states.label(x)}
                for k in range(len(system.conditions))
                for x in range(n)
                if sat >> (k * n + x) & 1],
        }
        _emit(payload, args.json,
              lambda p: (f"{e['cond']}:{e['state']}" for e in p["satisfied"]))
        return 0

    # nda, lwa and moore: the observation after one word, or the table
    if isinstance(system, Lwa):
        spec, flag, parse = args.vector or args.state, "--vector", _parse_vector
        key, shown = "weight", format_rational
    else:
        spec, flag, parse = args.subset or args.state, "--subset", _parse_state_set
        if isinstance(system, Nda):
            key, shown = "accepted", bool
        else:
            key, shown = "output", system.show
    if spec is None:
        raise SchemaError(f"evaluation needs a start: --state or {flag}")
    start = parse(system, spec)
    if args.word is not None:
        word = parse_word(system.alphabet, args.word)
        payload = {"word": render_word(system.alphabet, word),
                   key: shown(eval_word(system, start, word))}
        if isinstance(system, Lwa):
            lines = lambda p: [f"{p['word']} = {p['weight']}"]
        else:
            lines = lambda p: [json.dumps(p, sort_keys=True)]
        _emit(payload, args.json, lines)
        return 0
    table = theory_word(system, start, args.maxlen)
    payload = {"theory": dict(sorted(
        (render_word(system.alphabet, w), shown(v)) for w, v in table.items()))}
    _emit(payload, args.json,
          lambda p: (f"{w} = {v}" for w, v in sorted(p["theory"].items())))
    return 0


def cmd_determinize(args) -> int:
    _refuse_cap_past_ceiling(args)
    system = load_file(args.file)
    # backward determinization is the subset construction of the
    # reversed automaton, started from the same initials
    if args.direction == "backward":
        if not isinstance(system, Nda):
            raise SchemaError("backward determinization expects an nda")
        dynamics = system.reverse()
    elif isinstance(system, (Nda, OutputLts)):
        dynamics = system
    else:
        raise SchemaError("forward determinization expects nda or moore")
    n = len(system.states)
    if args.initials:
        initials = [_parse_state_set(system, s) for s in args.initials]
    else:
        if n > args.cap:
            raise CapExceeded(f"default initials need {n} <= cap {args.cap}")
        initials = range(1 << n)
    machine = moore_determinize(dynamics, initials, args.cap)
    labels = [machine.label(i) for i in range(len(machine.subset_states))]
    payload = {
        "direction": args.direction,
        "states": labels,
        "transitions": [
            {"from": labels[i],
             "action": system.alphabet.label(a),
             "to": labels[target]}
            for i, row in enumerate(machine.trans)
            for a, target in enumerate(row)],
    }
    if args.direction == "backward":
        payload["accepting"] = subset_label(system.states, system.accepting)
    else:
        shown = bool if isinstance(system, Nda) else system.show
        payload["outputs"] = {labels[i]: shown(o) for i, o in enumerate(machine.out)}
    _emit(payload, args.json,
          lambda p: (f"{t['from']} --{t['action']}--> {t['to']}"
                     for t in p["transitions"]))
    return 0


# --------------------------------------------------------------- argparser

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `error:` line and exit 2,
    like every other input error; subcommand parsers share the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and kept for the process;
    each subcommand `x` runs the module's `cmd_x`."""
    parser = _Parser(
        prog="behaveq",
        description="behavioural equivalence toolkit for finite systems "
                    "with side effects")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=False):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")
        if cap:
            p.add_argument("--cap", type=int, default=12,
                           help="at most 2^CAP subset positions (default 12, "
                                f"at most {MAX_CAP})")

    p = sub.add_parser("equiv", help="equivalence classes or a pairwise verdict")
    p.add_argument("file")
    p.add_argument("--pair", nargs=2, metavar="SPEC",
                   help="two subset/state/vector specs to compare")
    p.add_argument("--semantics", choices=SEMANTICS,
                   help="override output semantics for bare moore inputs")
    common(p, cap=True)

    p = sub.add_parser("quotient",
                       help="equivalence-respecting backward subautomaton")
    p.add_argument("file")
    p.add_argument("--identity-eq", action="store_true",
                   help="use the identity equivalence (full backward DFA)")
    common(p)

    p = sub.add_parser("check", help="law suite and adequacy checks")
    p.add_argument("file", nargs="?")
    p.add_argument("--random", choices=("nda", "lwa", "cts"),
                   help="run on random instances of this family")
    p.add_argument("--laws", action="store_true")
    p.add_argument("--adequacy", action="store_true")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corruption",
                   help="inject a named corruption into the law suite")
    common(p)

    p = sub.add_parser("eval", help="evaluate a word or formula")
    p.add_argument("file")
    p.add_argument("--state", help="state label")
    p.add_argument("--subset", help="subset spec like '{x,y}'")
    p.add_argument("--vector", help="vector spec like '[1/2,0]'")
    p.add_argument("--word", help="word, plain or bracketed")
    p.add_argument("--formula", help="modal formula for cts inputs")
    p.add_argument("--depth", type=int,
                   help="for cts inputs: list generating formulas, one "
                        "box per position and level, that decide logical "
                        "equivalence up to this box depth")
    p.add_argument("--maxlen", type=int, default=2,
                   help="table depth when no --word is given")
    common(p)

    p = sub.add_parser("determinize", help="dump a determinized machine")
    p.add_argument("file")
    p.add_argument("--direction", choices=("forward", "backward"),
                   default="forward")
    p.add_argument("--initials", nargs="*",
                   help="initial subset specs (default: full powerset)")
    common(p, cap=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so that a rebinding of a cmd_* name is seen
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (SchemaError, CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: exit 2 (input error), never 1
        detail = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}" + (f": {detail}" if detail else ""),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
