"""Formula syntax, theory maps, and adequacy/expressivity verdicts.

Words are action-index tuples read through a system's one-step
dynamics (`post`/`observe` in `systems`); conditional systems get a
box/Boolean modal grammar.
An adequacy check compares two block arrays, one key per position: the
behavioural equivalence (fixpoint engine or invariant subspace) and the
logical one, computed along an independent route, backward, as the
predicates that formulas denote: for automata and Moore systems, the
word predicates pre_w(O) of the backward subset construction that a
subset meets; the values on a backward Krylov basis of the output for
weighted automata; for conditional systems, the box/Boolean logic's
equivalence, from one box per position and level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul, or_
from typing import Iterable, Sequence

from .core import (
    BitRel,
    CapExceeded,
    Carrier,
    DimensionMismatch,
    bits,
    block_classes,
    format_rational,
    orthogonal_tests,
)
from .equivalence import (
    cts_conditional_bisim,
    lwa_pair,
    lwa_observation_basis,
    lwa_trace,  # unused here; perfbench/spans.py counts calls through this name
    lwa_unobservable_subspace,
    moore_equiv,
    moore_pair_oracle,
)
from .liftings import cts_box
from .systems import Cts, Lwa, Nda, OutputLts, moore_determinize, word_dynamics

Word = tuple[int, ...]

_FORMULA_CAP_BITS = 16

# Largest observation table `theory_word` builds, in cells: one per word
# and one per letter of it.  That allows words of 14 letters on two
# actions, and of about a thousand on one.
_TABLE_CAP_CELLS = 1 << 19

# Deepest formula nesting accepted by `parse_cts_formula`: far enough
# inside the interpreter's recursion limit for evaluation and rendering.
_FORMULA_MAX_DEPTH = 256


def render_word(alphabet: Carrier, word: Sequence[int]) -> str:
    return "".join(f"[{alphabet.label(a)}]" for a in word) + "↓"


def parse_word(alphabet: Carrier, text: str) -> Word:
    text = text.strip()
    if text.endswith("↓"):
        text = text[:-1]
    if not text:
        return ()
    if "[" in text:
        out = []
        rest = text
        while rest:
            if not rest.startswith("["):
                raise ValueError(f"malformed word {text!r}")
            close = rest.index("]")
            out.append(alphabet.index(rest[1:close]))
            rest = rest[close + 1:]
        return tuple(out)
    if any(len(name) != 1 for name in alphabet.names):
        raise ValueError("plain-letter words need single-character actions; "
                         "use the [action] form")
    return tuple(alphabet.index(ch) for ch in text)


@dataclass(frozen=True)
class CtsFormula:
    """Modal formula over conditional systems: tt, negation, conjunction, box."""

    op: str
    children: tuple["CtsFormula", ...]

    def render(self) -> str:
        if self.op == "tt":
            return "tt"
        if self.op == "neg":
            return "¬" + self.children[0].render()
        if self.op == "box":
            return "□" + self.children[0].render()
        a, b = self.children
        return f"({a.render()}∧{b.render()})"


TT = CtsFormula("tt", ())


def neg(f: CtsFormula) -> CtsFormula:
    return CtsFormula("neg", (f,))


def conj(a: CtsFormula, b: CtsFormula) -> CtsFormula:
    return CtsFormula("and", (a, b))


def box(f: CtsFormula) -> CtsFormula:
    return CtsFormula("box", (f,))


def conj_all(fs: Sequence[CtsFormula]) -> CtsFormula:
    if not fs:
        return TT
    out = fs[0]
    for f in fs[1:]:
        out = conj(out, f)
    return out


def disj_all(fs: Sequence[CtsFormula]) -> CtsFormula:
    if not fs:
        return neg(TT)
    if len(fs) == 1:
        return fs[0]
    return neg(conj_all([neg(f) for f in fs]))


def parse_cts_formula(text: str) -> CtsFormula:
    """Parse tt, !/¬, []/□, &/∧ and parentheses.

    Parsing, evaluation and rendering all recurse on the formula, so
    both the parser's own nesting and the height of the built formula
    are bounded by `_FORMULA_MAX_DEPTH`; deeper input is a ValueError.
    """
    src = (text.replace("¬", "!").replace("∧", "&")
           .replace("□", "[]").replace("not ", "!").replace("box ", "[]"))
    pos = 0

    def bounded(depth: int) -> int:
        if depth > _FORMULA_MAX_DEPTH:
            raise ValueError(
                f"formula nests deeper than {_FORMULA_MAX_DEPTH} levels")
        return depth

    def skip():
        nonlocal pos
        while pos < len(src) and src[pos].isspace():
            pos += 1

    # Each returns the parsed formula with its height; `depth` is the
    # number of parser frames on the stack, this one included.
    def formula(depth: int) -> tuple[CtsFormula, int]:
        nonlocal pos
        left, height = unary(depth + 1)
        skip()
        while pos < len(src) and src[pos] == "&":
            pos += 1
            right, right_height = unary(depth + 1)
            left, height = conj(left, right), bounded(max(height, right_height) + 1)
            skip()
        return left, height

    def unary(depth: int) -> tuple[CtsFormula, int]:
        nonlocal pos
        bounded(depth)
        skip()
        if src.startswith("!", pos):
            pos += 1
            inner, height = unary(depth + 1)
            return neg(inner), bounded(height + 1)
        if src.startswith("[]", pos):
            pos += 2
            inner, height = unary(depth + 1)
            return box(inner), bounded(height + 1)
        if src.startswith("tt", pos):
            pos += 2
            return TT, 0
        if src.startswith("(", pos):
            pos += 1
            inner = formula(depth + 1)
            skip()
            if not src.startswith(")", pos):
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            pos += 1
            return inner
        raise ValueError(f"cannot parse formula at {src[pos:]!r}")

    out, _ = formula(1)
    skip()
    if pos != len(src):
        raise ValueError(f"trailing input in formula {text!r}")
    return out


def eval_cts(cts: Cts, formula: CtsFormula) -> int:
    """Satisfaction set of a formula as a bitmask over condition/state pairs."""
    total = len(cts.conditions) * len(cts.states)
    full = (1 << total) - 1
    if formula.op == "tt":
        return full
    if formula.op == "neg":
        return full & ~eval_cts(cts, formula.children[0])
    if formula.op == "and":
        return eval_cts(cts, formula.children[0]) & eval_cts(cts, formula.children[1])
    return cts_box(cts, eval_cts(cts, formula.children[0]))


def theory_word(system, start, maxlen: int) -> dict[Word, object]:
    """Observation table over all words up to `maxlen`, in
    length-then-action order.

    Automata observe acceptance, weighted automata the trace weight,
    Moore systems the union of the output sets (as a mask).
    A table above `_TABLE_CAP_CELLS` cells is refused.
    """
    if maxlen < 0:
        raise ValueError("maxlen must be nonnegative")
    post, observe = word_dynamics(system)
    actions = range(len(system.alphabet))
    table: dict[Word, object] = {}
    frontier, cells = [((), start)], 1
    for length in range(maxlen + 1):
        for word, config in frontier:
            table[word] = observe(config)
        if length < maxlen:
            cells += len(frontier) * len(actions) * (length + 2)
            if cells > _TABLE_CAP_CELLS:
                raise CapExceeded(
                    f"table of words up to length {maxlen} exceeds the cap of "
                    f"{_TABLE_CAP_CELLS} cells (one per word and per letter)")
            frontier = [(word + (a,), post(config, a))
                        for word, config in frontier for a in actions]
    return table


# ------------------------------------------------------------ CTS formulas

def cts_logical_analysis(cts: Cts, depth: int):
    """Logical equivalence of the box/Boolean logic to a box depth.

    Returns (partitions, generators).  partitions[d] gives each
    condition/state position k*|X| + x a block id, numbered by first
    appearance; two positions share one iff they are of one condition
    and every generator found by level d treats them alike.  Generators
    are predicates with their formulas, each level's extending the
    previous level's.  The partitions end at the first level after
    which nothing is added; the last holds at every deeper depth.

    A level's atoms are the classes of positions that its generators
    treat alike.  For a union S of atoms, p satisfies box(S) iff S
    contains U_p, the union of the atoms that p's successors meet; so
    the boxes of the sets U_p separate what the boxes of all unions do
    (Hennessy and Milner), and a level appends one box per position.
    Atom a is met from p iff p is outside the box of a's complement, so
    only `cts_box` reads the system.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    nk, n = len(cts.conditions), len(cts.states)
    total = nk * n
    if total > _FORMULA_CAP_BITS:
        raise CapExceeded(
            f"formula enumeration over {total} condition/state pairs "
            f"exceeds the cap of {_FORMULA_CAP_BITS}")
    full = (1 << total) - 1
    gens: list[tuple[int, CtsFormula]] = [(full, TT)]
    known = {full}
    partitions = []
    while True:
        profiles = [tuple(g >> i & 1 for g, _ in gens) for i in range(total)]
        ids: dict[tuple, int] = {}
        partitions.append(tuple([ids.setdefault((i // n, prof), len(ids))
                                 for i, prof in enumerate(profiles)]))
        if len(partitions) > depth:
            break
        masks: dict[tuple, int] = {}
        for i, prof in enumerate(profiles):
            masks[prof] = masks.get(prof, 0) | 1 << i
        atoms = []
        for prof, mask in sorted(masks.items()):
            # defining conjunction; satisfied tt conjuncts add nothing
            parts = [g_formula if keep else neg(g_formula)
                     for keep, (g_mask, g_formula) in zip(prof, gens)
                     if not (keep and g_mask == full)]
            atoms.append((mask, cts_box(cts, full & ~mask), conj_all(parts)))
        unions: dict[int, list[CtsFormula]] = {}
        for p in range(total):
            met = [(mask, formula) for mask, missed, formula in atoms
                   if not missed >> p & 1]
            unions.setdefault(sum(mask for mask, _ in met),
                              [formula for _, formula in met])
        size = len(gens)
        for union, formulas in unions.items():
            boxed = cts_box(cts, union)
            if boxed not in known:
                known.add(boxed)
                gens.append((boxed, box(disj_all(formulas))))
        if len(gens) == size:
            break
    return tuple(partitions), gens


def cts_distinguishing_formula(gens, i: int, j: int) -> str | None:
    """The first generator that holds at exactly one of positions i, j."""
    for mask, formula in gens:
        if (mask >> i & 1) != (mask >> j & 1):
            return formula.render()
    return None


# --------------------------------------------------------------- the check

@dataclass(frozen=True)
class EquivReport:
    """Outcome of an adequacy/expressivity check.

    adequate: behavioural pairs are never logically separated.
    expressive: logically equal pairs are behaviourally equal.
    """

    family: str
    adequate: bool
    expressive: bool
    behavioural_classes: tuple[tuple[str, ...], ...]
    logical_classes: tuple[tuple[str, ...], ...]
    counterexamples: tuple[dict, ...]
    iterations: int
    depth_saturated: bool | None = None

    @property
    def passed(self) -> bool:
        """Adequate, expressive, and not shown unsaturated in depth."""
        return self.adequate and self.expressive and self.depth_saturated is not False

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "adequate": self.adequate,
            "expressive": self.expressive,
            "behavioural_classes": [list(c) for c in self.behavioural_classes],
            "logical_classes": [list(c) for c in self.logical_classes],
            "counterexamples": list(self.counterexamples),
            "iterations": self.iterations,
            "depth_saturated": self.depth_saturated,
            "assumptions": [],  # the CLI names its own
        }


def _report(family, labels, behavioural_keys: Sequence, logical_keys: Sequence,
            formula, note: str, iterations: int, **extra) -> EquivReport:
    """Compare two equivalences over labelled positions, each given by
    one hashable key per position, pair by pair in (i, j) order: a
    behavioural pair the logic separates is an adequacy counterexample
    with `formula(i, j)`, a logical pair the behaviour separates an
    expressivity counterexample with `note`.  Each position's class is
    a mask, so a row's disagreements are the bits of one xor."""
    behavioural, logical = (BitRel.from_blocks(keys)
                            for keys in (behavioural_keys, logical_keys))
    counterexamples = []
    for i, (beh_row, log_row) in enumerate(zip(behavioural.rows, logical.rows)):
        for j in bits(beh_row ^ log_row):
            pair = [labels[i], labels[j]]
            if beh_row >> j & 1:
                counterexamples.append({"pair": pair, "kind": "adequacy",
                                        "formula": formula(i, j)})
            else:
                counterexamples.append({"pair": pair, "kind": "expressivity",
                                        "note": note})
    labelled = lambda keys: tuple(
        tuple(labels[i] for i in cls) for cls in block_classes(keys))
    return EquivReport(
        family=family,
        adequate=behavioural <= logical,
        expressive=logical <= behavioural,
        behavioural_classes=labelled(behavioural_keys),
        logical_classes=labelled(logical_keys),
        counterexamples=tuple(counterexamples),
        iterations=iterations,
        **extra,
    )


def _word_keys(system: Nda | OutputLts, configs: Sequence[int]) -> list[int]:
    """Logical key of each subset: the mask of the word predicates it
    meets.

    The predicates are the sets pre_w(O) of states from which word w
    leads into O, one set O per observed bit: the accepting states of an
    automaton, and for a Moore system the states whose output has bit
    j.  After w a subset shows bit j exactly when it meets pre_w(O_j), so
    two subsets are told apart by a word iff they meet different
    predicates.  These are the positions of the backward subset
    construction from the sets O, the determinized reversal (Brzozowski),
    under the subset cap.  A subset meets a predicate iff one of its
    members lies in it, so its key is the union of its members' keys.
    """
    if isinstance(system, Nda):
        targets = [system.accepting]
    else:
        targets = [sum(1 << x for x, out in enumerate(system.output) if out >> j & 1)
                   for j in range(max(system.output, default=0).bit_length())]
    member = [0] * len(system.states)
    predicates = moore_determinize(system.reverse(), targets).subset_states
    for i, predicate in enumerate(predicates):
        for x in bits(predicate):
            member[x] |= 1 << i
    return [reduce(or_, [member[x] for x in bits(c)], 0) for c in configs]


def check_adequacy_expressivity(system, initials: Iterable[int] | None = None,
                                vectors: Sequence[Sequence] | None = None) -> EquivReport:
    """Compute behavioural and logical equivalence along independent
    routes and compare them.

    Automata/Moore: fixpoint on the determinized machine vs the word
    predicates each subset meets (`_word_keys`), with each
    counterexample's word from the pair search.  Weighted:
    invariant-subspace verdict vs the values on the backward Krylov
    basis of the output, with each counterexample's word from
    `lwa_pair`.  Conditional: bisimulation
    fixpoint vs `cts_logical_analysis`, one box per position and level,
    at the fixpoint depth, with a saturation check one level deeper.
    """
    if isinstance(system, (Nda, OutputLts, Lwa)):
        if isinstance(system, Lwa):
            n = len(system.states)
            if vectors is None:
                configs = [tuple(Fraction(int(i == x)) for i in range(n))
                           for x in range(n)]
                labels = list(system.states.names)
            else:
                configs = [tuple(Fraction(v) for v in vec) for vec in vectors]
                labels = ["[" + ",".join(format_rational(v) for v in vec) + "]"
                          for vec in configs]
            if any(len(p) != n for p in configs):
                raise DimensionMismatch(
                    "configuration length does not match state count")
            # p - q lies in the unobservable subspace iff p and q agree
            # on each of its orthogonal tests
            tests = orthogonal_tests(lwa_unobservable_subspace(system))
            behavioural = [tuple(sum(map(mul, p, z)) for z in tests) for p in configs]
            # p - q weighs 0 on every word iff p and q take equal values
            # on the backward basis, whose vectors span every M_w . out
            basis = [vec for _, vec in lwa_observation_basis(system)]
            logical = [tuple(sum(map(mul, p, v)) for v in basis) for p in configs]
            family, search, iterations = "lwa", lwa_pair, n
            note = ("trace tables agree to the stabilisation bound but the "
                    "subspace separates the pair")
        else:
            family = "nda" if isinstance(system, Nda) else "moore"
            search = moore_pair_oracle
            equiv = moore_equiv(system, initials)
            configs = equiv.machine.subset_states
            labels = equiv.machine.labels
            behavioural, iterations = equiv.blocks, equiv.iterations
            note = ("no distinguishing word exists but the behavioural "
                    "relation separates the pair")
            logical = _word_keys(system, configs)
        return _report(
            family, labels, behavioural, logical,
            lambda i, j: render_word(system.alphabet,
                                     search(system, configs[i], configs[j]).witness),
            note, iterations)

    if isinstance(system, Cts):
        result = cts_conditional_bisim(system)
        depth = result.iterations
        # one enumeration serves both depths: depth d's generators are a
        # prefix of depth d + 1's, so a pair separated at depth d has the
        # same first separating generator in both; the last partition
        # holds at every deeper depth
        partitions, gens = cts_logical_analysis(system, depth + 1)
        logical, deeper = (partitions[min(d, len(partitions) - 1)]
                           for d in (depth, depth + 1))
        n = len(system.states)
        labels = [f"{system.conditions.label(p // n)}:{system.states.label(p % n)}"
                  for p in range(len(system.conditions) * n)]
        behavioural = [(k, b) for k, slice_blocks in enumerate(result.blocks)
                       for b in slice_blocks]
        return _report(
            "cts", labels, behavioural, logical,
            lambda i, j: cts_distinguishing_formula(gens, i, j),
            "no formula separates the pair but the bisimulation fixpoint does",
            result.iterations, depth_saturated=(deeper == logical))

    raise ValueError(f"no adequacy check for {type(system).__name__}")
