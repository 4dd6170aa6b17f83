"""One-step distribution laws, modalities, relation liftings, and the
sampling law suite.

The concrete evaluators here are the executable forms used by the
equivalence engines and logics.  `check_lifting_laws` replays, on
randomly generated finite instances, every structural law the concrete
forms are supposed to satisfy (unit/multiplication squares for the
distribution laws, compatibility of the collected one-step table with
flattening, naturality, meet and equality preservation, and agreement
of each derived form with the generic pullback recipe).  Deliberate
corruptions can be injected by name; the suite must catch each one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (BitRel, Subspace, as_rational, bits, echelonize, nullspace,
                   orthogonal_tests, preimage_subspace)
from .rng import (WEIGHT_GRID, Lcg, random_cts, random_lwa, random_nda,
                  random_vector, run_trials)
from .systems import Cts, DeterminizedMachine, Lwa, forward_determinize


@dataclass(frozen=True)
class Step:
    """One-step behaviour: an action with a target payload, or a stop marker.

    Payload types vary with the context (a state index, a subset, a
    weight vector); only the shape is fixed here.
    """

    action: object
    target: object

    @classmethod
    def act(cls, action, target) -> "Step":
        return cls(action, target)

    @property
    def is_stop(self) -> bool:
        return self.action is None

    def __repr__(self):
        if self.is_stop:
            return "stop"
        return f"({self.action},{_show(self.target)})"


STOP = Step(None, None)

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class NdaStepTable:
    """Collected one-step view of a set of steps: per-action successor
    sets plus a termination flag."""

    succ: tuple[frozenset, ...]
    accept: bool


@dataclass(frozen=True)
class LwaStepTable:
    """Collected one-step view of a weighted step bag: per-action vectors
    plus an output weight."""

    slices: tuple[tuple[Fraction, ...], ...]
    weight: Fraction


def nda_dist_law(step: Step) -> frozenset[Step]:
    """Push a set-valued target out of one step: (a,U) to {a} x U."""
    if step.is_stop:
        return frozenset({STOP})
    return frozenset(Step.act(step.action, x) for x in step.target)


def nda_det_step(steps: Iterable[Step], num_actions: int) -> NdaStepTable:
    """Collect a set of steps into the deterministic one-step table."""
    succ = [set() for _ in range(num_actions)]
    accept = False
    for s in steps:
        if s.is_stop:
            accept = True
        else:
            succ[s.action].add(s.target)
    return NdaStepTable(tuple(frozenset(s) for s in succ), accept)


def lwa_dist_law(step: Step) -> dict[Step, Fraction]:
    """Weighted analogue of `nda_dist_law`; targets are weight vectors."""
    if step.is_stop:
        return {STOP: _ONE}
    return {
        Step.act(step.action, x): as_rational(w)
        for x, w in enumerate(step.target) if w
    }


def lwa_det_step(bag: Mapping[Step, Fraction], num_states: int,
                 num_actions: int) -> LwaStepTable:
    """Collect a weighted bag of steps into per-action vectors and weight."""
    slices = [[_ZERO] * num_states for _ in range(num_actions)]
    weight = _ZERO
    for s, w in bag.items():
        if not w:
            continue
        if s.is_stop:
            weight += w
        else:
            slices[s.action][s.target] += w
    return LwaStepTable(tuple(tuple(row) for row in slices), weight)


def cts_dist_law(k: int, targets: frozenset) -> frozenset[tuple]:
    """Spread a condition over a successor set: (k,U) to {k} x U."""
    return frozenset((k, x) for x in targets)


def nda_modality(machine: DeterminizedMachine, kind, region: int = 0) -> int:
    """Machine-level modality on subset-state positions.

    kind "accept" selects the accepting positions; an action index a
    selects positions whose unique a-successor lies in `region` (a
    bitmask over positions).
    """
    if kind == "accept":
        return sum(1 << i for i, o in enumerate(machine.out) if o)
    if not isinstance(kind, int) or not (0 <= kind < len(machine.alphabet)):
        raise ValueError(f"unknown action {kind!r}")
    out = 0
    for i, row in enumerate(machine.trans):
        if region >> row[kind] & 1:
            out |= 1 << i
    return out


def cts_box(cts: Cts, region: int) -> int:
    """Box modality on condition/state pairs, index k*|X| + x.

    (k,x) is selected iff every k-successor of x is in `region` at k.
    """
    n = len(cts.states)
    out = 0
    for k in range(len(cts.conditions)):
        slice_k = (region >> (k * n)) & ((1 << n) - 1)
        for x in range(n):
            if cts.delta[k][x] & ~slice_k == 0:
                out |= 1 << (k * n + x)
    return out


def lwa_modality(lwa: Lwa, kind, p: Sequence, region=None) -> bool:
    """Weighted modality at a configuration vector.

    An action kind tests `region` (a Subspace or predicate callable) at
    the stepped vector; a rational kind tests the output weight.
    """
    if isinstance(kind, int) and 0 <= kind < len(lwa.alphabet):
        stepped = lwa.post(p, kind)
        if isinstance(region, Subspace):
            return region.contains(stepped)
        return bool(region(stepped))
    return lwa.observe(p) == Fraction(kind)


def cts_rel_lift(rel: BitRel, u: int, v: int) -> bool:
    """Two-sided simulation condition between two masks over the
    carrier of `rel`: every member of u is related to a member of v,
    and every member of v to a member of u.

    On condition/state positions k*|X| + x, the masks of condition k
    are its successor sets shifted by k*|X|.
    """
    image = 0
    for x in bits(u):
        row = rel.rows[x] & v
        if not row:
            return False
        image |= row
    return image == v


# --------------------------------------------------------------------------
# Law suite
# --------------------------------------------------------------------------

_MAX_FAILURES = 4


def _show(value) -> str:
    """Deterministic rendering of nested sets/dicts/tuples for reports."""
    if isinstance(value, frozenset) or isinstance(value, set):
        return "{" + ",".join(sorted(_show(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted((_show(k), _show(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(_show(v) for v in value) + ")"
    if isinstance(value, Subspace):
        return f"span{_show(value.basis)}"
    return repr(value)


@dataclass(frozen=True)
class LawResult:
    law: str
    trials: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"law": self.law, "trials": self.trials,
                "passed": self.passed, "failures": list(self.failures)}


@dataclass(frozen=True)
class LawReport:
    family: str
    seed: int
    corruption: str | None
    results: tuple[LawResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, law: str) -> LawResult:
        for r in self.results:
            if r.law == law:
                return r
        raise KeyError(law)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "seed": self.seed,
            "corruption": self.corruption,
            "all_passed": self.all_passed,
            "laws": [r.to_json() for r in self.results],
        }


class _Suite:
    """Collects per-law failures across sampled trials."""

    def __init__(self, laws: Sequence[str], trials: int):
        self.trials = trials
        self.failures: dict[str, list[dict]] = {law: [] for law in laws}

    def full(self, law: str) -> bool:
        """Whether `law` already holds its last reportable failure, so
        that evaluating it again cannot change the report."""
        return len(self.failures[law]) >= _MAX_FAILURES

    def record(self, law: str, **ce):
        if not self.full(law):
            self.failures[law].append({k: _show(v) if not isinstance(v, str) else v
                                       for k, v in ce.items()})

    def report(self, family: str, seed: int, corruption) -> LawReport:
        results = tuple(LawResult(law, self.trials, tuple(fails))
                        for law, fails in self.failures.items())
        return LawReport(family, seed, corruption, results)


# ---------------------------------------------------------------- NDA laws

def _powerset(items) -> list[frozenset]:
    items = list(items)
    return [frozenset(c) for r in range(len(items) + 1)
            for c in itertools.combinations(items, r)]


def _nda_kit() -> dict:
    return {"dist": nda_dist_law, "det": nda_det_step,
            "sigma_pred": _nda_sigma_pred, "lift_rel": _nda_lift_rel}


def _nda_sigma_pred(carrier_size: int, num_actions: int, kind,
                    region: frozenset) -> frozenset:
    """Predicate lifting at the deterministic-branching level.

    Elements of the lifted carrier are (successor table, flag) pairs
    over an abstract carrier 0..carrier_size-1.
    """
    out = []
    for p in itertools.product(range(carrier_size), repeat=num_actions):
        for b in (False, True):
            if kind == "stop":
                ok = b
            else:
                ok = p[kind] in region
            if ok:
                out.append((p, b))
    return frozenset(out)


def _nda_lift_rel(rel_pairs, t1: NdaStepTable, t2: NdaStepTable) -> bool:
    """Derived relation lifting on collected tables, with the relation
    as a set of pairs of target sets."""
    if t1.accept != t2.accept:
        return False
    return rel_pairs.issuperset(zip(t1.succ, t2.succ))


def _nda_lift_pred(table: NdaStepTable, kind, region: frozenset) -> bool:
    """Derived predicate lifting: slice membership, or the stop marker."""
    if kind == "stop":
        return table.accept
    return table.succ[kind] in region


# Deliberately broken maps, one per named corruption, and per family the
# table name -> (the law it must trip, the kit entry it replaces, the map).

def _nda_dist_drops_stop(step: Step) -> frozenset[Step]:
    if step.is_stop:
        return frozenset()
    return nda_dist_law(step)


def _nda_det_accepts_only_stop(steps, num_actions: int) -> NdaStepTable:
    steps = frozenset(steps)
    table = nda_det_step(steps, num_actions)
    return NdaStepTable(table.succ, STOP in steps and len(steps) == 1)


def _nda_sigma_odd_stop(carrier_size, num_actions, kind, region) -> frozenset:
    if carrier_size % 2 == 1 and kind != "stop":
        kind = "stop"
    return _nda_sigma_pred(carrier_size, num_actions, kind, region)


def _nda_lift_ignores_stop(rel_pairs, t1: NdaStepTable, t2: NdaStepTable) -> bool:
    return rel_pairs.issuperset(zip(t1.succ, t2.succ))


def _nda_lift_any_action(rel_pairs, t1: NdaStepTable, t2: NdaStepTable) -> bool:
    if t1.accept != t2.accept:
        return False
    return not rel_pairs.isdisjoint(zip(t1.succ, t2.succ))


_NDA_CORRUPTIONS = {
    "dist-law": ("kleisli-unit", "dist", _nda_dist_drops_stop),
    "det-step": ("gamma-theta-mu", "det", _nda_det_accepts_only_stop),
    "sigma": ("pred-sigma-naturality", "sigma_pred", _nda_sigma_odd_stop),
    "lift": ("equality-preservation", "lift_rel", _nda_lift_ignores_stop),
    "meet": ("intersection-preservation", "lift_rel", _nda_lift_any_action),
}


def _random_subset(rng: Lcg, items: Sequence) -> frozenset:
    return frozenset(x for x in items if rng.bit())


def _replay(suite: _Suite, law: str, memo: dict, key, failures) -> None:
    """Record the failures of an instance that draws nothing, as a trial
    would; `failures()` runs only on the first use of `key` in a call,
    and not at all once `law` is full."""
    if suite.full(law):
        return
    if key not in memo:
        memo[key] = list(failures())
    for ce in memo[key]:
        suite.record(law, **ce)


def _nda_step_rows(memo: dict, num_states: int, num_actions: int) -> list:
    """Every set of steps over `num_states` targets and `num_actions`
    actions, in powerset order, each with its honest table; built once
    per call."""
    key = ("steps", num_states, num_actions)
    if key not in memo:
        steps = [STOP] + [Step.act(a, x) for a in range(num_actions)
                          for x in range(num_states)]
        memo[key] = [(u, nda_det_step(u, num_actions)) for u in _powerset(steps)]
    return memo[key]


def _check_nda_laws(suite: _Suite, rng: Lcg, kit: dict, memo: dict) -> None:
    dist, det = kit["dist"], kit["det"]
    sigma_pred, lift_rel = kit["sigma_pred"], kit["lift_rel"]

    nx = rng.randint(1, 4)
    m = rng.randint(1, 2)
    X = range(nx)
    fx = [STOP] + [Step.act(a, x) for a in range(m) for x in X]
    masks = _powerset(X)

    # Unit square of the distribution law, pointwise over F X.
    def unit_failures():
        for e in fx:
            wrapped = STOP if e.is_stop else Step.act(e.action, frozenset({e.target}))
            got = dist(wrapped)
            if got != frozenset({e}):
                yield {"element": e, "lhs": got, "rhs": frozenset({e})}

    _replay(suite, "kleisli-unit", memo, ("unit", nx, m), unit_failures)

    # Multiplication square, sampled over F T T X.
    samples = [STOP] + [Step.act(rng.randint(0, m - 1),
                                 frozenset(_random_subset(rng, masks)))
                        for _ in range(3)]
    if not suite.full("kleisli-mult"):
        for e in samples:
            if e.is_stop:
                flat = STOP
            else:
                flat = Step.act(e.action, frozenset(x for u in e.target for x in u))
            lhs = dist(flat)
            inner = dist(e) if e.is_stop else frozenset(
                Step.act(e.action, u) for u in e.target)
            rhs = frozenset(x for s in inner for x in dist(s))
            if lhs != rhs:
                suite.record("kleisli-mult", element=e, lhs=lhs, rhs=rhs)

    # Compatibility of the collected table with union-flattening,
    # sampled over T F T X.
    ftx = [STOP] + [Step.act(a, u) for a in range(m) for u in masks]
    for _ in range(3):
        w = _random_subset(rng, ftx)
        if suite.full("gamma-theta-mu"):
            continue
        flat = frozenset(x for s in w for x in dist(s))
        lhs = det(flat, m)
        nested = det(w, m)
        rhs = NdaStepTable(
            tuple(frozenset(x for u in nested.succ[a] for x in u)
                  for a in range(m)),
            nested.accept)
        if lhs != rhs:
            suite.record("gamma-theta-mu", element=w, lhs=lhs, rhs=rhs)

    # Naturality of the branching-level predicate lifting along functions.
    ny = rng.randint(1, 3)
    nx2 = rng.randint(1, 3)
    f = tuple(rng.randint(0, ny - 1) for _ in range(nx2))
    region = _random_subset(rng, range(ny))
    pullback = frozenset(x for x in range(nx2) if f[x] in region)
    if not suite.full("pred-sigma-naturality"):
        for kind in list(range(m)) + ["stop"]:
            lhs = sigma_pred(nx2, m, kind, pullback)
            upper = sigma_pred(ny, m, kind, region)
            rhs = frozenset(
                (p, b)
                for p in itertools.product(range(nx2), repeat=m)
                for b in (False, True)
                if (tuple(f[i] for i in p), b) in upper)
            if lhs != rhs:
                suite.record("pred-sigma-naturality", fn=f, kind=kind,
                             region=region, lhs=lhs, rhs=rhs)

    # Naturality of the composed predicate lifting along one-to-many maps.
    small_nx, small_ny = rng.randint(1, 2), rng.randint(1, 2)
    g = tuple(_random_subset(rng, range(small_ny)) for _ in range(small_nx))
    big_region = frozenset(_random_subset(rng, _powerset(range(small_ny)))
                           for _ in range(3))

    def g_hat(u: frozenset) -> frozenset:
        return frozenset(y for x in u for y in g[x])

    def step_image(ubar: frozenset) -> frozenset:
        out = set()
        for s in ubar:
            if s.is_stop:
                out.add(STOP)
            else:
                out.update(Step.act(s.action, y) for y in g[s.target])
        return frozenset(out)

    # Rows of (step set, its table, the table of its image); an image is
    # a step set over the small_ny targets, so its table is prebuilt too.
    image_tables = dict(_nda_step_rows(memo, small_ny, m))
    rows = [(u, table, image_tables[step_image(u)])
            for u, table in _nda_step_rows(memo, small_nx, m)]
    if not suite.full("pred-lift-naturality"):
        pulled = frozenset(u for u in _powerset(range(small_nx))
                           if g_hat(u) in big_region)
        for kind in list(range(m)) + ["stop"]:
            for ubar, table, image in rows:
                lhs = _nda_lift_pred(table, kind, pulled)
                rhs = _nda_lift_pred(image, kind, big_region)
                if lhs != rhs:
                    suite.record("pred-lift-naturality", map=g, kind=kind,
                                 steps=ubar, lhs=lhs, rhs=rhs)

    # Naturality of the composed relation lifting along one-to-many maps.
    rel = frozenset((u, v) for u in _powerset(range(small_ny))
                    for v in _powerset(range(small_ny)) if rng.bit())
    if not suite.full("rel-lift-naturality"):
        rel_pulled = frozenset((u, v) for u in _powerset(range(small_nx))
                               for v in _powerset(range(small_nx))
                               if (g_hat(u), g_hat(v)) in rel)
        for u, t1, image1 in rows:
            for v, t2, image2 in rows:
                lhs = lift_rel(rel_pulled, t1, t2)
                rhs = lift_rel(rel, image1, image2)
                if lhs != rhs:
                    suite.record("rel-lift-naturality", map=g, pair=(u, v),
                                 lhs=lhs, rhs=rhs)

    # Derived forms agree with the generic pullback recipe.  Derived
    # forms read the honest tables, recipes the kit's `det`.
    region_sets = frozenset(_random_subset(rng, masks) for _ in range(3))
    key = ("recipes", nx, m)
    if key not in memo:
        memo[key] = [(u, table, det(u, m))
                     for u, table in _nda_step_rows(memo, nx, m)]
    rows = memo[key]
    if not suite.full("pred-recipe-agreement"):
        for kind in list(range(m)) + ["stop"]:
            for ubar, table, recipe_table in rows:
                recipe = (recipe_table.accept if kind == "stop"
                          else recipe_table.succ[kind] in region_sets)
                derived = _nda_lift_pred(table, kind, region_sets)
                if recipe != derived:
                    suite.record("pred-recipe-agreement", kind=kind, steps=ubar,
                                 lhs=derived, rhs=recipe)

    rel2 = frozenset((u, v) for u in masks for v in masks if rng.bit())
    pair_samples = ([(a, b) for a in rows for b in rows]
                    if len(rows) <= 32 else
                    [(rng.choice(rows), rng.choice(rows)) for _ in range(200)])
    if not suite.full("rel-recipe-agreement"):
        for (u, table1, t1), (v, table2, t2) in pair_samples:
            recipe = t1.accept == t2.accept and all(
                (t1.succ[a], t2.succ[a]) in rel2 for a in range(m))
            derived = lift_rel(rel2, table1, table2)
            if recipe != derived:
                suite.record("rel-recipe-agreement", pair=(u, v),
                             lhs=derived, rhs=recipe)

    # Machine-level modality agrees with pulling the lifting back along
    # the dynamics.
    nda = random_nda(rng, max_states=3, max_actions=2)
    n, na = len(nda.states), len(nda.alphabet)
    machine = forward_determinize(nda, range(1 << n))
    # the region is drawn over the machine's positions, so the machine
    # is built even when the law is full
    position_region = sum(1 << i for i in range(len(machine.subset_states))
                          if rng.bit())
    if not suite.full("modality-recipe-agreement"):
        region_masks = frozenset(
            frozenset(bits(machine.subset_states[i]))
            for i in bits(position_region))
        tables = []
        for mask in machine.subset_states:
            ubar = set()
            if mask & nda.accepting:
                ubar.add(STOP)
            for x in bits(mask):
                for a, succ in enumerate(nda.delta[x]):
                    ubar.update(Step.act(a, x2) for x2 in bits(succ))
            tables.append(nda_det_step(frozenset(ubar), na))
        for kind in list(range(na)) + ["accept"]:
            got = nda_modality(machine, kind, position_region)
            for i, table in enumerate(tables):
                want = _nda_lift_pred(
                    table, "stop" if kind == "accept" else kind, region_masks)
                if bool(got >> i & 1) != want:
                    suite.record("modality-recipe-agreement", kind=kind,
                                 state=machine.label(i), lhs=bool(got >> i & 1),
                                 rhs=want)

    # Meet preservation of the relation lifting (two actions needed to
    # tell conjunction from disjunction), on the step sets over two
    # targets and two actions.
    masks2 = _powerset(range(2))
    r1 = frozenset((u, v) for u in masks2 for v in masks2 if rng.bit())
    r2 = frozenset((u, v) for u in masks2 for v in masks2 if rng.bit())
    r12 = r1 & r2
    fixed = _nda_step_rows(memo, 2, 2)
    if not suite.full("intersection-preservation"):
        for u, t1 in fixed:
            for v, t2 in fixed:
                meet = lift_rel(r12, t1, t2)
                both = lift_rel(r1, t1, t2) and lift_rel(r2, t1, t2)
                if meet != both:
                    suite.record("intersection-preservation", pair=(u, v),
                                 lhs=meet, rhs=both)

    # Lifting the identity relation yields the identity.
    def equality_failures():
        diag = frozenset((u, u) for u in masks2)
        for i, (u, t1) in enumerate(fixed):
            for j, (v, t2) in enumerate(fixed):
                related = lift_rel(diag, t1, t2)
                if related != (i == j):
                    yield {"pair": (u, v), "lhs": related, "rhs": i == j}

    _replay(suite, "equality-preservation", memo, ("equality",),
            equality_failures)


_NDA_LAWS = (
    "kleisli-unit", "kleisli-mult", "gamma-theta-mu",
    "pred-sigma-naturality", "pred-lift-naturality", "rel-lift-naturality",
    "pred-recipe-agreement", "rel-recipe-agreement",
    "modality-recipe-agreement",
    "intersection-preservation", "equality-preservation",
)


# ---------------------------------------------------------------- LWA laws

def _bag_norm(bag: Mapping) -> dict:
    return {k: v for k, v in bag.items() if v}


def _bag_eq(a: Mapping, b: Mapping) -> bool:
    return _bag_norm(a) == _bag_norm(b)


def _fx_index(num_states: int, num_actions: int):
    """Coordinates for vectors over steps: (a,x) blocks then the stop slot."""
    def index(step: Step) -> int:
        if step.is_stop:
            return num_actions * num_states
        return step.action * num_states + step.target
    return index, num_actions * num_states + 1


def lwa_lift_rows(tests: Sequence[Sequence], num_states: int,
                  num_actions: int) -> list[list[Fraction]]:
    """Defining rows of the weighted relation lifting, over step
    coordinates (`_fx_index`): the stop slot, and each test of W (a
    vector z with v in W iff v . z = 0) on each action slice.

    The lifting of W is their nullspace: stop weight zero and every
    action slice inside W.
    """
    index, dim = _fx_index(num_states, num_actions)
    stop_row = [_ZERO] * dim
    stop_row[index(STOP)] = _ONE
    rows = [stop_row]
    for a in range(num_actions):
        for z in tests:
            row = [_ZERO] * dim
            for x in range(num_states):
                row[index(Step.act(a, x))] = z[x]
            rows.append(row)
    return rows


def _lwa_lift_rel_subspace(space: Subspace, num_states: int,
                           num_actions: int) -> Subspace:
    """Lift a difference subspace through the weighted relation lifting:
    the nullspace of its defining rows, over step coordinates."""
    _, dim = _fx_index(num_states, num_actions)
    return nullspace(lwa_lift_rows(orthogonal_tests(space), num_states, num_actions),
                     dim)


def _lwa_kit() -> dict:
    return {"dist": lwa_dist_law, "det": lwa_det_step,
            "sigma_pred": _lwa_sigma_pred, "lift_subspace": _lwa_lift_rel_subspace}


def _lwa_sigma_pred(carrier_size, num_actions, kind, region, element) -> bool:
    """Membership test for the weighted branching-level lifting.

    `element` is a (successor table, weight) pair over an abstract
    carrier; `region` is a subset for action kinds and unused for
    weight kinds.
    """
    p, s = element
    if isinstance(kind, Fraction):
        return s == kind
    return p[kind] in region


def _lwa_dist_doubles(step: Step) -> dict[Step, Fraction]:
    if step.is_stop:
        return {STOP: _ONE}
    return {k: 2 * v for k, v in lwa_dist_law(step).items()}


def _lwa_det_drops_mixed_weight(bag, num_states, num_actions) -> LwaStepTable:
    table = lwa_det_step(bag, num_states, num_actions)
    support = len(_bag_norm(bag))
    return LwaStepTable(table.slices,
                        table.weight if support == 1 else _ZERO)


def _lwa_sigma_odd_zero(carrier_size, num_actions, kind, region, element) -> bool:
    if carrier_size % 2 == 1 and not isinstance(kind, Fraction):
        kind = _ZERO
    return _lwa_sigma_pred(carrier_size, num_actions, kind, region, element)


def _lwa_lift_adds_stop(space, num_states, num_actions) -> Subspace:
    good = _lwa_lift_rel_subspace(space, num_states, num_actions)
    stop = lwa_lift_rows((), num_states, num_actions)[0]
    return echelonize(list(good.basis) + [stop], len(stop))


_LWA_CORRUPTIONS = {
    "dist-law": ("kleisli-unit", "dist", _lwa_dist_doubles),
    "det-step": ("gamma-theta-mu", "det", _lwa_det_drops_mixed_weight),
    "sigma": ("pred-sigma-naturality", "sigma_pred", _lwa_sigma_odd_zero),
    "lift": ("equality-preservation", "lift_subspace", _lwa_lift_adds_stop),
}


def _bag_apply_matrix(bag: Mapping[Step, Fraction], matrix, num_states_out,
                      num_actions) -> dict:
    """Push a step bag through a state matrix (stop weight untouched)."""
    out: dict[Step, Fraction] = {}
    for step, w in bag.items():
        if not w:
            continue
        if step.is_stop:
            out[STOP] = out.get(STOP, _ZERO) + w
        else:
            for y in range(num_states_out):
                c = matrix[step.target][y]
                if c:
                    key = Step.act(step.action, y)
                    out[key] = out.get(key, _ZERO) + w * c
    return _bag_norm(out)


# output weights at which the branching-level lifting's naturality is sampled
_SIGMA_WEIGHTS = (_ZERO, _ONE, Fraction(1, 2))


def _check_lwa_laws(suite: _Suite, rng: Lcg, kit: dict, memo: dict) -> None:
    dist, det = kit["dist"], kit["det"]
    sigma_pred, lift_subspace = kit["sigma_pred"], kit["lift_subspace"]

    n = rng.randint(1, 3)
    m = rng.randint(1, 2)

    # Unit square, pointwise over F X.
    def unit_failures():
        for e in [STOP] + [Step.act(a, x) for a in range(m) for x in range(n)]:
            if e.is_stop:
                wrapped = STOP
            else:
                unit = tuple(_ONE if i == e.target else _ZERO for i in range(n))
                wrapped = Step.act(e.action, unit)
            got = _bag_norm(dist(wrapped))
            if got != {e: _ONE}:
                yield {"element": e, "lhs": got, "rhs": {e: 1}}

    _replay(suite, "kleisli-unit", memo, ("unit", n, m), unit_failures)

    # Multiplication square on sampled nested bags.
    for _ in range(3):
        support = [random_vector(rng, n) for _ in range(2)]
        weights = [rng.choice(WEIGHT_GRID) for _ in support]
        a = rng.randint(0, m - 1)
        if suite.full("kleisli-mult"):
            continue
        flat = tuple(sum(w * v[i] for v, w in zip(support, weights))
                     for i in range(n))
        lhs = _bag_norm(dist(Step.act(a, flat)))
        rhs: dict[Step, Fraction] = {}
        for v, w in zip(support, weights):
            if not w:
                continue
            for step, c in dist(Step.act(a, v)).items():
                rhs[step] = rhs.get(step, _ZERO) + w * c
        if not _bag_eq(lhs, rhs):
            suite.record("kleisli-mult", action=a, vectors=tuple(support),
                         lhs=lhs, rhs=rhs)

    # Compatibility of the collected table with bag flattening.
    for _ in range(3):
        w_bag: dict[Step, Fraction] = {}
        for _ in range(rng.randint(1, 3)):
            if rng.bit():
                key = STOP
            else:
                key = Step.act(rng.randint(0, m - 1), random_vector(rng, n))
            weight = rng.choice(WEIGHT_GRID)
            w_bag[key] = w_bag.get(key, _ZERO) + weight
        w_bag = _bag_norm(w_bag)
        if suite.full("gamma-theta-mu"):
            continue
        flat: dict[Step, Fraction] = {}
        for step, weight in w_bag.items():
            for inner, c in dist(step).items():
                flat[inner] = flat.get(inner, _ZERO) + weight * c
        lhs = det(flat, n, m)
        slices = []
        for a in range(m):
            vec = [_ZERO] * n
            for step, weight in w_bag.items():
                if not step.is_stop and step.action == a:
                    for i in range(n):
                        vec[i] += weight * step.target[i]
            slices.append(tuple(vec))
        rhs = LwaStepTable(tuple(slices), w_bag.get(STOP, _ZERO))
        if lhs != rhs:
            suite.record("gamma-theta-mu", bag=w_bag, lhs=lhs, rhs=rhs)

    # Naturality of the branching-level lifting along functions,
    # pointwise on table elements with grid weights.
    ny, nx2 = rng.randint(1, 3), rng.randint(1, 3)
    f = tuple(rng.randint(0, ny - 1) for _ in range(nx2))
    region = _random_subset(rng, range(ny))
    pulled = frozenset(x for x in range(nx2) if f[x] in region)
    if not suite.full("pred-sigma-naturality"):
        for kind in (*range(m), _ONE, _ZERO):
            for p in itertools.product(range(nx2), repeat=m):
                for s in _SIGMA_WEIGHTS:
                    lhs = sigma_pred(nx2, m, kind, pulled, (p, s))
                    fp = tuple(f[i] for i in p)
                    rhs = sigma_pred(ny, m, kind, region, (fp, s))
                    if lhs != rhs:
                        suite.record("pred-sigma-naturality", fn=f, kind=kind,
                                     element=(p, s), lhs=lhs, rhs=rhs)

    # Naturality of the composed predicate lifting, with subspace
    # regions, pointwise on sampled bags.
    ky = rng.randint(1, 3)
    gmat = tuple(random_vector(rng, ky) for _ in range(n))
    w_space = echelonize([random_vector(rng, ky)
                          for _ in range(rng.randint(0, ky))], ky)
    pulled_space = preimage_subspace(gmat, w_space)
    for _ in range(4):
        bag = _bag_norm({
            (STOP if rng.bit() else Step.act(rng.randint(0, m - 1),
                                             rng.randint(0, n - 1))):
            rng.choice(WEIGHT_GRID)
            for _ in range(rng.randint(1, 4))})
        if suite.full("pred-lift-naturality"):
            continue
        table_x = lwa_det_step(bag, n, m)
        image = _bag_apply_matrix(bag, gmat, ky, m)
        table_y = lwa_det_step(image, ky, m)
        for a in range(m):
            lhs = pulled_space.contains(table_x.slices[a])
            rhs = w_space.contains(table_y.slices[a])
            if lhs != rhs:
                suite.record("pred-lift-naturality", matrix=gmat, action=a,
                             bag=bag, lhs=lhs, rhs=rhs)
        if (table_x.weight == 1) != (table_y.weight == 1):
            suite.record("pred-lift-naturality", matrix=gmat, kind="weight",
                         bag=bag, lhs=table_x.weight, rhs=table_y.weight)

    # Naturality of the relation lifting, exact on difference subspaces.
    if not suite.full("rel-lift-naturality"):
        index_y, dim_fy = _fx_index(ky, m)
        index_x, dim_fx = _fx_index(n, m)
        step_matrix = [[_ZERO] * dim_fy for _ in range(dim_fx)]
        step_matrix[index_x(STOP)][index_y(STOP)] = _ONE
        for a in range(m):
            for x in range(n):
                row = step_matrix[index_x(Step.act(a, x))]
                for y in range(ky):
                    row[index_y(Step.act(a, y))] = gmat[x][y]
        lhs_space = lift_subspace(pulled_space, n, m)
        rhs_space = preimage_subspace(step_matrix, lift_subspace(w_space, ky, m))
        if lhs_space != rhs_space:
            suite.record("rel-lift-naturality", matrix=gmat,
                         lhs=lhs_space, rhs=rhs_space)

    # Lifting the zero difference space (equality) yields equality.
    def equality_failures():
        zero = echelonize([], n)
        lifted = lift_subspace(zero, n, m)
        if not lifted.is_zero():
            yield {"lhs": lifted, "rhs": zero}

    _replay(suite, "equality-preservation", memo, ("equality", n, m),
            equality_failures)

    # Machine-level modality agrees with the collected-table route.
    lwa = random_lwa(rng, max_states=3, max_actions=2)
    ln, lm = len(lwa.states), len(lwa.alphabet)
    space = echelonize([random_vector(rng, ln)
                        for _ in range(rng.randint(0, ln))], ln)
    for _ in range(3):
        p = random_vector(rng, ln)
        if suite.full("modality-recipe-agreement"):
            continue
        bag: dict[Step, Fraction] = {}
        for x in range(ln):
            if not p[x]:
                continue
            if lwa.out[x]:
                bag[STOP] = bag.get(STOP, _ZERO) + p[x] * lwa.out[x]
            for a in range(lm):
                for x2 in range(ln):
                    c = lwa.mat[a][x][x2]
                    if c:
                        key = Step.act(a, x2)
                        bag[key] = bag.get(key, _ZERO) + p[x] * c
        table = det(bag, ln, lm)
        for a in range(lm):
            direct = lwa_modality(lwa, a, p, space)
            via_table = space.contains(table.slices[a])
            if direct != via_table:
                suite.record("modality-recipe-agreement", action=a, vector=p,
                             lhs=direct, rhs=via_table)
        s = lwa.observe(p)
        if not lwa_modality(lwa, s, p) or table.weight != s:
            suite.record("modality-recipe-agreement", kind="weight", vector=p,
                         lhs=s, rhs=table.weight)


_LWA_LAWS = (
    "kleisli-unit", "kleisli-mult", "gamma-theta-mu",
    "pred-sigma-naturality", "pred-lift-naturality", "rel-lift-naturality",
    "modality-recipe-agreement", "equality-preservation",
)


# ---------------------------------------------------------------- CTS laws

def _cts_kit() -> dict:
    return {"dist": cts_dist_law, "sigma_pred": _cts_sigma_pred,
            "lift_rel": cts_rel_lift, "box": _cts_box_sets}


def _cts_sigma_pred(carrier: Sequence, region: frozenset) -> frozenset:
    """Subset-level box lifting: all subsets of the region."""
    return frozenset(v for v in _powerset(carrier) if v <= region)


def _cts_box_sets(succ: frozenset, region: frozenset) -> bool:
    return succ <= region


def _cts_dist_drops_least(k: int, targets: frozenset) -> frozenset[tuple]:
    full = cts_dist_law(k, targets)
    return full - {min(full)} if full else full


def _cts_sigma_odd_overlap(carrier: Sequence, region: frozenset) -> frozenset:
    if len(carrier) % 2 == 1:
        return frozenset(v for v in _powerset(carrier) if v & region)
    return _cts_sigma_pred(carrier, region)


def _cts_lift_one_sided(rel: BitRel, u: int, v: int) -> bool:
    return all(rel.rows[x] & v for x in bits(u))


def _cts_box_overlaps(succ: frozenset, region: frozenset) -> bool:
    return bool(succ & region)


_CTS_CORRUPTIONS = {
    "dist-law": ("cokleisli-counit", "dist", _cts_dist_drops_least),
    "sigma": ("pred-sigma-naturality", "sigma_pred", _cts_sigma_odd_overlap),
    "lift": ("equality-preservation", "lift_rel", _cts_lift_one_sided),
    "meet": ("box-meet-preservation", "box", _cts_box_overlaps),
}


def _check_cts_laws(suite: _Suite, rng: Lcg, kit: dict, memo: dict) -> None:
    dist, sigma_pred = kit["dist"], kit["sigma_pred"]
    lift_rel, box = kit["lift_rel"], kit["box"]

    nk = rng.randint(1, 3)
    n = rng.randint(1, 3)
    K, X = range(nk), range(n)
    key = ("carrier", nk, n)
    if key not in memo:
        subsets = _powerset(X)
        # the relation lifting takes subsets as masks over condition/state
        # positions k*|X| + x: condition k's masks are shifted by k*|X|,
        # and each subset is spread over each condition once
        memo[key] = (subsets,
                     [[sum(1 << x for x in u) << k * n for u in subsets]
                      for k in K],
                     [[dist(k, u) for u in subsets] for k in K])
    subsets, masks, spread = memo[key]

    # Counit: spreading then dropping the condition is the identity.
    def counit_failures():
        for k in K:
            for u, spread_u in zip(subsets, spread[k]):
                projected = frozenset(x for _, x in spread_u)
                if projected != u:
                    yield {"condition": k, "targets": u, "lhs": projected, "rhs": u}

    _replay(suite, "cokleisli-counit", memo, ("counit", nk, n), counit_failures)

    # Comultiplication: duplicating the condition before or after
    # spreading agrees.
    def comult_failures():
        for k in K:
            for u, spread_u in zip(subsets, spread[k]):
                lhs = frozenset((kk, (kk, x)) for kk, x in spread_u)
                rhs = frozenset((k, pair) for pair in spread_u)
                if lhs != rhs:
                    yield {"condition": k, "targets": u, "lhs": lhs, "rhs": rhs}

    _replay(suite, "cokleisli-comult", memo, ("comult", nk, n), comult_failures)

    # Naturality of the subset-level box lifting along functions.
    ny = rng.randint(1, 3)
    f = tuple(rng.randint(0, ny - 1) for _ in range(n))
    region = _random_subset(rng, range(ny))
    if not suite.full("pred-sigma-naturality"):
        pulled = frozenset(x for x in X if f[x] in region)
        lhs = sigma_pred(tuple(X), pulled)
        upper = sigma_pred(tuple(range(ny)), region)
        rhs = frozenset(u for u in subsets
                        if frozenset(f[x] for x in u) in upper)
        if lhs != rhs:
            suite.record("pred-sigma-naturality", fn=f, region=region,
                         lhs=lhs, rhs=rhs)

    # Naturality of the composed predicate lifting along condition-aware maps.
    g = {(k, x): rng.randint(0, ny - 1) for k in K for x in X}
    big_region = frozenset((k, y) for k in K for y in range(ny) if rng.bit())
    if not suite.full("pred-lift-naturality"):
        pulled_kx = frozenset((k, x) for k in K for x in X
                              if (k, g[(k, x)]) in big_region)
        for k in K:
            for u, spread_u in zip(subsets, spread[k]):
                lhs = spread_u <= pulled_kx
                image = frozenset(g[(k, x)] for x in u)
                rhs = dist(k, image) <= big_region
                if lhs != rhs:
                    suite.record("pred-lift-naturality", condition=k, targets=u,
                                 lhs=lhs, rhs=rhs)

    # Naturality of the relation lifting along condition-aware maps.
    rel = BitRel.from_pairs(nk * ny, (
        (k * ny + y, k * ny + y2) for k in K for y in range(ny) for y2 in range(ny)
        if rng.bit()))
    if not suite.full("rel-lift-naturality"):
        rel_pulled = BitRel.from_pairs(nk * n, (
            (k * n + x, k * n + x2) for k in K for x in X for x2 in X
            if rel.has(k * ny + g[(k, x)], k * ny + g[(k, x2)])))
        for k in K:
            rows = [(u, mask, sum(1 << y for y in {g[(k, x)] for x in u}) << k * ny)
                    for u, mask in zip(subsets, masks[k])]
            for u, mask_u, image_u in rows:
                for v, mask_v, image_v in rows:
                    lhs = lift_rel(rel_pulled, mask_u, mask_v)
                    rhs = lift_rel(rel, image_u, image_v)
                    if lhs != rhs:
                        suite.record("rel-lift-naturality", condition=k,
                                     pair=(u, v), lhs=lhs, rhs=rhs)

    # Derived predicate lifting agrees with the spread-then-test recipe.
    pred = frozenset((k, x) for k in K for x in X if rng.bit())
    if not suite.full("pred-recipe-agreement"):
        for k in K:
            for u, spread_u in zip(subsets, spread[k]):
                derived = all((k, x) in pred for x in u)
                recipe = spread_u <= pred
                if derived != recipe:
                    suite.record("pred-recipe-agreement", condition=k, targets=u,
                                 lhs=derived, rhs=recipe)

    # Derived relation lifting agrees with the full pullback recipe.
    pairs = frozenset(((k, x), (k, x2)) for k in K for x in X for x2 in X
                      if rng.bit())
    rel3 = BitRel.from_pairs(nk * n, (
        (k * n + x, k * n + x2) for (k, x), (_, x2) in pairs))

    def sim(su: frozenset, sv: frozenset) -> bool:
        return (all(any((p, q) in pairs for q in sv) for p in su)
                and all(any((p, q) in pairs for p in su) for q in sv))

    if not suite.full("rel-recipe-agreement"):
        for k in K:
            rows = list(zip(subsets, masks[k], spread[k]))
            for u, mask_u, spread_u in rows:
                for v, mask_v, spread_v in rows:
                    derived = lift_rel(rel3, mask_u, mask_v)
                    recipe = sim(spread_u, spread_v)
                    if derived != recipe:
                        suite.record("rel-recipe-agreement", condition=k,
                                     pair=(u, v), lhs=derived, rhs=recipe)

    # Machine-level box agrees with pulling back along the dynamics.
    cts = random_cts(rng, max_conditions=3, max_states=4)
    ck, cn = len(cts.conditions), len(cts.states)
    region_mask = rng.randint(0, (1 << (ck * cn)) - 1)
    if not suite.full("modality-recipe-agreement"):
        got = cts_box(cts, region_mask)
        for k in range(ck):
            slice_k = frozenset(x for x in range(cn)
                                if region_mask >> (k * cn + x) & 1)
            for x in range(cn):
                succ = frozenset(bits(cts.delta[k][x]))
                want = box(succ, slice_k)
                if bool(got >> (k * cn + x) & 1) != want:
                    suite.record("modality-recipe-agreement", condition=k, state=x,
                                 lhs=bool(got >> (k * cn + x) & 1), rhs=want)

    # Box preserves meets.
    for _ in range(3):
        r1 = _random_subset(rng, X)
        r2 = _random_subset(rng, X)
        if suite.full("box-meet-preservation"):
            continue
        r12 = r1 & r2
        for u in subsets:
            meet = box(u, r12)
            both = box(u, r1) and box(u, r2)
            if meet != both:
                suite.record("box-meet-preservation", succ=u,
                             regions=(r1, r2), lhs=meet, rhs=both)

    # Lifting per-condition equality yields per-condition equality.
    def equality_failures():
        diag = BitRel.identity(nk * n)
        for k in K:
            for i, (u, mask_u) in enumerate(zip(subsets, masks[k])):
                for j, (v, mask_v) in enumerate(zip(subsets, masks[k])):
                    related = lift_rel(diag, mask_u, mask_v)
                    if related != (i == j):
                        yield {"condition": k, "pair": (u, v),
                               "lhs": related, "rhs": i == j}

    _replay(suite, "equality-preservation", memo, ("equality", nk, n),
            equality_failures)


_CTS_LAWS = (
    "cokleisli-counit", "cokleisli-comult",
    "pred-sigma-naturality", "pred-lift-naturality", "rel-lift-naturality",
    "pred-recipe-agreement", "rel-recipe-agreement",
    "modality-recipe-agreement",
    "box-meet-preservation", "equality-preservation",
)


_FAMILIES = {
    "nda": (_NDA_LAWS, _nda_kit, _NDA_CORRUPTIONS, _check_nda_laws),
    "lwa": (_LWA_LAWS, _lwa_kit, _LWA_CORRUPTIONS, _check_lwa_laws),
    "cts": (_CTS_LAWS, _cts_kit, _CTS_CORRUPTIONS, _check_cts_laws),
}

# Which law each named corruption must trip, per family.
CORRUPTIONS = {
    family: {name: law for name, (law, _, _) in table.items()}
    for family, (_, _, table, _) in _FAMILIES.items()
}


def check_lifting_laws(family: str, trials: int = 100, seed: int = 0,
                       corruption: str | None = None) -> LawReport:
    """Run the law suite for one family on `trials` random instances.

    Each trial draws fresh carriers and maps from an independent stream
    derived from `seed`, then checks every law pointwise on that
    instance.  A named `corruption` swaps in a deliberately broken map;
    `CORRUPTIONS[family]` says which law each one must trip.  What a
    trial builds from its carrier sizes alone is built once per call.
    The instances that draw nothing (the unit squares, the cts counit
    and comultiplication, and equality preservation) are evaluated once
    per call and size, their failures recorded in every trial.  A
    report keeps the first four failures of each law, so a law that
    holds four is not evaluated again; its trials still make every
    draw, so the report is the same, byte for byte, as one that
    evaluates every law in every trial.  The trials run in contiguous
    parts on the available CPUs (`rng.run_trials`), each part with its
    own memo, and the parts' failures are merged in trial order, so the
    report is the same for any number of CPUs.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    try:
        laws, honest_kit, corruptions, run = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    # The honest maps are looked up now, not at import, so that a
    # rebinding of a module-level map (a tracing wrapper) is seen.
    kit = honest_kit()
    if corruption is not None:
        try:
            _, entry, broken = corruptions[corruption]
        except KeyError:
            raise ValueError(
                f"unknown corruption {corruption!r} for {family}") from None
        kit[entry] = broken
    master = Lcg(seed)

    def run_part(part: range) -> dict:
        suite = _Suite(laws, trials)
        # Built with this call's kit, so it must not outlive the call.
        memo: dict = {}
        for i in part:
            run(suite, master.spawn(i), kit, memo)
        return suite.failures

    # A law's first failures in trial order are among the first of the
    # part they fall in, so merging the parts in order keeps the report.
    suite = _Suite(laws, trials)
    for failures in run_trials(trials, run_part):
        for law, found in failures.items():
            kept = suite.failures[law]
            kept.extend(found[:_MAX_FAILURES - len(kept)])
    return suite.report(family, seed, corruption)
