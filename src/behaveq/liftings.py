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

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import (BitRel, Subspace, as_rational, bits, echelonize, nullspace,
                   orthogonal_tests, preimage_subspace, qadd, qmul)
from .rng import (WEIGHT_GRID, Lcg, random_cts, random_lwa, random_masks,
                  random_nda, random_vector, run_trials)
from .systems import Cts, DeterminizedMachine, Lwa, moore_determinize


class Step(NamedTuple):
    """One-step behaviour: an action with a target payload, or a stop marker.

    Payload types vary with the context (a state index, a subset, a
    weight vector); only the shape is fixed here.  A tuple, so that the
    law suite's sets and bags of steps hash and compare them in C; the
    hash is that of (action, target), as a frozen dataclass has it.
    """

    action: object
    target: object

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
    return frozenset(Step(step.action, x) for x in step.target)


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
        Step(step.action, x): as_rational(w)
        for x, w in enumerate(step.target) if w
    }


def lwa_det_step(bag: Mapping[Step, Fraction], num_states: int,
                 num_actions: int) -> LwaStepTable:
    """Collect a weighted bag of steps into per-action vectors and weight."""
    add = qadd
    slices = [[_ZERO] * num_states for _ in range(num_actions)]
    weight = _ZERO
    for s, w in bag.items():
        if not w:
            continue
        if s.is_stop:
            weight = add(weight, w)
        else:
            row = slices[s.action]
            row[s.target] = add(row[s.target], w)
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


def cts_rel_lift(rel: BitRel, left: Sequence[int],
                 right: Sequence[int]) -> tuple[int, ...]:
    """Two-sided relation lifting of `rel` to masks over its carrier,
    one row mask per entry of `left`: bit j of row i is set iff every
    member of left[i] is related to a member of right[j], and every
    member of right[j] to a member of left[i].

    On condition/state positions k*|X| + x, the masks of condition k
    are its successor sets shifted by k*|X|.
    """
    support, holders, meets = _cts_columns(rel, left, right)
    full = (1 << len(right)) - 1
    rows = []
    for u in left:
        row, image = full, 0
        for x in bits(u):
            row &= meets[x]
            image |= rel.rows[x]
        # a right mask holding a position outside the image is not covered
        for y in bits(support & ~image):
            row &= ~holders[y]
        rows.append(row)
    return tuple(rows)


def _cts_columns(rel: BitRel, left: Sequence[int], right: Sequence[int]):
    """Column masks over `right` for `cts_rel_lift`: the union of the
    right masks; per position y in it, the mask of right entries holding
    y; and per position x of a left mask, the mask of right entries
    that meet x's row of `rel`."""
    reach = functools.reduce(operator.or_, left, 0)
    support = functools.reduce(operator.or_, right, 0)
    used = reach | support
    if used < 0 or used >> rel.size:
        bad = next(m for m in (*left, *right) if m < 0 or m >> rel.size)
        raise ValueError(f"mask {bad} out of range for {rel.size} positions")
    holders = dict.fromkeys(bits(support), 0)
    for j, v in enumerate(right):
        for y in bits(v):
            holders[y] |= 1 << j
    meets = {}
    for x in bits(reach):
        col = 0
        for y in bits(rel.rows[x] & support):
            col |= holders[y]
        meets[x] = col
    return support, holders, meets


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
    if isinstance(value, Step):
        return repr(value)
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


# A family's suite is (draw, laws, kit, corruptions).  `draw(rng)` makes
# every draw of a trial; each `law(instance, kit, memo)` yields failures
# and draws nothing, listed as (name, law, sizes) in report order, with
# `sizes` the only instance fields it reads (None: it reads the draws).

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
            ok = b if kind == "stop" else p[kind] in region
            if ok:
                out.append((p, b))
    return frozenset(out)


def _nda_lift_rel(rel_pairs, left: Sequence[NdaStepTable],
                  right: Sequence[NdaStepTable]) -> tuple[int, ...]:
    """Derived relation lifting on collected tables, with the relation
    as a set of pairs of target sets: one row mask per left table, bit
    j set iff the tables agree on acceptance and each action's
    successor sets are related."""
    accept, related = _nda_columns(rel_pairs, right)
    rows = []
    for t in left:
        row = accept[t.accept]
        for succ, targets in zip(t.succ, related):
            row &= targets.get(succ, 0)
        rows.append(row)
    return tuple(rows)


def _nda_columns(rel_pairs, right: Sequence[NdaStepTable]):
    """Column masks over `right` for the row liftings: the masks of the
    rejecting and the accepting tables, and per action a map from a
    target set u to the mask of the tables whose a-successors are
    related to u."""
    accept, holders = (right.holders if isinstance(right, _StepTables)
                       else _nda_holders(right))
    related = []
    for held in holders:
        targets: dict[frozenset, int] = {}
        for u, v in rel_pairs:
            if v in held:
                targets[u] = targets.get(u, 0) | held[v]
        related.append(targets)
    return accept, related


def _nda_holders(right: Sequence[NdaStepTable]):
    """What `_nda_columns` reads of `right` alone: the masks of the
    rejecting and the accepting tables, and per action a map from a
    successor set to the mask of the tables that have it."""
    accepting = sum(1 << j for j, t in enumerate(right) if t.accept)
    accept = ((1 << len(right)) - 1 & ~accepting, accepting)
    holders = []
    for a in range(len(right[0].succ) if right else 0):
        held: dict[frozenset, int] = {}
        for j, t in enumerate(right):
            held[t.succ[a]] = held.get(t.succ[a], 0) | 1 << j
        holders.append(held)
    return accept, holders


class _StepTables(tuple):
    """Step tables lifted by many relations, whose `_nda_holders` are
    built once."""

    @functools.cached_property
    def holders(self):
        return _nda_holders(self)


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


def _nda_lift_ignores_stop(rel_pairs, left, right) -> tuple[int, ...]:
    _, related = _nda_columns(rel_pairs, right)
    full = (1 << len(right)) - 1
    return tuple(functools.reduce(operator.and_, (
        targets.get(succ, 0) for succ, targets in zip(t.succ, related)), full)
        for t in left)


def _nda_lift_any_action(rel_pairs, left, right) -> tuple[int, ...]:
    accept, related = _nda_columns(rel_pairs, right)
    return tuple(accept[t.accept] & functools.reduce(operator.or_, (
        targets.get(succ, 0) for succ, targets in zip(t.succ, related)), 0)
        for t in left)


_NDA_CORRUPTIONS = {
    "dist-law": ("kleisli-unit", "dist", _nda_dist_drops_stop),
    "det-step": ("gamma-theta-mu", "det", _nda_det_accepts_only_stop),
    "sigma": ("pred-sigma-naturality", "sigma_pred", _nda_sigma_odd_stop),
    "lift": ("equality-preservation", "lift_rel", _nda_lift_ignores_stop),
    "meet": ("intersection-preservation", "lift_rel", _nda_lift_any_action),
}


def _random_subset(rng: Lcg, items: Sequence) -> frozenset:
    """The items whose draw is 1, one draw per item in order."""
    return frozenset(itertools.compress(items, rng.flags(len(items))))


def _random_relation(rng: Lcg, items: Sequence) -> frozenset:
    """The pairs (u, v) of items whose draw is 1, one draw per pair, u
    the outer loop."""
    return frozenset(itertools.compress(itertools.product(items, items),
                                        rng.flags(len(items) ** 2)))


def _differing(lhs: Sequence[int], rhs: Sequence[int]):
    """(i, j, bit j of lhs[i], bit j of rhs[i]) for each bit where two
    lists of row masks differ, rows in order and bits ascending: the
    order of a loop over the pairs of a row lifting."""
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        for j in bits(a ^ b):
            yield i, j, bool(a >> j & 1), bool(b >> j & 1)


def _nda_step_rows(memo: dict, num_states: int, num_actions: int) -> list:
    """Each step set over the targets and actions, with its honest table."""
    key = ("steps", num_states, num_actions)
    if key not in memo:
        steps = [STOP] + [Step(a, x) for a in range(num_actions)
                          for x in range(num_states)]
        memo[key] = [(u, nda_det_step(u, num_actions)) for u in _powerset(steps)]
    return memo[key]


def _nda_recipe_rows(memo: dict, det, num_states: int, num_actions: int) -> list:
    """`_nda_step_rows` with each set's table under the kit's `det` added."""
    key = ("recipes", num_states, num_actions)
    if key not in memo:
        memo[key] = [(u, table, det(u, num_actions))
                     for u, table in _nda_step_rows(memo, num_states, num_actions)]
    return memo[key]


def _nda_draw(rng: Lcg) -> SimpleNamespace:
    """Every draw of one nda trial, in order."""
    t = SimpleNamespace(nx=rng.randint(1, 4), m=rng.randint(1, 2))
    masks = _powerset(range(t.nx))
    t.samples = [STOP] + [Step(rng.randint(0, t.m - 1),
                               frozenset(_random_subset(rng, masks)))
                          for _ in range(3)]
    ftx = [STOP] + [Step(a, u) for a in range(t.m) for u in masks]
    t.nested = [_random_subset(rng, ftx) for _ in range(3)]
    t.ny = rng.randint(1, 3)
    t.nx2 = rng.randint(1, 3)
    t.f = tuple(rng.randint(0, t.ny - 1) for _ in range(t.nx2))
    t.region = _random_subset(rng, range(t.ny))
    t.small_nx, t.small_ny = rng.randint(1, 2), rng.randint(1, 2)
    t.g = tuple(_random_subset(rng, range(t.small_ny)) for _ in range(t.small_nx))
    t.big_region = frozenset(_random_subset(rng, _powerset(range(t.small_ny)))
                             for _ in range(3))
    t.rel = _random_relation(rng, _powerset(range(t.small_ny)))
    t.region_sets = frozenset(_random_subset(rng, masks) for _ in range(3))
    t.rel2 = _random_relation(rng, masks)
    # the step sets over nx targets: all their pairs if there are at most
    # 32 sets, else 200 sampled pairs of their indices
    count = 1 << (1 + t.nx * t.m)
    draw = rng.next_u32     # rng.randint(0, count - 1), without the call
    t.pair_draws = None if count <= 32 else [
        (draw() % count, draw() % count) for _ in range(200)]
    t.nda = random_nda(rng, max_states=3, max_actions=2)
    # the machine from every subset has one position per subset
    [t.position_region] = random_masks(rng, 1, 1 << len(t.nda.states))
    masks2 = _powerset(range(2))
    t.r1 = _random_relation(rng, masks2)
    t.r2 = _random_relation(rng, masks2)
    return t


def _nda_unit(t, kit: dict, memo: dict):
    """Unit square of the distribution law, pointwise over F X."""
    for e in [STOP] + [Step(a, x) for a in range(t.m) for x in range(t.nx)]:
        wrapped = STOP if e.is_stop else Step(e.action, frozenset({e.target}))
        got = kit["dist"](wrapped)
        if got != frozenset({e}):
            yield dict(element=e, lhs=got, rhs=frozenset({e}))


def _nda_mult(t, kit: dict, memo: dict):
    """Multiplication square, sampled over F T T X."""
    dist = kit["dist"]
    for e in t.samples:
        if e.is_stop:
            flat = STOP
        else:
            flat = Step(e.action, frozenset(x for u in e.target for x in u))
        lhs = dist(flat)
        inner = dist(e) if e.is_stop else frozenset(
            Step(e.action, u) for u in e.target)
        rhs = frozenset(x for s in inner for x in dist(s))
        if lhs != rhs:
            yield dict(element=e, lhs=lhs, rhs=rhs)


def _nda_gamma(t, kit: dict, memo: dict):
    """The collected table commutes with flattening, over T F T X."""
    dist, det, m = kit["dist"], kit["det"], t.m
    for w in t.nested:
        flat = frozenset(x for s in w for x in dist(s))
        lhs = det(flat, m)
        nested = det(w, m)
        rhs = NdaStepTable(
            tuple(frozenset(x for u in nested.succ[a] for x in u)
                  for a in range(m)),
            nested.accept)
        if lhs != rhs:
            yield dict(element=w, lhs=lhs, rhs=rhs)


def _nda_sigma_naturality(t, kit: dict, memo: dict):
    """Naturality of the branching-level predicate lifting."""
    sigma_pred, f, m = kit["sigma_pred"], t.f, t.m
    pullback = frozenset(x for x in range(t.nx2) if f[x] in t.region)
    for kind in list(range(m)) + ["stop"]:
        lhs = sigma_pred(t.nx2, m, kind, pullback)
        upper = sigma_pred(t.ny, m, kind, t.region)
        rhs = frozenset(
            (p, b)
            for p in itertools.product(range(t.nx2), repeat=m)
            for b in (False, True)
            if (tuple(f[i] for i in p), b) in upper)
        if lhs != rhs:
            yield dict(fn=f, kind=kind, region=t.region, lhs=lhs, rhs=rhs)


def _nda_image_rows(t, memo: dict) -> list:
    """(step set, its table, the table of its image along g) per step set
    over small_nx targets, built once per call and map g."""
    def step_image(ubar: frozenset) -> frozenset:
        out = set()
        for s in ubar:
            if s.is_stop:
                out.add(STOP)
            else:
                out.update(Step(s.action, y) for y in t.g[s.target])
        return frozenset(out)

    key = ("images", t.g, t.small_ny, t.m)
    if key not in memo:
        image_tables = dict(_nda_step_rows(memo, t.small_ny, t.m))
        memo[key] = [(u, table, image_tables[step_image(u)])
                     for u, table in _nda_step_rows(memo, t.small_nx, t.m)]
    return memo[key]


def _nda_pred_naturality(t, kit: dict, memo: dict):
    """Naturality of the composed predicate lifting along g."""
    pulled = frozenset(u for u in _powerset(range(t.small_nx))
                       if frozenset(y for x in u for y in t.g[x]) in t.big_region)
    rows = _nda_image_rows(t, memo)
    for kind in list(range(t.m)) + ["stop"]:
        for ubar, table, image in rows:
            lhs = _nda_lift_pred(table, kind, pulled)
            rhs = _nda_lift_pred(image, kind, t.big_region)
            if lhs != rhs:
                yield dict(map=t.g, kind=kind, steps=ubar, lhs=lhs, rhs=rhs)


def _nda_rel_naturality(t, kit: dict, memo: dict):
    """Naturality of the composed relation lifting along g."""
    lift_rel, subsets = kit["lift_rel"], _powerset(range(t.small_nx))
    image = {u: frozenset(y for x in u for y in t.g[x]) for u in subsets}
    rel_pulled = frozenset((u, v) for u in subsets for v in subsets
                           if (image[u], image[v]) in t.rel)
    rows = _nda_image_rows(t, memo)
    tables = [table for _, table, _ in rows]
    images = [image for _, _, image in rows]
    for i, j, lhs, rhs in _differing(lift_rel(rel_pulled, tables, tables),
                                     lift_rel(t.rel, images, images)):
        yield dict(map=t.g, pair=(rows[i][0], rows[j][0]), lhs=lhs, rhs=rhs)


def _nda_pred_recipe(t, kit: dict, memo: dict):
    """The derived predicate lifting agrees with the pullback recipe."""
    rows = _nda_recipe_rows(memo, kit["det"], t.nx, t.m)
    for kind in list(range(t.m)) + ["stop"]:
        for ubar, table, recipe_table in rows:
            recipe = (recipe_table.accept if kind == "stop"
                      else recipe_table.succ[kind] in t.region_sets)
            derived = _nda_lift_pred(table, kind, t.region_sets)
            if recipe != derived:
                yield dict(kind=kind, steps=ubar, lhs=derived, rhs=recipe)


def _nda_rel_recipe(t, kit: dict, memo: dict):
    """The derived relation lifting agrees with the pullback recipe."""
    rows = _nda_recipe_rows(memo, kit["det"], t.nx, t.m)
    if t.pair_draws is None:
        left = right = range(len(rows))
        pair_samples = [(i, j) for i in left for j in right]
    else:
        pair_samples = t.pair_draws
        # the tables of the sampled pairs, each once, are lifted
        left = list(dict.fromkeys(i for i, _ in pair_samples))
        right = list(dict.fromkeys(j for _, j in pair_samples))
    # row of left table i, and bit of right table j
    lifted = dict(zip(left, kit["lift_rel"](t.rel2, [rows[i][1] for i in left],
                                            [rows[j][1] for j in right])))
    column = {j: c for c, j in enumerate(right)}
    for i, j in pair_samples:
        (u, _, t1), (v, _, t2) = rows[i], rows[j]
        # accept bits agree and each action's successor sets are related
        recipe = (t1.accept == t2.accept
                  and t.rel2.issuperset(zip(t1.succ, t2.succ)))
        derived = bool(lifted[i] >> column[j] & 1)
        if recipe != derived:
            yield dict(pair=(u, v), lhs=derived, rhs=recipe)


def _nda_modality(t, kit: dict, memo: dict):
    """The machine-level modality agrees with the lifting's pullback."""
    machine = moore_determinize(t.nda, range(1 << len(t.nda.states)))
    region_masks = frozenset(frozenset(bits(machine.subset_states[i]))
                             for i in bits(t.position_region))
    tables = []
    for mask in machine.subset_states:
        ubar = set()
        if mask & t.nda.accepting:
            ubar.add(STOP)
        for x in bits(mask):
            for a, succ in enumerate(t.nda.delta[x]):
                ubar.update(Step(a, x2) for x2 in bits(succ))
        tables.append(nda_det_step(frozenset(ubar), len(t.nda.alphabet)))
    for kind in list(range(len(t.nda.alphabet))) + ["accept"]:
        got = nda_modality(machine, kind, t.position_region)
        for i, table in enumerate(tables):
            want = _nda_lift_pred(
                table, "stop" if kind == "accept" else kind, region_masks)
            if bool(got >> i & 1) != want:
                yield dict(kind=kind, state=machine.label(i),
                           lhs=bool(got >> i & 1), rhs=want)


def _nda_fixed_lifting(kit: dict, memo: dict):
    """The step sets over two targets and actions, and the kit's lifting
    of a relation over their tables, lifted three times per trial."""
    if ("fixed",) not in memo:
        fixed = _nda_step_rows(memo, 2, 2)
        memo[("fixed",)] = ([u for u, _ in fixed],
                              _StepTables(table for _, table in fixed))
    sets, tables = memo[("fixed",)]
    return sets, lambda rel_pairs: kit["lift_rel"](rel_pairs, tables, tables)


def _nda_meet(t, kit: dict, memo: dict):
    """Meet preservation of the relation lifting."""
    fixed, lift = _nda_fixed_lifting(kit, memo)
    both = [a & b for a, b in zip(lift(t.r1), lift(t.r2))]
    for i, j, meet, rhs in _differing(lift(t.r1 & t.r2), both):
        yield dict(pair=(fixed[i], fixed[j]), lhs=meet, rhs=rhs)


def _nda_equality(t, kit: dict, memo: dict):
    """Lifting the identity relation yields the identity."""
    fixed, lift = _nda_fixed_lifting(kit, memo)
    diag = frozenset((u, u) for u in _powerset(range(2)))
    identity = [1 << i for i in range(len(fixed))]
    for i, j, related, rhs in _differing(lift(diag), identity):
        yield dict(pair=(fixed[i], fixed[j]), lhs=related, rhs=rhs)


_NDA = (_nda_draw, (
    ("kleisli-unit", _nda_unit, ("nx", "m")),
    ("kleisli-mult", _nda_mult, None),
    ("gamma-theta-mu", _nda_gamma, None),
    ("pred-sigma-naturality", _nda_sigma_naturality, None),
    ("pred-lift-naturality", _nda_pred_naturality, None),
    ("rel-lift-naturality", _nda_rel_naturality, None),
    ("pred-recipe-agreement", _nda_pred_recipe, None),
    ("rel-recipe-agreement", _nda_rel_recipe, None),
    ("modality-recipe-agreement", _nda_modality, None),
    ("intersection-preservation", _nda_meet, None),
    ("equality-preservation", _nda_equality, ()),
), _nda_kit, _NDA_CORRUPTIONS)


# ---------------------------------------------------------------- LWA laws

def _bag_norm(bag: Mapping) -> dict:
    """The bag without its zero weights: the bag itself if it has none."""
    if all(bag.values()):
        return bag
    return {k: v for k, v in bag.items() if v}


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
                row[index(Step(a, x))] = z[x]
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
    if isinstance(kind, int):
        return p[kind] in region
    return s == kind


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
    if carrier_size % 2 == 1 and isinstance(kind, int):
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
    add, mul = qadd, qmul
    out: dict[Step, Fraction] = {}
    for step, w in bag.items():
        if not w:
            continue
        if step.is_stop:
            out[STOP] = add(out.get(STOP, _ZERO), w)
        else:
            row = matrix[step.target]
            for y in range(num_states_out):
                c = row[y]
                if c:
                    key = Step(step.action, y)
                    out[key] = add(out.get(key, _ZERO), mul(w, c))
    return _bag_norm(out)


# output weights at which the branching-level lifting's naturality is sampled
_SIGMA_WEIGHTS = (_ZERO, _ONE, Fraction(1, 2))


def _lwa_draw(rng: Lcg) -> SimpleNamespace:
    """Every draw of one lwa trial, in order."""
    t = SimpleNamespace(n=rng.randint(1, 3), m=rng.randint(1, 2))
    n, m = t.n, t.m
    t.mult_samples = []
    for _ in range(3):
        support = [random_vector(rng, n) for _ in range(2)]
        weights = [rng.choice(WEIGHT_GRID) for _ in support]
        t.mult_samples.append((support, weights, rng.randint(0, m - 1)))
    t.nested = []
    for _ in range(3):
        w_bag: dict[Step, Fraction] = {}
        for _ in range(rng.randint(1, 3)):
            if rng.bit():
                key = STOP
            else:
                key = Step(rng.randint(0, m - 1), random_vector(rng, n))
            weight = rng.choice(WEIGHT_GRID)
            w_bag[key] = qadd(w_bag.get(key, _ZERO), weight)
        t.nested.append(_bag_norm(w_bag))
    t.ny, t.nx2 = rng.randint(1, 3), rng.randint(1, 3)
    t.f = tuple(rng.randint(0, t.ny - 1) for _ in range(t.nx2))
    t.region = _random_subset(rng, range(t.ny))
    t.ky = ky = rng.randint(1, 3)
    t.gmat = tuple(random_vector(rng, ky) for _ in range(n))
    t.w_space = echelonize([random_vector(rng, ky)
                            for _ in range(rng.randint(0, ky))], ky)
    # W pulled back along gmat, read by both naturality laws
    t.pulled_space = preimage_subspace(t.gmat, t.w_space)
    t.bags = [_bag_norm({
        (STOP if rng.bit() else Step(rng.randint(0, m - 1),
                                     rng.randint(0, n - 1))):
        rng.choice(WEIGHT_GRID)
        for _ in range(rng.randint(1, 4))}) for _ in range(4)]
    t.lwa = random_lwa(rng, max_states=3, max_actions=2)
    ln = len(t.lwa.states)
    t.space = echelonize([random_vector(rng, ln)
                          for _ in range(rng.randint(0, ln))], ln)
    t.vectors = [random_vector(rng, ln) for _ in range(3)]
    return t


def _lwa_unit(t, kit: dict, memo: dict):
    """Unit square, pointwise over F X."""
    for e in [STOP] + [Step(a, x) for a in range(t.m) for x in range(t.n)]:
        if e.is_stop:
            wrapped = STOP
        else:
            unit = tuple(_ONE if i == e.target else _ZERO for i in range(t.n))
            wrapped = Step(e.action, unit)
        got = _bag_norm(kit["dist"](wrapped))
        if got != {e: _ONE}:
            yield dict(element=e, lhs=got, rhs={e: 1})


def _lwa_mult(t, kit: dict, memo: dict):
    """Multiplication square on sampled nested bags."""
    add, mul = qadd, qmul
    for support, weights, a in t.mult_samples:
        flat = tuple(functools.reduce(add, map(mul, weights, column), _ZERO)
                     for column in zip(*support))
        lhs = _bag_norm(kit["dist"](Step(a, flat)))
        rhs: dict[Step, Fraction] = {}
        for v, w in zip(support, weights):
            if not w:
                continue
            for step, c in kit["dist"](Step(a, v)).items():
                rhs[step] = add(rhs.get(step, _ZERO), mul(w, c))
        if lhs != _bag_norm(rhs):
            yield dict(action=a, vectors=tuple(support), lhs=lhs, rhs=rhs)


def _lwa_gamma(t, kit: dict, memo: dict):
    """Compatibility of the collected table with bag flattening."""
    add, mul = qadd, qmul
    n, m = t.n, t.m
    for w_bag in t.nested:
        flat: dict[Step, Fraction] = {}
        for step, weight in w_bag.items():
            for inner, c in kit["dist"](step).items():
                flat[inner] = add(flat.get(inner, _ZERO), mul(weight, c))
        lhs = kit["det"](flat, n, m)
        slices = []
        for a in range(m):
            vec = [_ZERO] * n
            for step, weight in w_bag.items():
                if not step.is_stop and step.action == a:
                    for i, x in enumerate(step.target):
                        vec[i] = add(vec[i], mul(weight, x))
            slices.append(tuple(vec))
        rhs = LwaStepTable(tuple(slices), w_bag.get(STOP, _ZERO))
        if lhs != rhs:
            yield dict(bag=w_bag, lhs=lhs, rhs=rhs)


def _lwa_sigma_naturality(t, kit: dict, memo: dict):
    """Naturality of the branching-level lifting, at grid weights."""
    sigma_pred, f, m = kit["sigma_pred"], t.f, t.m
    pulled = frozenset(x for x in range(t.nx2) if f[x] in t.region)
    for kind in (*range(m), _ONE, _ZERO):
        for p in itertools.product(range(t.nx2), repeat=m):
            fp = tuple(f[i] for i in p)
            for s in _SIGMA_WEIGHTS:
                lhs = sigma_pred(t.nx2, m, kind, pulled, (p, s))
                rhs = sigma_pred(t.ny, m, kind, t.region, (fp, s))
                if lhs != rhs:
                    yield dict(fn=f, kind=kind, element=(p, s), lhs=lhs, rhs=rhs)


def _lwa_pred_naturality(t, kit: dict, memo: dict):
    """Naturality of the composed predicate lifting on subspaces."""
    for bag in t.bags:
        table_x = lwa_det_step(bag, t.n, t.m)
        image = _bag_apply_matrix(bag, t.gmat, t.ky, t.m)
        table_y = lwa_det_step(image, t.ky, t.m)
        for a in range(t.m):
            lhs = t.pulled_space.contains(table_x.slices[a])
            rhs = t.w_space.contains(table_y.slices[a])
            if lhs != rhs:
                yield dict(matrix=t.gmat, action=a, bag=bag, lhs=lhs, rhs=rhs)
        if (table_x.weight == 1) != (table_y.weight == 1):
            yield dict(matrix=t.gmat, kind="weight", bag=bag,
                       lhs=table_x.weight, rhs=table_y.weight)


def _lwa_rel_naturality(t, kit: dict, memo: dict):
    """Naturality of the relation lifting on difference subspaces."""
    n, m, ky = t.n, t.m, t.ky
    index_y, dim_fy = _fx_index(ky, m)
    index_x, dim_fx = _fx_index(n, m)
    step_matrix = [[_ZERO] * dim_fy for _ in range(dim_fx)]
    step_matrix[index_x(STOP)][index_y(STOP)] = _ONE
    for a in range(m):
        for x in range(n):
            row = step_matrix[index_x(Step(a, x))]
            for y in range(ky):
                row[index_y(Step(a, y))] = t.gmat[x][y]
    lhs_space = kit["lift_subspace"](t.pulled_space, n, m)
    rhs_space = preimage_subspace(step_matrix,
                                  kit["lift_subspace"](t.w_space, ky, m))
    if lhs_space != rhs_space:
        yield dict(matrix=t.gmat, lhs=lhs_space, rhs=rhs_space)


def _lwa_modality(t, kit: dict, memo: dict):
    """The machine-level modality agrees with the collected table."""
    add, mul = qadd, qmul
    lwa, space = t.lwa, t.space
    ln, lm = len(lwa.states), len(lwa.alphabet)
    steps = [[Step(a, x2) for x2 in range(ln)] for a in range(lm)]
    for p in t.vectors:
        bag: dict[Step, Fraction] = {}
        for x, px in enumerate(p):
            if not px:
                continue
            if lwa.out[x]:
                bag[STOP] = add(bag.get(STOP, _ZERO), mul(px, lwa.out[x]))
            for a in range(lm):
                for key, c in zip(steps[a], lwa.mat[a][x]):
                    if c:
                        bag[key] = add(bag.get(key, _ZERO), mul(px, c))
        table = kit["det"](bag, ln, lm)
        for a in range(lm):
            collected = table.slices[a]
            via_table = space.contains(collected)
            # the stepped vector is tested only where it is not the slice
            direct = lwa_modality(lwa, a, p, lambda v: via_table if v == collected
                                  else space.contains(v))
            if direct != via_table:
                yield dict(action=a, vector=p, lhs=direct, rhs=via_table)
        s = lwa.observe(p)
        if not lwa_modality(lwa, s, p) or table.weight != s:
            yield dict(kind="weight", vector=p, lhs=s, rhs=table.weight)


def _lwa_equality(t, kit: dict, memo: dict):
    """Lifting the zero difference space (equality) yields equality."""
    zero = echelonize([], t.n)
    lifted = kit["lift_subspace"](zero, t.n, t.m)
    if not lifted.is_zero():
        yield dict(lhs=lifted, rhs=zero)


_LWA = (_lwa_draw, (
    ("kleisli-unit", _lwa_unit, ("n", "m")),
    ("kleisli-mult", _lwa_mult, None),
    ("gamma-theta-mu", _lwa_gamma, None),
    ("pred-sigma-naturality", _lwa_sigma_naturality, None),
    ("pred-lift-naturality", _lwa_pred_naturality, None),
    ("rel-lift-naturality", _lwa_rel_naturality, None),
    ("modality-recipe-agreement", _lwa_modality, None),
    ("equality-preservation", _lwa_equality, ("n", "m")),
), _lwa_kit, _LWA_CORRUPTIONS)


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


def _cts_lift_one_sided(rel: BitRel, left, right) -> tuple[int, ...]:
    _, _, meets = _cts_columns(rel, left, right)
    full = (1 << len(right)) - 1
    return tuple(functools.reduce(operator.and_, map(meets.__getitem__, bits(u)),
                                  full)
                 for u in left)


def _cts_box_overlaps(succ: frozenset, region: frozenset) -> bool:
    return bool(succ & region)


_CTS_CORRUPTIONS = {
    "dist-law": ("cokleisli-counit", "dist", _cts_dist_drops_least),
    "sigma": ("pred-sigma-naturality", "sigma_pred", _cts_sigma_odd_overlap),
    "lift": ("equality-preservation", "lift_rel", _cts_lift_one_sided),
    "meet": ("box-meet-preservation", "box", _cts_box_overlaps),
}


def _cts_carrier(memo: dict, dist, nk: int, n: int):
    """The subsets of n states; per condition k, their masks over the
    positions k*n + x; and per condition, each spread by the kit's `dist`."""
    key = ("carrier", nk, n)
    if key not in memo:
        subsets = _powerset(range(n))
        memo[key] = (subsets,
                     [[sum(1 << x for x in u) << k * n for u in subsets]
                      for k in range(nk)],
                     [[dist(k, u) for u in subsets] for k in range(nk)])
    return memo[key]


def _cts_draw(rng: Lcg) -> SimpleNamespace:
    """Every draw of one cts trial, in order."""
    t = SimpleNamespace(nk=rng.randint(1, 3), n=rng.randint(1, 3))
    K, X = range(t.nk), range(t.n)
    t.ny = ny = rng.randint(1, 3)
    t.f = tuple(rng.randint(0, ny - 1) for _ in X)
    t.region = _random_subset(rng, range(ny))
    t.g = {(k, x): rng.randint(0, ny - 1) for k in K for x in X}
    t.big_region = frozenset((k, y) for k in K for y in range(ny) if rng.bit())
    t.rel = BitRel.from_pairs(t.nk * ny, (
        (k * ny + y, k * ny + y2) for k in K for y in range(ny) for y2 in range(ny)
        if rng.bit()))
    t.pred = frozenset((k, x) for k in K for x in X if rng.bit())
    t.pairs = frozenset(((k, x), (k, x2)) for k in K for x in X for x2 in X
                        if rng.bit())
    t.cts = random_cts(rng, max_conditions=3, max_states=4)
    positions = len(t.cts.conditions) * len(t.cts.states)
    t.region_mask = rng.randint(0, (1 << positions) - 1)
    t.regions = [(_random_subset(rng, X), _random_subset(rng, X))
                 for _ in range(3)]
    return t


def _cts_counit(t, kit: dict, memo: dict):
    """Counit: spreading then dropping the condition is the identity."""
    subsets, _, spread = _cts_carrier(memo, kit["dist"], t.nk, t.n)
    for k in range(t.nk):
        for u, spread_u in zip(subsets, spread[k]):
            projected = frozenset(x for _, x in spread_u)
            if projected != u:
                yield dict(condition=k, targets=u, lhs=projected, rhs=u)


def _cts_comult(t, kit: dict, memo: dict):
    """Comultiplication: duplicate the condition before or after."""
    subsets, _, spread = _cts_carrier(memo, kit["dist"], t.nk, t.n)
    for k in range(t.nk):
        for u, spread_u in zip(subsets, spread[k]):
            lhs = frozenset((kk, (kk, x)) for kk, x in spread_u)
            rhs = frozenset((k, pair) for pair in spread_u)
            if lhs != rhs:
                yield dict(condition=k, targets=u, lhs=lhs, rhs=rhs)


def _cts_sigma_naturality(t, kit: dict, memo: dict):
    """Naturality of the subset-level box lifting along functions."""
    subsets, _, _ = _cts_carrier(memo, kit["dist"], t.nk, t.n)
    sigma_pred, f = kit["sigma_pred"], t.f
    pulled = frozenset(x for x in range(t.n) if f[x] in t.region)
    lhs = sigma_pred(tuple(range(t.n)), pulled)
    upper = sigma_pred(tuple(range(t.ny)), t.region)
    rhs = frozenset(u for u in subsets if frozenset(f[x] for x in u) in upper)
    if lhs != rhs:
        yield dict(fn=f, region=t.region, lhs=lhs, rhs=rhs)


def _cts_pred_naturality(t, kit: dict, memo: dict):
    """Naturality of the composed predicate lifting along g."""
    subsets, _, spread = _cts_carrier(memo, kit["dist"], t.nk, t.n)
    pulled_kx = frozenset((k, x) for k in range(t.nk) for x in range(t.n)
                          if (k, t.g[(k, x)]) in t.big_region)
    for k in range(t.nk):
        for u, spread_u in zip(subsets, spread[k]):
            lhs = spread_u <= pulled_kx
            image = frozenset(t.g[(k, x)] for x in u)
            rhs = kit["dist"](k, image) <= t.big_region
            if lhs != rhs:
                yield dict(condition=k, targets=u, lhs=lhs, rhs=rhs)


def _cts_rel_naturality(t, kit: dict, memo: dict):
    """Naturality of the relation lifting along g."""
    subsets, masks, _ = _cts_carrier(memo, kit["dist"], t.nk, t.n)
    K, X, n, ny, g = range(t.nk), range(t.n), t.n, t.ny, t.g
    rel_pulled = BitRel.from_pairs(t.nk * n, (
        (k * n + x, k * n + x2) for k in K for x in X for x2 in X
        if t.rel.has(k * ny + g[(k, x)], k * ny + g[(k, x2)])))
    for k in K:
        images = [sum(1 << y for y in {g[(k, x)] for x in u}) << k * ny
                  for u in subsets]
        for i, j, lhs, rhs in _differing(
                kit["lift_rel"](rel_pulled, masks[k], masks[k]),
                kit["lift_rel"](t.rel, images, images)):
            yield dict(condition=k, pair=(subsets[i], subsets[j]),
                       lhs=lhs, rhs=rhs)


def _cts_pred_recipe(t, kit: dict, memo: dict):
    """The derived predicate lifting agrees with spread-then-test."""
    subsets, _, spread = _cts_carrier(memo, kit["dist"], t.nk, t.n)
    for k in range(t.nk):
        for u, spread_u in zip(subsets, spread[k]):
            derived = all((k, x) in t.pred for x in u)
            recipe = spread_u <= t.pred
            if derived != recipe:
                yield dict(condition=k, targets=u, lhs=derived, rhs=recipe)


def _cts_rel_recipe(t, kit: dict, memo: dict):
    """The derived relation lifting agrees with the pullback recipe."""
    subsets, masks, spread = _cts_carrier(memo, kit["dist"], t.nk, t.n)
    K, X, n = range(t.nk), range(t.n), t.n
    rel = BitRel.from_pairs(t.nk * n, (
        (k * n + x, k * n + x2) for (k, x), (_, x2) in t.pairs))
    # the recipe reads the pairs through their successor and predecessor
    # sets, never through the lifting: su and sv are related iff su lies
    # in the predecessors of sv and sv in the successors of su
    post = {(k, x): set() for k in K for x in X}
    pre = {(k, x): set() for k in K for x in X}
    for p, q in t.pairs:
        post[p].add(q)
        pre[q].add(p)
    for k in K:
        succ = [set().union(*map(post.__getitem__, su)) for su in spread[k]]
        pred = [set().union(*map(pre.__getitem__, sv)) for sv in spread[k]]
        recipe = [sum(1 << j for j, sv in enumerate(spread[k])
                      if sv <= succ[i] and su <= pred[j])
                  for i, su in enumerate(spread[k])]
        for i, j, lhs, rhs in _differing(kit["lift_rel"](rel, masks[k], masks[k]),
                                         recipe):
            yield dict(condition=k, pair=(subsets[i], subsets[j]),
                       lhs=lhs, rhs=rhs)


def _cts_modality(t, kit: dict, memo: dict):
    """The machine-level box agrees with the lifting's pullback."""
    cts, cn = t.cts, len(t.cts.states)
    got = cts_box(cts, t.region_mask)
    for k in range(len(cts.conditions)):
        slice_k = frozenset(x for x in range(cn)
                            if t.region_mask >> (k * cn + x) & 1)
        for x in range(cn):
            succ = frozenset(bits(cts.delta[k][x]))
            want = kit["box"](succ, slice_k)
            if bool(got >> (k * cn + x) & 1) != want:
                yield dict(condition=k, state=x,
                           lhs=bool(got >> (k * cn + x) & 1), rhs=want)


def _cts_box_meet(t, kit: dict, memo: dict):
    """The box preserves meets."""
    subsets, _, _ = _cts_carrier(memo, kit["dist"], t.nk, t.n)
    box = kit["box"]
    for r1, r2 in t.regions:
        r12 = r1 & r2
        for u in subsets:
            meet = box(u, r12)
            both = box(u, r1) and box(u, r2)
            if meet != both:
                yield dict(succ=u, regions=(r1, r2), lhs=meet, rhs=both)


def _cts_equality(t, kit: dict, memo: dict):
    """Lifting per-condition equality yields per-condition equality."""
    subsets, masks, _ = _cts_carrier(memo, kit["dist"], t.nk, t.n)
    diag = BitRel.identity(t.nk * t.n)
    identity = [1 << i for i in range(len(subsets))]
    for k in range(t.nk):
        for i, j, related, rhs in _differing(
                kit["lift_rel"](diag, masks[k], masks[k]), identity):
            yield dict(condition=k, pair=(subsets[i], subsets[j]),
                       lhs=related, rhs=rhs)


_CTS = (_cts_draw, (
    ("cokleisli-counit", _cts_counit, ("nk", "n")),
    ("cokleisli-comult", _cts_comult, ("nk", "n")),
    ("pred-sigma-naturality", _cts_sigma_naturality, None),
    ("pred-lift-naturality", _cts_pred_naturality, None),
    ("rel-lift-naturality", _cts_rel_naturality, None),
    ("pred-recipe-agreement", _cts_pred_recipe, None),
    ("rel-recipe-agreement", _cts_rel_recipe, None),
    ("modality-recipe-agreement", _cts_modality, None),
    ("box-meet-preservation", _cts_box_meet, None),
    ("equality-preservation", _cts_equality, ("nk", "n")),
), _cts_kit, _CTS_CORRUPTIONS)


_FAMILIES = {"nda": _NDA, "lwa": _LWA, "cts": _CTS}

# Which law each named corruption must trip, per family.
CORRUPTIONS = {
    family: {name: law for name, (law, _, _) in table.items()}
    for family, (_, _, _, table) in _FAMILIES.items()
}


def check_lifting_laws(family: str, trials: int = 100, seed: int = 0,
                       corruption: str | None = None) -> LawReport:
    """Run the law suite for one family on `trials` random instances.

    Each trial draws its instance once, from an independent stream
    derived from `seed`, and each law not yet full runs on it.  A named
    `corruption` swaps in a deliberately broken map;
    `CORRUPTIONS[family]` says which law each one must trip.  A report
    keeps the first four failures of each law; as no law draws, a law
    that holds four is skipped without changing a byte.  The trials run
    in contiguous parts on the available CPUs (`rng.run_trials`), each
    with its own memo, merged in trial order, so the report is the same
    for any number of CPUs.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    try:
        draw, laws, honest_kit, corruptions = _FAMILIES[family]
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
        failures = {name: [] for name, _, _ in laws}
        # Built with this call's kit, so it must not outlive the call.
        memo: dict = {}
        for i in part:
            instance = draw(master.spawn(i))
            for name, law, sizes in laws:
                kept = failures[name]
                if len(kept) == _MAX_FAILURES:
                    continue
                if sizes is None:
                    found = law(instance, kit, memo)
                else:
                    key = (law, *(getattr(instance, s) for s in sizes))
                    if key not in memo:
                        memo[key] = list(itertools.islice(
                            law(instance, kit, memo), _MAX_FAILURES))
                    found = memo[key]
                for ce in found:
                    kept.append({k: v if isinstance(v, str) else _show(v)
                                 for k, v in ce.items()})
                    if len(kept) == _MAX_FAILURES:
                        break
        return failures

    # A law's first failures in trial order are among the first of the
    # part they fall in, so merging the parts in order keeps the report.
    merged = {name: [] for name, _, _ in laws}
    for failures in run_trials(trials, run_part):
        for name, found in failures.items():
            merged[name].extend(found)
    return LawReport(family, seed, corruption, tuple(
        LawResult(name, trials, tuple(found[:_MAX_FAILURES]))
        for name, found in merged.items()))
