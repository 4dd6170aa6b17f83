"""Seeded, fixed-size input systems for the behaveq benchmark.

Systems here are plain values of this module, not behaveq objects, so
that the reference answers in `ref.py` never run the code under test.
Every random draw comes from `behaveq.rng.Lcg`; the package's own
`random_*` helpers draw the size at random and are not used.  Each
generated system is relabelled with fresh state names and a shuffled
state order, so no two systems of a run are equal as inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from behaveq.rng import Lcg

WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1),
           Fraction(1, 2), Fraction(-1, 2), Fraction(2))
SEMANTICS = ("trace", "failure", "ready")


@dataclass(frozen=True)
class Auto:
    """An nda (`semantics` None) or a bare LTS read under `semantics`.

    `edges` holds (from, action, to) index triples, `accepting` a mask.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]
    accepting: int = 0
    semantics: str | None = None

    def doc(self) -> dict:
        trans = [{"from": self.states[x], "action": self.alphabet[a],
                  "to": self.states[y]} for x, a, y in self.edges]
        if self.semantics is None:
            return {"kind": "nda", "states": list(self.states),
                    "alphabet": list(self.alphabet), "transitions": trans,
                    "accepting": [s for i, s in enumerate(self.states)
                                  if self.accepting >> i & 1]}
        return {"kind": "moore", "states": list(self.states),
                "alphabet": list(self.alphabet), "transitions": trans,
                "semantics": self.semantics}


@dataclass(frozen=True)
class Lwa:
    """Weighted automaton, row-vector convention: p . mats[a], p . out."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    out: tuple[Fraction, ...]
    mats: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def doc(self) -> dict:
        return {"kind": "lwa", "states": list(self.states),
                "alphabet": list(self.alphabet),
                "output": {s: fmt(w) for s, w in zip(self.states, self.out)},
                "matrices": {a: [[fmt(v) for v in row] for row in mat]
                             for a, mat in zip(self.alphabet, self.mats)}}


@dataclass(frozen=True)
class Cts:
    """Conditional transition system; `edges` holds (cond, from, to)."""

    conditions: tuple[str, ...]
    states: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]

    def doc(self) -> dict:
        return {"kind": "cts", "conditions": list(self.conditions),
                "states": list(self.states),
                "transitions": [{"cond": self.conditions[k],
                                 "from": self.states[x], "to": self.states[y]}
                                for k, x, y in self.edges]}


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def dumps(system) -> str:
    return json.dumps(system.doc(), indent=1, sort_keys=True) + "\n"


def _placeholder(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


def _shuffled(rng: Lcg, n: int) -> list[int]:
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        order[i], order[j] = order[j], order[i]
    return order


def _fresh_names(rng: Lcg, n: int) -> tuple[str, ...]:
    names: list[str] = []
    seen = set()
    while len(names) < n:
        word = "".join("bcdfghjklmnpqrstvwxz"[rng.randint(0, 19)] for _ in range(5))
        if word not in seen:
            seen.add(word)
            names.append(word)
    return tuple(names)


def relabel(rng: Lcg, system):
    """Fresh names and a shuffled state order.

    Returns the new system and `pos`, where old state index i is now
    at index pos[i].
    """
    n = len(system.states)
    order = _shuffled(rng, n)            # new index j holds old state order[j]
    pos = [0] * n
    for j, i in enumerate(order):
        pos[i] = j
    names = _fresh_names(rng, n)
    if isinstance(system, Auto):
        acc = sum(1 << pos[i] for i in range(n) if system.accepting >> i & 1)
        edges = tuple(sorted((pos[x], a, pos[y]) for x, a, y in system.edges))
        return replace(system, states=names, edges=edges, accepting=acc), pos
    if isinstance(system, Cts):
        edges = tuple(sorted((k, pos[x], pos[y]) for k, x, y in system.edges))
        return replace(system, states=names, edges=edges), pos
    out = tuple(system.out[order[j]] for j in range(n))
    mats = tuple(tuple(tuple(mat[order[r]][order[c]] for c in range(n))
                       for r in range(n)) for mat in system.mats)
    return Lwa(names, system.alphabet, out, mats), pos


def union(a, b):
    """Disjoint union; b's states come after a's."""
    off = len(a.states)
    states = _placeholder(off + len(b.states))
    if isinstance(a, Auto):
        edges = a.edges + tuple((x + off, c, y + off) for x, c, y in b.edges)
        return replace(a, states=states, edges=edges,
                       accepting=a.accepting | b.accepting << off)
    if isinstance(a, Cts):
        edges = a.edges + tuple((k, x + off, y + off) for k, x, y in b.edges)
        return replace(a, states=states, edges=edges)
    zero = Fraction(0)
    mats = []
    for ma, mb in zip(a.mats, b.mats):
        rows = [tuple(row) + (zero,) * len(b.states) for row in ma]
        rows += [(zero,) * off + tuple(row) for row in mb]
        mats.append(tuple(rows))
    return Lwa(states, a.alphabet, a.out + b.out, tuple(mats))


# ------------------------------------------------------------ families

def random_auto(rng: Lcg, n: int, semantics: str | None = None) -> Auto:
    """Random automaton on n states over {a,b}, about two successors per
    state and action; an nda accepts in n//2 states."""
    edges = tuple((x, a, y) for x in range(n) for a in range(2)
                  for y in range(n) if rng.randint(0, n - 1) < 2)
    acc = sum(1 << x for x in _shuffled(rng, n)[:n // 2])
    return Auto(_placeholder(n), ("a", "b"), edges,
                acc if semantics is None else 0, semantics)


def kth_from_end(k: int, semantics: str | None = None) -> Auto:
    """Words whose k-th letter from the end is a: k+1 states, 2^k
    reachable subsets from the start state (index 0).

    LTS variants add an action c looping at the final state, so that
    trace, failure and ready semantics all see where the final state is.
    """
    edges = [(0, 0, 0), (0, 1, 0), (0, 0, 1)]
    edges += [(i, a, i + 1) for i in range(1, k) for a in range(2)]
    if semantics is None:
        return Auto(_placeholder(k + 1), ("a", "b"), tuple(edges), 1 << k)
    edges.append((k, 2, k))
    return Auto(_placeholder(k + 1), ("a", "b", "c"), tuple(edges), 0, semantics)


def random_lwa(rng: Lcg, n: int) -> Lwa:
    out = tuple(rng.choice(WEIGHTS) for _ in range(n))
    mats = tuple(tuple(tuple(rng.choice(WEIGHTS) for _ in range(n))
                       for _ in range(n)) for _ in range(2))
    return Lwa(_placeholder(n), ("a", "b"), out, mats)


def with_output(lwa: Lwa, x: int, weight: Fraction) -> Lwa:
    out = list(lwa.out)
    out[x] = weight
    return replace(lwa, out=tuple(out))


def shift_chain(rng: Lcg, length: int) -> Lwa:
    """States 0..length; both actions shift i to i+1 with a random
    nonzero weight, and only the last state has an output, so every
    distinguishing word of two chains has exactly `length` letters."""
    n = length + 1
    nonzero = WEIGHTS[1:]
    zero = Fraction(0)
    mats = []
    for _ in range(2):
        rows = [[zero] * n for _ in range(n)]
        for i in range(length):
            rows[i][i + 1] = rng.choice(nonzero)
        mats.append(tuple(tuple(r) for r in rows))
    out = (zero,) * length + (Fraction(1),)
    return Lwa(_placeholder(n), ("a", "b"), out, tuple(mats))


def perturb_chain(chain: Lwa, step: int) -> Lwa:
    """The chain with the b-weight of step `step` doubled."""
    mats = [list(map(list, m)) for m in chain.mats]
    mats[1][step][step + 1] *= 2
    return replace(chain, mats=tuple(tuple(tuple(r) for r in m) for m in mats))


def cts_chain(n: int) -> Cts:
    """Two conditions: a path 0 -> 1 -> ... -> n-1 under k0 (n
    bisimulation rounds) and one cycle through every state under k1."""
    edges = [(0, x, x + 1) for x in range(n - 1)]
    edges += [(1, x, (x + 1) % n) for x in range(n)]
    return Cts(("k0", "k1"), _placeholder(n), tuple(edges))


def cts_two_paths(n: int, short: bool) -> Cts:
    """Two disjoint paths of n//2 states under k0, and each path closed
    into a cycle under k1.  Starting states 0 and n//2 are conditionally
    bisimilar iff the paths have the same length; with `short` the
    second path loses its last state."""
    h = n // 2
    m = h - 1 if short else h
    edges = [(0, x, x + 1) for x in range(h - 1)]
    edges += [(0, h + x, h + x + 1) for x in range(m - 1)]
    edges += [(1, x, (x + 1) % h) for x in range(h)]
    edges += [(1, h + x, h + (x + 1) % m) for x in range(m)]
    return Cts(("k0", "k1"), _placeholder(h + m), tuple(edges))


def random_cts(rng: Lcg, n: int) -> Cts:
    """Three conditions, about two successors per state and condition."""
    edges = tuple((k, x, y) for k in range(3) for x in range(n)
                  for y in range(n) if rng.randint(0, n - 1) < 2)
    return Cts(("k0", "k1", "k2"), _placeholder(n), edges)


def rename_document(rng: Lcg, doc: dict) -> dict:
    """A copy of an nda JSON document with fresh state names and a
    shuffled state list."""
    old = doc["states"]
    order = _shuffled(rng, len(old))
    names = dict(zip(old, _fresh_names(rng, len(old))))
    out = dict(doc)
    out["states"] = [names[old[i]] for i in order]
    out["transitions"] = [dict(t, **{"from": names[t["from"]], "to": names[t["to"]]})
                          for t in doc["transitions"]]
    out["accepting"] = [names[s] for s in doc["accepting"]]
    return out
