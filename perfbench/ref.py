"""Reference answers, computed without importing behaveq.

The algorithms differ from the ones under test where that is cheap:
signature refinement instead of relation fixpoints, subset-pair BFS for
shortest witnesses, and a backward Krylov basis (span of M_w . out)
instead of the forward unobservable-subspace chain.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from gen import Auto, Cts, Lwa


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def names_of(states, mask: int) -> frozenset:
    return frozenset(states[i] for i in bits(mask))


def parse_subset(text: str) -> frozenset:
    body = text.strip()[1:-1]
    return frozenset(p for p in body.split(",") if p)


def parse_word(alphabet, text: str) -> tuple[int, ...]:
    body = text.removesuffix("↓")
    if not body:
        return ()
    parts = body[1:-1].split("][")
    return tuple(alphabet.index(p) for p in parts)


# ---------------------------------------------------------- automata / LTS

class SubsetView:
    """Successor masks and joined observations of subsets of an Auto."""

    def __init__(self, auto: Auto):
        n, m = len(auto.states), len(auto.alphabet)
        self.auto = auto
        self.succ = [[0] * m for _ in range(n)]
        for x, a, y in auto.edges:
            self.succ[x][a] |= 1 << y
        enabled = [sum(1 << a for a in range(m) if self.succ[x][a])
                   for x in range(n)]
        sem = auto.semantics
        if sem is None:
            self.state_obs = None
        elif sem == "trace":
            self.state_obs = [frozenset({1}) for _ in range(n)]
        elif sem == "ready":
            self.state_obs = [frozenset({e}) for e in enabled]
        elif sem == "failure":
            self.state_obs = [frozenset(z for z in range(1 << m) if not z & e)
                              for e in enabled]
        else:
            raise ValueError(sem)

    def post(self, mask: int, a: int) -> int:
        out = 0
        for x in bits(mask):
            out |= self.succ[x][a]
        return out

    def observe(self, mask: int):
        if self.state_obs is None:
            return bool(mask & self.auto.accepting)
        out = frozenset()
        for x in bits(mask):
            out |= self.state_obs[x]
        return out

    def run(self, mask: int, word) -> object:
        for a in word:
            mask = self.post(mask, a)
        return self.observe(mask)


def subset_classes(auto: Auto):
    """Behavioural classes of all 2^n subsets, and the number of
    refinement rounds until the partition is stable (the fixpoint
    engine's iteration count).  Returns (block per mask, rounds)."""
    view = SubsetView(auto)
    n, m = len(auto.states), len(auto.alphabet)
    size = 1 << n
    trans = [[0] * m for _ in range(size)]
    for mask in range(1, size):
        low = mask & -mask
        x = low.bit_length() - 1
        rest = trans[mask ^ low]
        trans[mask] = [rest[a] | view.succ[x][a] for a in range(m)]
    out = [view.observe(mask) for mask in range(size)]
    block = [0] * size
    count = 1
    rounds = 0
    while True:
        rounds += 1
        keys: dict = {}
        block = [keys.setdefault((out[s], tuple(block[t] for t in trans[s])), len(keys))
                 for s in range(size)]
        if len(keys) == count:
            return block, rounds
        count = len(keys)


def group(block, label) -> frozenset:
    groups: dict = {}
    for i, b in enumerate(block):
        groups.setdefault(b, set()).add(label(i))
    return frozenset(frozenset(g) for g in groups.values())


def pair_bfs(auto: Auto, u: int, v: int):
    """Shortest distinguishing word length of two subsets, or None."""
    view = SubsetView(auto)
    seen = {(u, v)}
    queue = deque([(u, v, 0)])
    while queue:
        s, t, depth = queue.popleft()
        if view.observe(s) != view.observe(t):
            return depth
        for a in range(len(auto.alphabet)):
            nxt = (view.post(s, a), view.post(t, a))
            if nxt not in seen:
                seen.add(nxt)
                queue.append((*nxt, depth + 1))
    return None


# ------------------------------------------------------------------ CTS

def cts_classes(cts: Cts):
    """Per-condition bisimulation classes (as blocks per state) and the
    number of rounds until every slice is stable."""
    nk, n = len(cts.conditions), len(cts.states)
    succ = [[0] * n for _ in range(nk)]
    for k, x, y in cts.edges:
        succ[k][x] |= 1 << y
    blocks = [[0] * n for _ in range(nk)]
    count = nk
    rounds = 0
    while True:
        rounds += 1
        total = 0
        new = []
        for k in range(nk):
            keys: dict = {}
            new.append([keys.setdefault(frozenset(blocks[k][y] for y in bits(succ[k][x])),
                                        len(keys)) for x in range(n)])
            total += len(keys)
        blocks = new
        if total == count:
            return blocks, rounds
        count = total


# ------------------------------------------------------------ weighted

def weight(lwa: Lwa, p, word) -> Fraction:
    vec = list(p)
    n = len(vec)
    for a in word:
        mat = lwa.mats[a]
        vec = [sum((vec[i] * mat[i][j] for i in range(n) if vec[i]), Fraction(0))
               for j in range(n)]
    return sum((v * w for v, w in zip(vec, lwa.out)), Fraction(0))


def krylov(lwa: Lwa) -> list[tuple[int, list[Fraction]]]:
    """Basis of span{M_w . out}, each vector tagged with the length of
    the shortest word w that added it."""
    n = len(lwa.states)
    basis: list[tuple[int, list[Fraction]]] = []
    echelon: list[tuple[int, list[Fraction]]] = []   # (pivot, row)

    def add(level: int, vec: list[Fraction]) -> bool:
        rest = list(vec)
        for piv, row in echelon:
            if rest[piv]:
                f = rest[piv] / row[piv]
                rest = [a - f * b for a, b in zip(rest, row)]
        piv = next((i for i, v in enumerate(rest) if v), None)
        if piv is None:
            return False
        echelon.append((piv, rest))
        basis.append((level, vec))
        return True

    frontier = [list(lwa.out)] if add(0, list(lwa.out)) else []
    level = 0
    while frontier:
        level += 1
        nxt = []
        for vec in frontier:
            for mat in lwa.mats:
                image = [sum((mat[i][j] * vec[j] for j in range(n) if vec[j]), Fraction(0))
                         for i in range(n)]
                if add(level, image):
                    nxt.append(image)
        frontier = nxt
    return basis


def lwa_shortest(basis, p, q):
    """Length of the shortest word separating p and q, or None."""
    diff = [Fraction(a) - Fraction(b) for a, b in zip(p, q)]
    lengths = [level for level, vec in basis
               if sum((d * v for d, v in zip(diff, vec)), Fraction(0))]
    return min(lengths) if lengths else None


def lwa_classes(lwa: Lwa, basis) -> frozenset:
    n = len(lwa.states)
    keys = [tuple(vec[x] for _, vec in basis) for x in range(n)]
    groups: dict = {}
    for x in range(n):
        groups.setdefault(keys[x], set()).add(lwa.states[x])
    return frozenset(frozenset(g) for g in groups.values())


def unit(n: int, x: int) -> list[Fraction]:
    return [Fraction(int(i == x)) for i in range(n)]


# -------------------------------------------------------------- quotient

def quotient(auto: Auto, identity: bool) -> dict:
    """Expected `quotient` report, as sets of state-name sets."""
    n, m = len(auto.states), len(auto.alphabet)
    view = SubsetView(auto)
    if identity:
        members = list(range(1 << n))
        rounds = 0
    else:
        block, rounds = subset_classes(auto)
        by_block: dict = {}
        for mask, b in enumerate(block):
            by_block.setdefault(b, []).append(mask)
        members = [w for w in range(1 << n)
                   if all(len({bool(u & w) for u in cls}) == 1
                          for cls in by_block.values())]
    pre = [[sum(1 << x for x in range(n) if view.succ[x][a] & w) for a in range(m)]
           for w in range(1 << n)]
    name = lambda w: names_of(auto.states, w)
    return {
        "states": frozenset(name(w) for w in members),
        "transitions": frozenset((name(pre[w][a]), auto.alphabet[a], name(w))
                                 for w in members for a in range(m)),
        "accepting": name(auto.accepting),
        "witness": {auto.states[x]: frozenset(name(w) for w in members if w >> x & 1)
                    for x in range(n)},
        "redundant": frozenset(
            name(w) for w in members
            if _union_below(w, members) == w),
        "iterations": rounds,
    }


def _union_below(w: int, members) -> int:
    out = 0
    for v in members:
        if v != w and v & ~w == 0:
            out |= v
    return out
