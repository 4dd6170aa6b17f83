"""Seeded pseudo-randomness and random system generators.

All randomness in the package flows through one 64-bit linear
congruential generator so that reports are reproducible bit-for-bit
from a seed, independent of the Python version or hash randomisation:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

Each draw advances the state once and uses the top 32 bits.  Trial i of
a batch runs on an independent stream seeded with
(seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64, so the trials of a batch
can run in any order and in any process: `run_trials` runs contiguous
parts of a batch on the available CPUs and returns the parts in trial
order.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from fractions import Fraction

from .core import Carrier
from .systems import Cts, Lwa, Nda

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005
_INC = 1442695040888963407
_SPLIT = 0x9E3779B97F4A7C15

# Rational weights drawn for random weighted automata.
WEIGHT_GRID = (
    Fraction(0), Fraction(1), Fraction(-1),
    Fraction(1, 2), Fraction(-1, 2), Fraction(2),
)

_LETTERS = "abcdefgh"

# Fewest trials worth a part of its own in `run_trials`.  A fork, pipe
# and reap cost about 2 ms, and a part also rebuilds what its trials
# share (the law suite's memo).  A trial costs 0.3-0.4 ms (cts laws, nda
# and cts adequacy) to 1.4-1.9 ms (nda laws) on a 2-CPU host; there, at
# 20 trials in two parts the cheapest kinds break even (cts laws 7.2 ->
# 7.3 ms, cts adequacy 5.9 -> 6.1 ms) and the others gain 13-37%, while
# at 16 cts adequacy lost 4.8 -> 5.3 ms and nda adequacy 5.2 -> 5.8 ms.
MIN_TRIALS_PER_PART = 10


class Lcg:
    """The package PRNG.  Deliberately simple and fully specified."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u32(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK64
        return self.state >> 32

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is irrelevant here)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u32() % (hi - lo + 1)

    def bit(self) -> bool:
        return bool(self.next_u32() & 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def spawn(self, index: int) -> "Lcg":
        return Lcg((self.state + (index + 1) * _SPLIT) & _MASK64)


def random_nda(rng: Lcg, max_states: int = 4, max_actions: int = 2) -> Nda:
    """`random_lts` plus acceptance bits, drawn state by state."""
    states, alphabet, delta = random_lts(rng, max_states, max_actions)
    accepting = sum(1 << x for x in range(len(states)) if rng.bit())
    return Nda(states, alphabet, delta, accepting)


def random_lwa(rng: Lcg, max_states: int = 4, max_actions: int = 2) -> Lwa:
    n = rng.randint(1, max_states)
    m = rng.randint(1, max_actions)
    states = Carrier(tuple(f"q{i}" for i in range(n)))
    alphabet = Carrier(tuple(_LETTERS[j] for j in range(m)))
    out = tuple(rng.choice(WEIGHT_GRID) for _ in range(n))
    mat = tuple(
        tuple(tuple(rng.choice(WEIGHT_GRID) for _ in range(n)) for _ in range(n))
        for _ in range(m)
    )
    return Lwa(states, alphabet, out, mat)


def random_cts(rng: Lcg, max_conditions: int = 3, max_states: int = 6) -> Cts:
    k = rng.randint(1, max_conditions)
    n = rng.randint(1, max_states)
    conditions = Carrier(tuple(f"k{i}" for i in range(k)))
    states = Carrier(tuple(f"q{i}" for i in range(n)))
    delta = tuple(
        tuple(sum(1 << x2 for x2 in range(n) if rng.bit()) for _ in range(n))
        for _ in range(k)
    )
    return Cts(conditions, states, delta)


def random_lts(rng: Lcg, max_states: int = 4, max_actions: int = 2):
    """Random labelled transition system as (states, alphabet, delta masks)."""
    n = rng.randint(1, max_states)
    m = rng.randint(1, max_actions)
    states = Carrier(tuple(f"q{i}" for i in range(n)))
    alphabet = Carrier(tuple(_LETTERS[j] for j in range(m)))
    delta = tuple(
        tuple(sum(1 << x2 for x2 in range(n) if rng.bit()) for _ in range(m))
        for _ in range(n)
    )
    return states, alphabet, delta


def random_vector(rng: Lcg, dim: int) -> tuple[Fraction, ...]:
    return tuple(rng.choice(WEIGHT_GRID) for _ in range(dim))


# ---------------------------------------------------------- parallel trials

class TrialPartError(RuntimeError):
    """A forked part of `run_trials` raised, or ended without sending a
    complete result."""


def workers(trials: int) -> int:
    """How many parts `run_trials` cuts `trials` trials into: one per
    available CPU, each of at least MIN_TRIALS_PER_PART trials, and one
    where forking is missing or unsafe (another thread is running)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, trials // MIN_TRIALS_PER_PART))


def run_trials(trials: int, run_range) -> list:
    """`[run_range(part) for part in parts]` over contiguous parts of
    range(trials), in trial order.  Part 0 runs in this process and each
    other part in a forked child, which sends its result back as
    `marshal` bytes: a result is built of plain values (str, int, bool,
    None, and lists, tuples and dicts of them).  With one part nothing is
    forked.  Every child is reaped before this returns or raises; a child
    that raises or sends no complete result raises `TrialPartError`.
    """
    count = max(1, min(workers(trials), trials))
    cuts = [trials * k // count for k in range(count + 1)]
    parts = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    pids, pipes = [], []
    try:
        for part in parts[1:]:
            pid, pipe = _fork_part(run_range, part)
            pids.append(pid)
            pipes.append(pipe)
        results = [run_range(parts[0])]
        for part, pipe in zip(parts[1:], pipes):
            data = pipe.read()
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            results.append(_part_result(part, status, data))
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_part(run_range, part: range):
    """Fork a child that runs `part` and writes its result to a pipe;
    return the child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:        # the child never returns from this branch
        code = 1
        try:
            os.close(read_fd)
            try:
                data, status = marshal.dumps(run_range(part)), 0
            except BaseException as exc:    # reported to the parent instead
                data, status = f"{type(exc).__name__}: {exc}".encode(), 1
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            code = status
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _part_result(part: range, status: int, data: bytes):
    where = f"trials {part.start}..{part.stop - 1}"
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        reason = data.decode(errors="replace") or f"exit status {code}"
        raise TrialPartError(f"{where} failed: {reason}")
    try:
        return marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        raise TrialPartError(f"{where} sent no complete result") from None
