import json
import os
import pathlib

import pytest

from behaveq import BitRel, Carrier, Nda, cts_rel_lift, gfp
from behaveq.cli import load_system
from behaveq.core import bits

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def golden_nda() -> Nda:
    """Three states x, y, z; x -a-> z, y -a-> z, y -b-> z, z accepting."""
    with open(DATA / "paper-nda.json") as fh:
        return load_system(json.load(fh))


@pytest.fixture(scope="session")
def trace_failure_lts():
    with open(DATA / "trace-vs-failure.json") as fh:
        return load_system(json.load(fh))


def mask_of(carrier: Carrier, *labels: str) -> int:
    out = 0
    for label in labels:
        out |= 1 << carrier.index(label)
    return out


def gfp_cts_bisim(cts):
    """gfp on condition/state positions k*n + x, from the relation of all
    same-condition pairs: a pair stays when the successor sets under its
    condition simulate each other two-sidedly."""
    nk, n = len(cts.conditions), len(cts.states)

    def step(rel: BitRel) -> BitRel:
        keep = []
        for k in range(nk):
            for x in range(n):
                for y in range(n):
                    if cts_rel_lift(rel, [cts.delta[k][x] << k * n],
                                    [cts.delta[k][y] << k * n]) == (1,):
                        keep.append((k * n + x, k * n + y))
        return BitRel.from_pairs(nk * n, keep)

    return gfp(step, BitRel.from_blocks([p // n for p in range(nk * n)]))


def cts_relation(result) -> BitRel:
    """A `cts_conditional_bisim` result as a relation on the positions
    k*n + x, the carrier of `gfp_cts_bisim`."""
    return BitRel.from_blocks([(k, b) for k, blocks in enumerate(result.blocks)
                               for b in blocks])


def relation_classes(rel: BitRel) -> tuple[tuple[int, ...], ...]:
    """Classes of an equivalence relation, each ascending, ordered by
    least member: its distinct rows in order of first appearance."""
    return tuple(tuple(bits(row)) for row in dict.fromkeys(rel.rows))


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process behind, such as a forked
    trial part that was never reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped "
                f"({f'pid {pid}' if pid else 'still running'})")
