import json
import os
import pathlib

import pytest

from behaveq import Carrier, Nda
from behaveq.cli import load_system

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


class CountedSteps:
    """A word-reading system's post and observe, counting the calls."""

    def __init__(self, system):
        self.system, self.alphabet = system, system.alphabet
        self.posts = self.observes = 0

    def post(self, config, a):
        self.posts += 1
        return self.system.post(config, a)

    def observe(self, config):
        self.observes += 1
        return self.system.observe(config)


def mask_of(carrier: Carrier, *labels: str) -> int:
    out = 0
    for label in labels:
        out |= 1 << carrier.index(label)
    return out


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
