import os
import select
import threading
import time

import pytest

from behaveq import rng
from behaveq.rng import MIN_TRIALS_PER_PART, TrialPartError, run_trials


def force_workers(monkeypatch, count):
    monkeypatch.setattr(rng, "workers", lambda trials: count)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("trials", [1, 2, 5, 17])
def test_parts_are_contiguous_and_returned_in_trial_order(monkeypatch, count, trials):
    force_workers(monkeypatch, count)
    parts = run_trials(trials, lambda part: (part.start, part.stop, os.getpid()))
    assert len(parts) == min(count, trials)
    assert parts[0][0] == 0 and parts[-1][1] == trials
    assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
    assert all(start < stop for start, stop, _ in parts)
    # part 0 runs here, every other part in a child of its own
    pids = [pid for _, _, pid in parts]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == len(pids)


def test_results_come_back_as_built(monkeypatch):
    force_workers(monkeypatch, 3)
    build = lambda part: {"trials": list(part), "pairs": [("a", 1), (None, True)],
                          "nested": {"x": [{"y": "z"}]}}
    assert run_trials(9, build) == [build(range(k, k + 3)) for k in (0, 3, 6)]


def test_worker_count_follows_trials_and_threads(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    with monkeypatch.context() as patch:    # whatever threads a runner keeps
        patch.setattr(threading, "active_count", lambda: 1)
        assert rng.workers(MIN_TRIALS_PER_PART - 1) == 1
        assert rng.workers(MIN_TRIALS_PER_PART) == 1
        assert rng.workers(2 * MIN_TRIALS_PER_PART) == min(2, cpus)
        assert rng.workers(1000 * MIN_TRIALS_PER_PART) == cpus
    # forking while another thread runs could copy a held lock
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert rng.workers(1000 * MIN_TRIALS_PER_PART) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()



def test_child_that_raises_is_reported_and_reaped(monkeypatch):
    force_workers(monkeypatch, 3)

    def part_fn(part):
        if part.start == 4:
            raise ZeroDivisionError("no trial 4")
        return list(part)

    with pytest.raises(TrialPartError, match=r"trials 4\.\.7 failed: "
                                             r"ZeroDivisionError: no trial 4"):
        run_trials(12, part_fn)
    assert_no_children()


@pytest.mark.parametrize("code, reason", [(1, "failed: exit status 1"),
                                          (0, "sent no complete result")])
def test_child_that_exits_without_a_result_is_reported_and_reaped(
        monkeypatch, code, reason):
    force_workers(monkeypatch, 2)

    def part_fn(part):
        if part.start:
            os._exit(code)
        return list(part)

    with pytest.raises(TrialPartError, match=reason):
        run_trials(4, part_fn)
    assert_no_children()


def test_parent_that_raises_kills_its_children_first(monkeypatch):
    force_workers(monkeypatch, 3)
    never = os.pipe()

    def part_fn(part):
        if part.start:
            select.select([never[0]], [], [], 30)   # nothing is ever written
            return list(part)
        raise KeyError("part 0")

    start = time.monotonic()
    try:
        with pytest.raises(KeyError, match="part 0"):
            run_trials(6, part_fn)
    finally:
        os.close(never[0])
        os.close(never[1])
    assert time.monotonic() - start < 10     # killed, not waited for
    assert_no_children()
