"""map_legs' forked children: what comes back through the pipe, and that
none is left running after a call fails."""

import os
import time

import numpy as np
import pytest

from botclust.legs import LegTraceback, map_legs


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU affinity map_legs sees; the real CPU count does not matter."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_results_larger_than_a_pipe_buffer(cpus):
    cpus(2)
    results = map_legs(lambda k: np.arange(k * 200_000.0), [(1,), (2,), (3,)])
    for k, result in enumerate(results, start=1):
        assert np.array_equal(result, np.arange(k * 200_000.0))
    assert _no_children_left()


@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_failed_leg_leaves_no_child_running(cpus, failure):
    from concurrent.futures.process import BrokenProcessPool

    cpus(2)

    def leg(i):
        if i == 0:
            if failure == "exit":
                os._exit(3)
            raise KeyError("leg 0")
        time.sleep(60)   # killed, not waited for

    started = time.monotonic()
    with pytest.raises(KeyError if failure == "raise" else BrokenProcessPool):
        map_legs(leg, [(i,) for i in range(3)])
    assert time.monotonic() - started < 30
    assert _no_children_left()


def test_leg_traceback_is_the_cause(cpus):
    cpus(2)

    def leg(i):
        if i:
            raise ValueError("bad leg")
        return i

    with pytest.raises(ValueError) as info:
        map_legs(leg, [(0,), (1,)])
    cause = info.value.__cause__
    assert isinstance(cause, LegTraceback)
    assert 'raise ValueError("bad leg")' in str(cause)


def test_failed_placement_runs_the_leg_where_it_started(cpus, monkeypatch):
    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")   # as for a CPU outside the cpuset

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    cpus(2)
    jobs = [(k,) for k in range(4)]
    assert map_legs(lambda k: k * k + 1, jobs) == [k * k + 1 for (k,) in jobs]
    assert _no_children_left()
