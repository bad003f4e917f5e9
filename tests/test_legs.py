import os
import time

import numpy as np
import pytest

from botclust.ingest import build_timelines
from botclust.legs import last_workers, map_legs
from botclust.pipeline import PipelineConfig, apply_preset, prepare, run_pipeline_from_mts
from botclust.synth import SynthConfig, generate_dataset


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU affinity map_legs sees; the real CPU count does not matter."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


@pytest.fixture
def placements(monkeypatch):
    """Log the mask of every sched_setaffinity call; a forked leg that
    returns the log returns the calls made in its own process."""
    log = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: log.append(set(mask)))
    return log


def _placed_leg(log):
    """A leg that sleeps the longer the earlier its job, and returns the
    CPU it was placed on, the masks set in it and when it ran."""
    def leg(i):
        started = time.monotonic()
        time.sleep(0.02 * (5 - i))
        (cpu,) = log[0]
        return cpu, log, started, time.monotonic()
    return leg


def _square_late_first(i):
    time.sleep(0.02 * (4 - i))   # later jobs finish first
    return i * i, os.getpid()


def test_results_in_job_order_equal_in_process(cpus):
    cpus(2)
    jobs = [(i,) for i in range(5)]
    results = map_legs(_square_late_first, jobs)
    assert [r for r, _pid in results] == [i * i for i in range(5)]
    assert {pid for _r, pid in results} != {os.getpid()}
    assert last_workers() == 2
    cpus(1)
    assert [r for r, _pid in map_legs(_square_late_first, jobs)] == [i * i for i in range(5)]


@pytest.mark.parametrize("exc", [ValueError, FloatingPointError])
def test_leg_exception_reraises_with_type_and_message(cpus, exc):
    cpus(2)

    def leg(i):
        if i == 2:
            raise exc(f"leg {i} failed")
        return i

    with pytest.raises(exc, match="^leg 2 failed$"):
        map_legs(leg, [(i,) for i in range(4)])


def test_nested_call_in_worker_runs_inline(cpus):
    cpus(2)

    def outer(_i):
        inner = map_legs(lambda: os.getpid(), [(), (), ()])
        return os.getpid(), inner

    for pid, inner in map_legs(outer, [(0,), (1,)]):
        assert pid != os.getpid()
        assert inner == [pid, pid, pid]
    assert last_workers() == 2


def test_one_cpu_starts_no_process(cpus, monkeypatch):
    cpus(1)

    def refuse(*_args):
        raise AssertionError("a process was started or placed")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    assert map_legs(lambda a, b: (a + b, os.getpid()), [(1, 2), (3, 4)]) == [
        (3, os.getpid()), (7, os.getpid())]
    assert last_workers() == 1
    cpus(2)
    assert map_legs(lambda a: (a, os.getpid()), [(5,)]) == [(5, os.getpid())]
    assert last_workers() == 1


def test_running_legs_start_on_distinct_cpus_and_keep_the_inherited_mask(cpus, placements):
    cpus(3)
    results = map_legs(_placed_leg(placements), [(i,) for i in range(3)])
    assert sorted(cpu for cpu, *_ in results) == [0, 1, 2]
    for cpu, log, _start, _end in results:
        assert log == [{cpu}, {0, 1, 2}]   # placed, then the inherited mask back
    assert placements == []                # the caller is never moved


def test_queued_legs_take_a_freed_cpu(cpus, placements):
    cpus(2)
    results = map_legs(_placed_leg(placements), [(i,) for i in range(5)])
    assert [cpu for cpu, *_ in results[:2]] == [0, 1]
    for i, (cpu, log, start, end) in enumerate(results):
        assert log == [{cpu}, {0, 1}]
        for other_cpu, _log, other_start, other_end in results[:i]:
            if start < other_end and other_start < end:   # ran at the same time
                assert cpu != other_cpu
        if i >= 2:   # a queued leg starts on a CPU an earlier leg has given back
            assert any(other_cpu == cpu and other_end < start
                       for other_cpu, _log, _s, other_end in results[:i])


def test_leg_ends_with_the_callers_mask():
    mask = os.sched_getaffinity(0)
    assert map_legs(lambda _i: os.sched_getaffinity(0), [(0,), (1,)]) == [mask, mask]


def test_runtime_warning_in_worker_fails_the_call(cpus):
    # pytest's error::RuntimeWarning filter reaches the workers through fork.
    cpus(2)

    def leg(x):
        return float(np.float64(x) / np.float64(0.0))

    with pytest.raises(RuntimeWarning):
        map_legs(leg, [(1.0,), (2.0,)])


def test_glob_vec_identical_on_one_and_two_cpus(cpus):
    records, labels = generate_dataset(SynthConfig(n_days=16, n_genuine=12))
    cfg = apply_preset(PipelineConfig(task="binary", seed=3, epochs=6, latent_dim=8),
                       "Glob_Vec_Hier")
    mts, true = prepare(build_timelines(records), labels, cfg)
    runs = {}
    for n in (1, 2):
        cpus(n)
        runs[n] = run_pipeline_from_mts(mts, true, labels.num_classes, cfg)
        assert last_workers() == n
    one, two = runs[1], runs[2]
    assert set(one.models) == set(two.models) == {"uts", "vec"}
    for variant in one.models:
        a, b = one.models[variant].params_dict(), two.models[variant].params_dict()
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)
        ra, rb = one.train_reports[variant].to_dict(), two.train_reports[variant].to_dict()
        assert ra == rb
    assert np.array_equal(one.features[1].values, two.features[1].values)
    assert np.array_equal(one.pred_labels, two.pred_labels)


def test_dead_worker_is_broken_pool(cpus):
    from concurrent.futures.process import BrokenProcessPool

    cpus(2)
    parent = os.getpid()

    def leg(i):
        if os.getpid() != parent:   # in-process, the call must fail without exiting
            os._exit(3)
        return i

    with pytest.raises(BrokenProcessPool):
        map_legs(leg, [(0,), (1,)])
