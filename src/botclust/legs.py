"""Independent legs of one computation, run side by side in forked workers.

``map_legs(fn, jobs)`` returns ``[fn(*job) for job in jobs]`` in job
order. With two or more jobs and two or more CPUs in this process's
affinity set it runs them in ``min(len(jobs), CPUs)`` worker processes.
The workers are forked, not spawned: ``fn`` and the jobs reach them by
fork inheritance, so ``fn`` may be a closure over large arrays and each
worker is sent only a job index; only the results travel back, pickled.
botclust starts no thread of its own, and the pool forks every worker
before it starts its management thread. A leg's exception re-raises in
the caller with its type and message. A call made inside a worker runs
its jobs in that worker, so pools never nest. Every leg seeds its own
random streams, so its result does not depend on the process that ran it.
"""

from __future__ import annotations

import os

_legs = None     # (fn, jobs) of the pooled call in progress; workers inherit it
_workers = 1     # processes that ran the legs of the latest outermost call


def _run_leg(index: int):
    fn, jobs = _legs
    return fn(*jobs[index])


def map_legs(fn, jobs) -> list:
    """``[fn(*job) for job in jobs]``, spread over forked workers."""
    global _legs, _workers
    jobs = list(jobs)
    nested = _legs is not None
    workers = 1 if nested else min(len(jobs), len(os.sched_getaffinity(0)))
    if workers < 2:
        results = [fn(*job) for job in jobs]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _legs = fn, jobs
        try:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                results = list(pool.map(_run_leg, range(len(jobs))))
        finally:
            _legs = None
    if not nested:
        _workers = workers
    return results


def last_workers() -> int:
    """Processes that ran the legs of the latest outermost ``map_legs`` call."""
    return _workers
