"""Independent legs of one computation, run side by side in forked children.

``map_legs(fn, jobs)`` returns ``[fn(*job) for job in jobs]`` in job
order. With two or more jobs and two or more CPUs in this process's
affinity set it runs them in ``min(len(jobs), CPUs)`` processes at a
time. Each leg runs in a child forked for it alone, started as soon as
an earlier one has finished, so a long leg never holds up the jobs
queued behind it. ``fn`` and the jobs reach the child by fork
inheritance, so ``fn`` may be a closure over large arrays; only the
result travels back, pickled, through a pipe. botclust starts no thread
of its own, so forking is safe. A leg's exception re-raises in the
caller with its type and message, the child's traceback chained as a
``LegTraceback``; a child that dies without a result raises
``BrokenProcessPool``. Either way every other child is killed
and reaped first, so no process is left running. A call made inside a
child runs its jobs in that child, so legs never nest. Every leg seeds
its own random streams, so its result does not depend on the process
that ran it.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import traceback

_in_child = False   # set in every forked child: a nested call runs inline
_workers = 1        # processes at a time that ran the latest outermost call's legs


class LegTraceback(Exception):
    """A leg's traceback as text, chained as the cause of its re-raised exception."""

    def __str__(self) -> str:
        return self.args[0]


def _fork_leg(fn, job) -> tuple[int, int]:
    """Fork a child that runs fn(*job) and writes (result, None) or
    (exception, its traceback), pickled, to a pipe. Returns the child's
    pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        global _in_child
        _in_child = True
        os.close(read_fd)
        try:
            outcome = (fn(*job), None)
        except BaseException as exc:
            outcome = (exc, traceback.format_exc())
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:   # an unpicklable result or exception
            data = pickle.dumps((RuntimeError(f"leg outcome not picklable: {exc}"), ""))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)


def _run_forked(fn, jobs: list, workers: int) -> list:
    results = [None] * len(jobs)
    queued = list(range(len(jobs)))[::-1]
    running: dict[int, tuple[int, int, list[bytes]]] = {}   # read fd -> (job, pid, chunks)
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        while queued or running:
            while queued and len(running) < workers:
                index = queued.pop()
                pid, fd = _fork_leg(fn, jobs[index])
                running[fd] = (index, pid, [])
            ready, _, _ = select.select(list(running), [], [])
            for fd in ready:
                index, pid, chunks = running[fd]
                data = os.read(fd, 1 << 20)
                if data:
                    chunks.append(data)
                    continue
                del running[fd]
                os.close(fd)
                _, status = os.waitpid(pid, 0)
                if status or not chunks:
                    from concurrent.futures.process import BrokenProcessPool

                    raise BrokenProcessPool(f"leg process {pid} ended without a result "
                                            f"(wait status {status})")
                value, trace = pickle.loads(b"".join(chunks))
                if trace is not None:
                    raise value from LegTraceback(trace)
                results[index] = value
    finally:
        for fd, (_, pid, _) in running.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def map_legs(fn, jobs) -> list:
    """``[fn(*job) for job in jobs]``, spread over forked children."""
    global _workers
    jobs = list(jobs)
    workers = 1 if _in_child else min(len(jobs), len(os.sched_getaffinity(0)))
    if workers < 2:
        results = [fn(*job) for job in jobs]
    else:
        results = _run_forked(fn, jobs, workers)
    if not _in_child:
        _workers = workers
    return results


def last_workers() -> int:
    """Processes that ran the legs of the latest outermost ``map_legs`` call."""
    return _workers
