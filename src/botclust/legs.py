"""Independent legs of one computation, run side by side in forked children.

``map_legs(fn, jobs)`` returns ``[fn(*job) for job in jobs]`` in job
order. With two or more jobs and two or more CPUs in this process's
affinity set it runs them in ``min(len(jobs), CPUs)`` processes at a
time. Each leg runs in a child forked for it alone, started as soon as
an earlier one has finished, so a long leg never holds up the jobs
queued behind it.

Each leg starts on a CPU of the affinity set that no running leg
holds; a queued leg takes the CPU the leg before it freed. A forked
child starts on its parent's CPU, and where the kernel does not balance
load across CPUs (a cpuset whose ``sched_load_balance`` is 0) it may
stay there, so two legs would share one CPU and each run at half speed.
So the child moves itself to its CPU with ``sched_setaffinity`` and
then restores the mask it inherited: the leg is placed, not pinned. The
kernel may still move it, and threads it starts later (BLAS) may run on
any CPU of the set. Where the move fails with ``OSError`` the leg runs
where it started. Placement changes where a leg runs, never what it
computes, so results and the bytes written from them are unchanged.

``fn`` and the jobs reach the child by fork inheritance, so ``fn`` may
be a closure over large arrays; only the result travels back, pickled,
through a pipe. botclust starts no thread of its own, so forking is
safe. A leg's exception re-raises in the caller with its type and
message, the child's traceback chained as a ``LegTraceback``; a child
that dies without a result raises ``BrokenProcessPool``. Either way
every other child is killed and reaped first, so no process is left
running. A call made inside a child runs its jobs in that child, so
legs never nest. Every leg seeds its own random streams, so its result
does not depend on the process that ran it.
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


def _fork_leg(fn, job, cpu: int, cpus: list[int]) -> tuple[int, int]:
    """Fork a child that moves to cpu, restores its mask to cpus, runs
    fn(*job) and writes (result, None) or (exception, its traceback),
    pickled, to a pipe. Returns the child's pid and the pipe's read end."""
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
            os.sched_setaffinity(0, {cpu})   # migrates this task at once
            os.sched_setaffinity(0, cpus)    # placed, not pinned
        except OSError:                      # cpu not usable here: stay put
            pass
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


def _run_forked(fn, jobs: list, cpus: list[int]) -> list:
    results = [None] * len(jobs)
    queued = list(range(len(jobs)))[::-1]
    free = cpus[::-1]   # CPUs no running leg holds; the last is taken next
    running: dict[int, tuple[int, int, int, list[bytes]]] = {}   # read fd -> (job, pid, cpu, chunks)
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        while queued or running:
            while queued and free:
                index, cpu = queued.pop(), free.pop()
                pid, fd = _fork_leg(fn, jobs[index], cpu, cpus)
                running[fd] = (index, pid, cpu, [])
            ready, _, _ = select.select(list(running), [], [])
            for fd in ready:
                index, pid, cpu, chunks = running[fd]
                data = os.read(fd, 1 << 20)
                if data:
                    chunks.append(data)
                    continue
                del running[fd]
                os.close(fd)
                _, status = os.waitpid(pid, 0)
                free.append(cpu)
                if status or not chunks:
                    from concurrent.futures.process import BrokenProcessPool

                    raise BrokenProcessPool(f"leg process {pid} ended without a result "
                                            f"(wait status {status})")
                value, trace = pickle.loads(b"".join(chunks))
                if trace is not None:
                    raise value from LegTraceback(trace)
                results[index] = value
    finally:
        for fd, (_, pid, _, _) in running.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def map_legs(fn, jobs) -> list:
    """``[fn(*job) for job in jobs]``, spread over forked children."""
    global _workers
    jobs = list(jobs)
    cpus = [] if _in_child else sorted(os.sched_getaffinity(0))
    workers = min(len(jobs), len(cpus))
    if workers < 2:
        results = [fn(*job) for job in jobs]
    else:
        results = _run_forked(fn, jobs, cpus)
    if not _in_child:
        _workers = workers
    return results


def last_workers() -> int:
    """Processes that ran the legs of the latest outermost ``map_legs`` call."""
    return _workers
