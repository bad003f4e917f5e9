"""Host speed probe: a fixed reference kernel timed next to every run.

On a shared host the speed of a vCPU drifts over minutes (a fixed
pure-Python loop has been seen to take anywhere from 1.0 to 1.9 times its
fastest time), and that drift moves every wall-clock time by about the
same share. The benchmark times this kernel before and after each run and
set-up, and scales the run's wall time by

    REFERENCE_KERNEL_S / (mean kernel time around the run)

so the reported seconds are the run's seconds on a host that runs the
kernel in REFERENCE_KERNEL_S. The kernel is fixed work that mixes what the
program spends its time on: a loop over dicts and lists (the CLI, the
timelines), JSON decoding (ingest), scalar reads from a numpy matrix in a
nested loop (the Ward merge loop) and many small numpy calls (the LSTM
recurrence). It lives here, outside ``src/``, so a change to the program
never changes it.

    python3 perfbench/hostspeed.py      # time the kernel and its parts
"""

from __future__ import annotations

import json
import time

import numpy as np

# Kernel time on a quiet Intel Xeon vCPU (2-vCPU VM, Python 3.12, numpy
# 2 with OpenBLAS). It sets the scale of the reported seconds only.
REFERENCE_KERNEL_S = 0.32

_PASSES = 4
_JSON_LINES = [
    json.dumps({"id": i, "user": {"id": i % 97, "screen_name": f"user{i % 97}"},
                "created_at": "Mon Jan 01 00:00:00 +0000 2024", "text": "x" * (i % 50),
                "entities": {"hashtags": [{"text": "tag"}] * (i % 3), "urls": []}})
    for i in range(6_000)
]


def _dicts_and_lists() -> int:
    rows = {i: [i, i * 7 % 13, float(i)] for i in range(40_000)}
    best = 0
    for key, row in rows.items():
        if row[1] > best:
            best = row[1] + key % 3
    return best


def _json_decode() -> int:
    return sum(len(json.loads(line)["entities"]["hashtags"]) for line in _JSON_LINES)


def _scalar_reads() -> float:
    d2 = np.random.default_rng(1).random((400, 400))
    best = np.inf
    for i in range(399):
        for j in range(i + 1, 400):
            if d2[i, j] < best:
                best = d2[i, j]
    return float(best)


def _small_numpy() -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((80, 9))
    w = rng.standard_normal((9, 4)) * 0.1
    u = rng.standard_normal((1, 4)) * 0.1
    h = np.zeros((80, 1))
    for _ in range(1_500):
        z = x @ w + h @ u
        h = np.tanh(z[:, :1]) * (1.0 / (1.0 + np.exp(-z[:, 1:2])))
    return float(h.sum())


PARTS = (_dicts_and_lists, _json_decode, _scalar_reads, _small_numpy)


def kernel_seconds() -> float:
    """Wall time of the fixed reference kernel."""
    started = time.perf_counter()
    for _ in range(_PASSES):
        for part in PARTS:
            part()
    return time.perf_counter() - started


def scale(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """Wall time scaled to a host that runs the kernel in REFERENCE_KERNEL_S."""
    return wall_s * REFERENCE_KERNEL_S / ((kernel_before + kernel_after) / 2.0)


if __name__ == "__main__":
    for part in PARTS:
        started = time.perf_counter()
        part()
        print(f"{part.__name__.lstrip('_')}: {time.perf_counter() - started:.4f} s per pass")
    print("kernel:", " ".join(f"{kernel_seconds():.4f}" for _ in range(5)), "s")
