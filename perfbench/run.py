"""Closed-loop benchmark of the botclust CLI on seeded synthetic populations.

Run from the repository root:

    python3 perfbench/run.py --workload lstm_globvec365 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs the workload's CLI processes back to back, starting the
next run only after the previous one has exited, until --seconds have
passed (at least a few runs). Every run is checked outside the timed
region (see checks.py); a failed check or a non-zero exit fails the run.
A fixed reference kernel is timed before and after every run and
set-up (see hostspeed.py); the end-to-end times are wall times scaled by
it to a reference host speed, because the shared host's own speed drifts
by more than the bounds over minutes. The raw wall times are printed too.
With --trace 0 the last line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced runs alternate, and
it carries the per-layer metrics from the traced runs (see spans.py).
Earlier lines describe the machine, the workload and its predictions.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "botclust" / "cli.py").is_file():
    sys.exit(f"perfbench: no botclust sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))
from checks import check_run  # noqa: E402  (needs src/ on the path)
from hostspeed import REFERENCE_KERNEL_S, kernel_seconds, scale  # noqa: E402
from spans import METRIC_OF, SELF_TIME_METRICS, summarize  # noqa: E402
from workloads import PREDICTIONS, SETUP_REPS, WORKLOADS, make_population  # noqa: E402

MIN_ROUNDS = 3            # a round is one run, or an untraced/traced pair
DEADLINE_S = 150.0        # start no run that would end past this, so we exit inside 180 s
PROCESS_TIMEOUT_S = 120.0
# The program's matrices are small (N x hidden); a second BLAS thread bought
# about 12% on the LSTM workload but made its run times spread half again as wide,
# because the two threads wait on each other whenever the host slows one vCPU.
BLAS_THREADS = 1

log = logging.getLogger("perfbench")


@dataclass
class Run:
    traced: bool
    run_s: float              # wall time
    peak_rss_mb: float
    scaled_s: float = 0.0     # wall time at the reference host speed
    kernel_s: float = 0.0     # mean reference-kernel time around the run
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_once(wl, pop, out: Path, seed: int, traced: bool, run_id: int, env: dict) -> Run:
    """One closed-loop run: the workload's processes in order, timed from
    the first start to the last exit, then checked."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    peak_kib = 0
    problems = []
    started = time.perf_counter()
    for i, args in enumerate(wl.commands(pop.tweets, pop.labels, out, seed)):
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"), *args]
            proc_env = dict(env, PERFBENCH_SPANS=str(out / f"spans-{i}.json"),
                            PERFBENCH_RUN=str(run_id), PERFBENCH_SPAWNED=repr(time.monotonic()))
        else:
            argv = [sys.executable, "-m", "botclust.cli", *args]
            proc_env = env
        with open(out / f"stderr-{i}.log", "wb") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=proc_env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        peak_kib = max(peak_kib, usage.ru_maxrss)
        if proc.returncode != 0:
            problems.append(f"`botclust {args[0]}` exited with {proc.returncode}: "
                            f"{_stderr_tail(out / f'stderr-{i}.log')}")
            break
    run = Run(traced=traced, run_s=time.perf_counter() - started, peak_rss_mb=peak_kib / 1024.0,
              problems=problems)
    if not problems:
        found, run.facts = check_run(wl, pop, out)
        run.problems += found
    if traced and not run.problems:
        docs = [json.loads(p.read_text()) for p in sorted(out.glob("spans-*.json"))]
        run.layers = summarize(docs)
    shutil.rmtree(out, ignore_errors=True)
    return run


def measure(wl, pop, work: Path, seed: int, seconds: float, trace: bool, deadline: float) -> list[Run]:
    """Run rounds until `seconds` have passed; with tracing each round is
    an untraced and a traced run, in alternating order. Every run must
    reproduce the first run's artifacts byte for byte."""
    env = child_env()
    runs: list[Run] = []
    reference = None
    started = time.perf_counter()
    rounds = 0
    kernel_before = kernel_seconds()
    while True:
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - started >= seconds:
            break
        longest = max((r.run_s + r.kernel_s for r in runs), default=0.0) * (2 if trace else 1)
        if runs and now + longest > deadline:
            log.warning("stopping after %d rounds to finish before the deadline", rounds)
            break
        modes = (False, True) if rounds % 2 == 0 else (True, False)
        for traced in modes if trace else (False,):
            run = run_once(wl, pop, work / "out", seed, traced, len(runs), env)
            kernel_after = kernel_seconds()
            run.kernel_s = (kernel_before + kernel_after) / 2.0
            run.scaled_s = scale(run.run_s, kernel_before, kernel_after)
            kernel_before = kernel_after
            digest = run.facts.pop("digest", None)
            if digest is not None:
                reference = reference or digest
                if digest != reference:
                    run.problems.append("artifacts differ from the first run with the same seed")
            for problem in run.problems:
                log.error("run %d (%s): %s", len(runs), "traced" if traced else "untraced", problem)
            runs.append(run)
        rounds += 1
    return runs


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> str:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    p = int(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return "n/a"
    return f"p{p}={statistics.quantiles(values, n=100)[p - 1]:.6g}"


def _ok(runs: list[Run], traced: bool) -> list[Run]:
    chosen = [r for r in runs if r.traced == traced]
    return [r for r in chosen if not r.problems] or chosen


def end_to_end(wl, pop, runs: list[Run]) -> dict[str, list[float]]:
    untraced = _ok(runs, False)
    return {
        "run_s": [r.scaled_s for r in untraced],
        "users_per_s": [wl.n_users / r.scaled_s for r in untraced],
        "peak_rss_mb": [r.peak_rss_mb for r in untraced],
        "setup_s": pop.setup_s,
    }


def wall_times(runs: list[Run], pop) -> dict[str, list[float]]:
    untraced = _ok(runs, False)
    return {
        "wall.run_s": [r.run_s for r in untraced],
        "wall.setup_s": pop.setup_wall_s,
        "host.kernel_s": [r.kernel_s for r in runs] + pop.setup_kernel_s,
    }


def per_layer(runs: list[Run]) -> dict[str, list[float]]:
    traced = [r for r in _ok(runs, True) if r.layers]
    if not traced:
        return {}
    samples: dict[str, list[float]] = {}
    for r in traced:
        values = {**r.layers, **r.facts}
        values["trace.accounted_frac"] = sum(r.layers[m] for m in SELF_TIME_METRICS) / r.run_s
        values["trace.run_s"] = r.run_s
        values["host.kernel_s"] = r.kernel_s
        for key, value in values.items():
            samples.setdefault(key, []).append(float(value))
    untraced = median([r.run_s for r in _ok(runs, False)])
    samples["trace.overhead_frac"] = [median(samples["trace.run_s"]) / untraced - 1.0]
    return samples


def report(wl, seed: int, args, machine: dict, spec: dict, runs: list[Run], pop) -> dict:
    """Print the human-readable report and return the result object."""
    failed = sum(1 for r in runs if r.problems)
    print(f"perfbench: workload={wl.name} seed={seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine: {json.dumps(machine)}")
    print(f"workload: {json.dumps(wl.params())} why: {wl.why}")
    for layer_metrics, moves, where in PREDICTIONS:
        if wl.name in where or where.startswith("all"):
            print(f"prediction: {layer_metrics} -> {moves} (mainly on {where})")
    facts = next((r.facts for r in runs if r.facts), {})
    print(f"quality: weighted_f1={facts.get('labeling.weighted_f1', float('nan')):.6f} "
          "(as measured, not a gate; ROADMAP item 0 can make the Ward binary case read 0)")
    print(f"failed_frac: {failed}/{len(runs)} = {failed / len(runs):.3f}")

    e2e = end_to_end(wl, pop, runs)
    print(f"end-to-end ({sum(1 for r in runs if not r.traced)} untraced runs, "
          f"{SETUP_REPS} set-ups): metric median tail n unit")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, values in e2e.items():
        print(f"  {name} {median(values):.6g} {tail(values)} {len(values)} {units[name]}")
    print(f"unscaled (reference kernel {REFERENCE_KERNEL_S} s): metric median tail n unit")
    for name, values in wall_times(runs, pop).items():
        print(f"  {name} {median(values):.6g} {tail(values)} {len(values)} s")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    samples = per_layer(runs) if args.trace else e2e
    if args.trace and samples:
        print(f"per-layer (medians of {len(samples['trace.run_s'])} traced runs; "
              "*_s are self times except autoencoder.epoch_s; counts are computed, not timed):")
        for m in spec["per_layer"]:
            print(f"  {m['name']} {median(samples[m['name']]):.6g} {m['unit']}")
        by_layer: dict[str, float] = {}
        for metric in set(METRIC_OF.values()) | {"cli.startup_s"}:
            layer = metric.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + median(samples[metric])
        ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
        print("self time by layer: " + ", ".join(f"{k}={v:.4g}s" for k, v in ranked))
    metrics = {m["name"]: {"value": median(samples[m["name"]]), "unit": m["unit"]}
               for m in wanted if m["name"] in samples}
    return {
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def bench_workload(wl, seed: int, args, machine: dict, spec: dict, deadline: float) -> dict:
    work = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    try:
        pop = make_population(wl, seed, work / "inputs")
        runs = measure(wl, pop, work, seed, args.seconds, bool(args.trace), deadline)
        return report(wl, seed, args, machine, spec, runs, pop)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # Compile the package's bytecode once, untimed: users do not pay it per run.
    subprocess.run([sys.executable, "-m", "botclust.cli", "--help"], cwd=ROOT,
                   env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    machine = machine_info()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.perf_counter() + DEADLINE_S
        results[name] = bench_workload(WORKLOADS[name], args.seed, args, machine, spec, deadline)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
