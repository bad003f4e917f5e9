"""Every artifact the CLI writes, pinned by its sha256.

One child process runs the flow table below through `botclust.cli.main`,
each flow in its own directory with relative paths, and records per flow
the exit codes, the stdout summary lines and each artifact's sha256. A
JSON artifact is hashed with the value of each "timing" member cut out.
The record must equal tests/artifact_digests.json, so a change that moves
a byte of any output shows as a diff of that file.

Flows, at --epochs 20, for each synth data seed in DATA_SEEDS:
  run-all on every preset, binary and multiclass;
  the five-step UTS_DBSCAN flow and the six-step Glob_Vec_Hier flow,
  binary and multiclass (a multiclass Ward cut at --n-clusters 3);
  lobo (Glob_Hier binary, UTS_DBSCAN and Glob_Vec_Hier multiclass) and
  importance (Glob_Hier binary, Glob_Vec_Hier multiclass);
  UTS_DBSCAN binary with --features FEATURES, as run-all and as the
  five steps, where extract writes all six features and train selects;
plus synth itself at SYNTH_SEEDS and DATA_SEEDS.

The child runs at one BLAS thread: the vec encoder's dense products
change their last bits with the thread count, and 57 of the 342 digests
differ between one and two OpenBLAS threads. A second test runs one
Vec_Hier flow as CLI processes with no thread variable set, so the one
thread botclust sets by default is checked too. The digests were taken with
numpy 2.4.6 and OpenBLAS 0.3.31, so another numpy or BLAS build can fail
these tests without any fault in the code. On a mismatch the first writes
the actual record under its tmp_path and names it and the numpy and
BLAS build it ran on; after a change meant to move outputs, copy that
file over the pinned one and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from botclust.cli import main

PINNED = Path(__file__).with_name("artifact_digests.json")
DATA_SEEDS = (42, 7)
SYNTH_SEEDS = (1, 42, 51)
PRESETS = ("UTS_DBSCAN", "UTS_Hier", "Vec_Hier", "Glob_Hier", "Glob_Vec_Hier")
TASKS = ("binary", "multiclass")
STEPS = {
    "UTS_DBSCAN": ("extract", "train", "encode", "cluster", "evaluate"),
    "Glob_Vec_Hier": ("extract", "train", "encode", "features", "cluster", "evaluate"),
}
INPUT_STEPS = ("extract", "evaluate")   # the steps that read --tweets/--labels
EPOCHS = ("--epochs", "20")
FEATURES = ("--features", "num_urls,num_hashtags,num_mentions")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def flows():
    """(flow name, synth seed, list of CLI argument lists) per flow."""
    inputs = ["--tweets", "data/tweets.jsonl", "--labels", "data/labels.csv"]
    for seed in DATA_SEEDS:
        for preset in PRESETS:
            for task in TASKS:
                yield (f"seed{seed}/run-all/{preset}/{task}", seed,
                       [["run-all", "--variant-preset", preset, "--task", task, *EPOCHS, *inputs]])
        for preset, steps in STEPS.items():
            for task in TASKS:
                cut = ["--n-clusters", "3"] if task == "multiclass" and preset != "UTS_DBSCAN" else []
                yield (f"seed{seed}/steps/{preset}/{task}", seed,
                       [[step, "--variant-preset", preset, "--task", task, *cut, *EPOCHS,
                         *(inputs if step in INPUT_STEPS else [])] for step in steps])
        for command, preset, task in (("lobo", "Glob_Hier", "binary"),
                                      ("lobo", "UTS_DBSCAN", "multiclass"),
                                      ("lobo", "Glob_Vec_Hier", "multiclass"),
                                      ("importance", "Glob_Hier", "binary"),
                                      ("importance", "Glob_Vec_Hier", "multiclass")):
            yield (f"seed{seed}/{command}/{preset}/{task}", seed,
                   [[command, "--variant-preset", preset, "--task", task, *EPOCHS, *inputs]])
        for flow, steps in (("run-all", ("run-all",)), ("steps", STEPS["UTS_DBSCAN"])):
            yield (f"seed{seed}/features/{flow}/UTS_DBSCAN/binary", seed,
                   [[step, "--variant-preset", "UTS_DBSCAN", "--task", "binary", *EPOCHS,
                     *(FEATURES if step != "extract" else []),
                     *(inputs if step in ("run-all", *INPUT_STEPS) else [])] for step in steps])


TIMING_KEY = '"timing": '


def without_timing(text: str) -> str:
    """A JSON document's text, as written, with the value of each "timing"
    member cut out; a document without one comes back unchanged."""
    parts, pos = [], 0
    while (key := text.find(TIMING_KEY, pos)) >= 0:
        start = key + len(TIMING_KEY)
        parts.append(text[pos:start])
        pos = json.JSONDecoder().raw_decode(text, start)[1]
    return "".join(parts) + text[pos:]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        data = without_timing(data.decode("utf-8")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def artifact_digests(out: Path) -> dict:
    return {p.name: digest(p) for p in sorted(out.iterdir())}


def run_flow(cwd: Path, commands) -> dict:
    """Run commands in cwd with --outdir out; their exit codes, stdout
    lines and artifact digests."""
    os.chdir(cwd)
    codes, stdout = [], io.StringIO()
    for args in commands:
        with contextlib.redirect_stdout(stdout):
            codes.append(main([*args, "--outdir", "out"]))
    return {"exit_codes": codes, "stdout": stdout.getvalue().splitlines(),
            "artifacts": artifact_digests(cwd / "out")}


def run_cli_flow(cwd: Path, commands, env: dict) -> dict:
    """run_flow's record, each command run as its own `python -m botclust.cli`."""
    codes, stdout = [], []
    for args in commands:
        child = subprocess.run([sys.executable, "-m", "botclust.cli", *args, "--outdir", "out"],
                               cwd=cwd, env=env, capture_output=True, text=True)
        codes.append(child.returncode)
        stdout += child.stdout.splitlines()
    return {"exit_codes": codes, "stdout": stdout, "artifacts": artifact_digests(cwd / "out")}


def record(work: Path) -> dict:
    doc = {}
    for seed in sorted({*SYNTH_SEEDS, *DATA_SEEDS}):
        (work / f"synth{seed}").mkdir(parents=True)
        doc[f"synth{seed}"] = run_flow(work / f"synth{seed}", [["synth", "--seed", str(seed)]])
    for name, seed, commands in flows():
        shutil.copytree(work / f"synth{seed}" / "out", work / name / "data")
        doc[name] = run_flow(work / name, commands)
    return doc


def differences(pinned: dict, actual: dict) -> list[str]:
    problems = []
    for flow in sorted(pinned.keys() | actual.keys()):
        if flow not in pinned or flow not in actual:
            problems.append(f"{flow}: only in {'pinned' if flow in pinned else 'actual'}")
            continue
        a, b = pinned[flow], actual[flow]
        if a["exit_codes"] != b["exit_codes"]:
            problems.append(f"{flow}: exit codes {a['exit_codes']} -> {b['exit_codes']}")
        for i, (old, new) in enumerate(zip_longest(a["stdout"], b["stdout"])):
            if old != new:
                problems.append(f"{flow}: stdout line {i + 1}: {old!r} -> {new!r}")
        for artifact in sorted(a["artifacts"].keys() | b["artifacts"].keys()):
            if artifact not in a["artifacts"] or artifact not in b["artifacts"]:
                side = "pinned" if artifact in a["artifacts"] else "actual"
                problems.append(f"{flow}/{artifact}: only in {side}")
            elif a["artifacts"][artifact] != b["artifacts"][artifact]:
                problems.append(f"{flow}/{artifact}: sha256 differs")
    return problems


def numeric_build() -> str:
    """numpy's version and the BLAS it was built with, which the pinned
    digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


@pytest.mark.slow
def test_artifact_digests_match_pinned(tmp_path):
    actual_path = tmp_path / "artifact_digests.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for var in THREAD_VARS:
        env[var] = "1"
    child = subprocess.run([sys.executable, __file__, str(tmp_path / "work"), str(actual_path)],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr[-4000:]
    actual = json.loads(actual_path.read_text())
    problems = differences(json.loads(PINNED.read_text()), actual)
    assert not problems, "\n".join([*problems, f"actual digests written to {actual_path}",
                                     f"numeric build: {numeric_build()}"])


@pytest.mark.slow
def test_cli_runs_one_blas_thread_by_default(tmp_path):
    # The CLI started with no thread variable set: botclust sets one BLAS
    # thread before numpy loads, so a Vec_Hier flow, whose vec products
    # move with the thread count, writes the pinned digests.
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    name, seed, commands = next(f for f in flows() if f[0] == "seed42/run-all/Vec_Hier/multiclass")
    synth = tmp_path / "synth"
    synth.mkdir()
    actual = {f"synth{seed}": run_cli_flow(synth, [["synth", "--seed", str(seed)]], env)}
    shutil.copytree(synth / "out", tmp_path / "flow" / "data")
    actual[name] = run_cli_flow(tmp_path / "flow", commands, env)
    pinned = json.loads(PINNED.read_text())
    problems = differences({flow: pinned[flow] for flow in actual}, actual)
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    work, out = Path(sys.argv[1]), Path(sys.argv[2]).resolve()
    out.write_text(json.dumps(record(work.resolve()), indent=1, sort_keys=True) + "\n")
