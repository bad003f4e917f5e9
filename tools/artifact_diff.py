"""Compare the artifacts and stdout summaries of two botclust checkouts.

Runs the same CLI flows with each checkout's sources and lists every
artifact that differs, every artifact that only one side wrote, every
differing exit code and every stdout summary line that differs. Artifacts
compare byte for byte, except that the value of each JSON "timing" member
is cut out first. Each flow runs in its own directory under one temporary
directory, removed on exit, with relative paths, so the two sides'
outputs compare as they stand.

    python3 tools/artifact_diff.py BASE_CHECKOUT CHANGE_CHECKOUT

Flows, for each synth data seed in DATA_SEEDS, at the CLI's default settings:
  run-all on every preset, binary and multiclass;
  the five-step UTS_DBSCAN flow and the six-step Glob_Vec_Hier flow,
  binary and multiclass (a multiclass Ward cut at --n-clusters 3);
  lobo (Glob_Hier binary, UTS_DBSCAN multiclass) and importance
  (Glob_Hier binary).
synth output itself is compared by sha256 at SYNTH_SEEDS and DATA_SEEDS.
Exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DATA_SEEDS = (42, 7)
SYNTH_SEEDS = (1, 42, 51)
PRESETS = ("UTS_DBSCAN", "UTS_Hier", "Vec_Hier", "Glob_Hier", "Glob_Vec_Hier")
TASKS = ("binary", "multiclass")
STEPS = {
    "UTS_DBSCAN": ("extract", "train", "encode", "cluster", "evaluate"),
    "Glob_Vec_Hier": ("extract", "train", "encode", "features", "cluster", "evaluate"),
}
INPUT_STEPS = ("extract", "evaluate")   # the steps that read --tweets/--labels


def flows():
    """(flow name, synth seed, list of CLI argument lists) per flow."""
    inputs = ["--tweets", "data/tweets.jsonl", "--labels", "data/labels.csv"]
    for seed in DATA_SEEDS:
        for preset in PRESETS:
            for task in TASKS:
                yield (f"seed{seed}/run-all/{preset}/{task}", seed,
                       [["run-all", "--variant-preset", preset, "--task", task, *inputs]])
        for preset, steps in STEPS.items():
            for task in TASKS:
                cut = ["--n-clusters", "3"] if task == "multiclass" and preset != "UTS_DBSCAN" else []
                yield (f"seed{seed}/steps/{preset}/{task}", seed,
                       [[step, "--variant-preset", preset, "--task", task, *cut,
                         *(inputs if step in INPUT_STEPS else [])] for step in steps])
        for command, preset, task in (("lobo", "Glob_Hier", "binary"),
                                      ("lobo", "UTS_DBSCAN", "multiclass"),
                                      ("importance", "Glob_Hier", "binary")):
            yield (f"seed{seed}/{command}/{preset}/{task}", seed,
                   [[command, "--variant-preset", preset, "--task", task, *inputs]])


def run_cli(checkout: Path, cwd: Path, args: list[str]) -> tuple[int, list[str]]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "botclust.cli", *args, "--outdir", "out"],
                          cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


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


def comparable(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix == ".json":
        return without_timing(data.decode("utf-8")).encode("utf-8")
    return data


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare(sides: dict[str, Path], work: Path) -> int:
    problems: list[str] = []
    n_artifacts = n_lines = n_failed = 0

    synth_seeds = sorted({*SYNTH_SEEDS, *DATA_SEEDS})
    for seed in synth_seeds:
        digests = {}
        for side, checkout in sides.items():
            cwd = work / side / f"synth{seed}"
            cwd.mkdir(parents=True)
            run_cli(checkout, cwd, ["synth", "--seed", str(seed)])
            digests[side] = [sha256(cwd / "out" / name) for name in ("tweets.jsonl", "labels.csv")]
        n_artifacts += 2
        if digests["base"] != digests["change"]:
            problems.append(f"synth --seed {seed}: sha256 differs")

    all_flows = list(flows())
    for name, seed, commands in all_flows:
        outputs = {}
        for side, checkout in sides.items():
            cwd = work / side / name
            cwd.mkdir(parents=True)
            shutil.copytree(work / side / f"synth{seed}" / "out", cwd / "data")
            lines, codes = [], []
            for command in commands:
                code, stdout = run_cli(checkout, cwd, command)
                codes.append(code)
                lines += stdout
            outputs[side] = (codes, lines, cwd / "out")
        (base_codes, base_lines, base_out), (codes, lines, out) = outputs["base"], outputs["change"]
        if base_codes != codes:
            problems.append(f"{name}: exit codes {base_codes} -> {codes}")
        n_lines += len(base_lines)
        n_failed += sum(code != 0 for code in base_codes)
        for i, (a, b) in enumerate(zip(base_lines, lines)):
            if a != b:
                problems.append(f"{name}: stdout line {i + 1}: {a!r} -> {b!r}")
        if len(base_lines) != len(lines):
            problems.append(f"{name}: {len(base_lines)} -> {len(lines)} stdout lines")
        names = sorted({p.name for p in base_out.iterdir()} | {p.name for p in out.iterdir()})
        for artifact in names:
            a, b = base_out / artifact, out / artifact
            if not (a.exists() and b.exists()):
                problems.append(f"{name}/{artifact}: only in {'base' if a.exists() else 'change'}")
            elif comparable(a) != comparable(b):
                problems.append(f"{name}/{artifact}: differs outside timing")
            n_artifacts += 1

    for line in problems:
        print(line)
    print(f"{len(all_flows)} flows and synth seeds {synth_seeds}: {n_artifacts} artifacts and "
          f"{n_lines} stdout lines compared, {len(problems)} differences; {n_failed} base commands "
          "exited non-zero")
    return 1 if problems else 0



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("change", type=Path, help="checkout to compare against it")
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as work:
        return compare(sides, Path(work))

if __name__ == "__main__":
    sys.exit(main())
