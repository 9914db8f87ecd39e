#!/usr/bin/env python3
"""Build the SGMS benchmark and run one workload.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark (perf/CMakeLists.txt) is
built from source into $CARGO_TARGET_DIR/perf (default
.bench_build/perf); the first run of a fresh checkout pays the build.

--trace 0 measures the end-to-end metrics: set-up runs SETUP_RUNS
extra times in fresh processes and setup_s is the median of all
set-ups; the grid then runs pass after pass for --seconds seconds.
--trace 1 makes the traced run and reports the per-layer metrics.

The program's own output and its record (host fingerprint, result
digest, per-pass detail) are echoed; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 1 without a result if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_sweep", "fault_storm", "cluster_contention")
SETUP_RUNS = 4
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perf/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perf"


def build(bdir):
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "sgms_perf",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}")
    return bdir / "sgms_perf"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return p.stdout.strip() if p.returncode == 0 else "none"


def run(cmd, env, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           cwd=ROOT, timeout=left)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        fail(f"exit {p.returncode}: {' '.join(cmd)}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail(f"no output: {' '.join(cmd)}")
    return lines


def expected_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if traced else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    deadline = time.monotonic() + RUN_BUDGET_S
    # Runs are configured by their arguments alone: no SGMS_* knob
    # (jobs, cache, trace store) leaks in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SGMS_")}
    tmp_root = bdir.parent / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        base = [str(exe), f"--workload={args.workload}",
                f"--seed={args.seed}", f"--tmp-dir={tmp}"]
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                line = run(base + ["--setup-only"], env, deadline)[-1]
                setups.append(json.loads(line)["setup_s"])
        lines = run(base + [f"--seconds={args.seconds}",
                            f"--trace={args.trace}",
                            f"--git-sha={git_sha()}"], env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in lines[:-1]:
        print(line)
    record = json.loads(lines[-1])["record"]
    metrics = record["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        record["setup_samples"] = setups
    print(json.dumps({"record": record}))

    want = expected_metrics(args.trace)
    names = [m["name"] for m in want]
    if sorted(names) != sorted(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for m in want:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} does not match BENCHMARK.json")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{name} is not a number")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: metrics[n] for n in names},
    }))


if __name__ == "__main__":
    main()
