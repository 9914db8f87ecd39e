#!/usr/bin/env bash
# A/B comparison of benchmark workloads between a base commit and
# the working tree.
#
#   scripts/perf_ab.sh BASE WORKLOAD [SEED] [PAIRS]
#
# BASE is any git revision (a commit, a branch, HEAD~1); WORKLOAD is
# a BENCHMARK.json workload, or `all` for every one of them in turn;
# SEED defaults to 1 and PAIRS to 10.
#
# The committed files of BASE are exported (git archive) into
# .bench_build/ab-<sha>/, and each side builds its own perf/ into its
# own .bench_build/perf. The script then runs PAIRS alternating pairs
# of `perf/run.py --workload WORKLOAD --seed SEED --seconds S
# --trace 0`, with S the benchmark's run_seconds, base first in odd
# pairs and the working tree first in even ones. It prints, per
# end-to-end metric, the median and quartiles of each side, the ratio
# of the medians and how many pairs the working tree won: one table
# per workload, each from its own log directory.
#
# Exits non-zero when, in any workload, a run fails, a point fails,
# or a result digest differs between runs. A failed run ends its
# workload; the next one still runs. No result is a gate by itself:
# read the tables.

set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

if [[ $# -lt 2 || $# -gt 4 ]]; then
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0"
    exit 2
fi
base_rev="$1"
workload="$2"
seed="${3:-1}"
pairs="${4:-10}"
[[ "$seed" =~ ^[0-9]+$ ]] || { echo "perf_ab: bad SEED '$seed'"; exit 2; }
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] ||
    { echo "perf_ab: bad PAIRS '$pairs'"; exit 2; }

sha="$(git rev-parse --verify "${base_rev}^{commit}")"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)"
if [[ "$workload" == all ]]; then
    mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' BENCHMARK.json)
else
    workloads=("$workload")
fi

base_dir="$root/.bench_build/ab-${sha:0:12}"
if [[ ! -f "$base_dir/perf/run.py" ]]; then
    rm -rf "$base_dir.tmp"
    mkdir -p "$base_dir.tmp"
    git archive "$sha" | tar -x -C "$base_dir.tmp"
    rm -rf "$base_dir"
    mv "$base_dir.tmp" "$base_dir"
fi

# run WORKLOAD LOGS SIDE DIR PAIR: one run.py in DIR, building into
# DIR/.bench_build. Returns non-zero when the run fails.
run() {
    local wl="$1" logs="$2" side="$3" dir="$4" pair="$5"
    local out="$logs/$side-$pair.txt"
    if ! (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" \
            python3 perf/run.py --workload "$wl" --seed "$seed" \
            --seconds "$seconds" --trace 0) >"$out" 2>&1; then
        tail -n 20 "$out"
        echo "perf_ab: $wl: $side run of pair $pair failed (see $out)"
        return 1
    fi
}

# compare WORKLOAD: run its pairs into a fresh log directory, then
# print its table. Returns non-zero on a failed run, point or digest.
compare() {
    local wl="$1" logs i
    logs="$root/.bench_build/ab-logs/$(date +%Y%m%d-%H%M%S)-$wl-s$seed"
    mkdir -p "$logs"
    echo "perf_ab: base ${sha:0:12} vs working tree, $wl seed $seed," \
         "$pairs pairs at ${seconds}s; logs in ${logs#"$root"/}"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run "$wl" "$logs" base "$base_dir" "$i" || return 1
            run "$wl" "$logs" change "$root" "$i" || return 1
        else
            run "$wl" "$logs" change "$root" "$i" || return 1
            run "$wl" "$logs" base "$base_dir" "$i" || return 1
        fi
        echo "   pair $i/$pairs done"
    done
    python3 - "$logs" "$pairs" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

logs, pairs = Path(sys.argv[1]), int(sys.argv[2])
spec = json.loads(Path("BENCHMARK.json").read_text())
ok = True


def load(side, i):
    lines = (logs / f"{side}-{i}.txt").read_text().strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


runs = {s: [load(s, i) for i in range(1, pairs + 1)]
        for s in ("base", "change")}
digests = set()
for side, rs in runs.items():
    for i, (record, result) in enumerate(rs, 1):
        digests.add(record["digest"])
        if not result["correct"] or result["failed"]:
            print(f"FAIL: {side} pair {i}: {result['failed']} of "
                  f"{result['attempted']} points failed")
            ok = False
if len(digests) != 1:
    print(f"FAIL: result digests differ: {sorted(digests)}")
    ok = False
else:
    print(f"digest {digests.pop()} on every run")


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{'metric':<18} {'base median [Q1, Q3]':>30} "
      f"{'change median [Q1, Q3]':>30} {'ratio':>7} {'wins':>6}")
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    b = [r[1]["metrics"][name]["value"] for r in runs["base"]]
    c = [r[1]["metrics"][name]["value"] for r in runs["change"]]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
    bq, cq = quartiles(b), quartiles(c)
    ratio = cq[1] / bq[1] if bq[1] else float("nan")
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    print(f"{name:<18} {fmt(bq):>30} {fmt(cq):>30} {ratio:>7.3f} "
          f"{wins:>3}/{pairs}")
sys.exit(0 if ok else 1)
EOF
}

status=0
for wl in "${workloads[@]}"; do
    compare "$wl" || status=1
done
exit "$status"
