#!/usr/bin/env bash
# The paper reproduction as one checked, timed run.
#
#   scripts/paper.sh
#
# Builds build/, then runs every figure, table and ablation bench
# (build/bench/fig*, table*, ablation_*) one after another at
# SGMS_SCALE=1.0 and SGMS_JOBS=4, each writing its stdout into a
# temp dir, and cmp's each output against its committed
# results/<bench>.txt, plus ablation_adaptive's JSON against
# results/BENCH_adaptive.json. The benches share one result cache
# (SGMS_CACHE=1) and one baked-trace dir (SGMS_TRACE_DIR); both start
# empty in the temp dir and are removed at exit, so no result from
# another build is served. The baked traces take about 4 GB.
#
# Prints wall and CPU (user + sys) seconds per bench and in total.
# Exits non-zero when a bench fails, a bench has no committed output,
# or any output differs. Takes a few minutes on a 4-core box.

set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" >/dev/null

tmp="$(mktemp -d "${TMPDIR:-/tmp}/sgms-paper.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/out" "$tmp/cache" "$tmp/traces"

export SGMS_SCALE=1.0 SGMS_JOBS=4 SGMS_CACHE=1
export SGMS_CACHE_DIR="$tmp/cache" SGMS_TRACE_DIR="$tmp/traces"

mapfile -t benches < <(cd bench && ls fig*.cc table*.cc ablation_*.cc |
    sed 's/\.cc$//' | sort -V)

TIMEFORMAT='%R %U %S'
failed=0
total_wall=0
total_cpu=0
printf '%-28s %8s %8s  %s\n' bench wall_s cpu_s output
for b in "${benches[@]}"; do
    want="results/$b.txt"
    if [[ ! -f "$want" ]]; then
        printf '%-28s %8s %8s  %s\n' "$b" - - "no $want"
        failed=1
        continue
    fi
    args=()
    [[ "$b" == ablation_adaptive ]] &&
        args=(--out="$tmp/out/BENCH_adaptive.json")
    status=ok
    { time ./build/bench/"$b" "${args[@]}" >"$tmp/out/$b.txt" \
        2>"$tmp/out/$b.err"; } 2>"$tmp/out/$b.time" || status="exit $?"
    read -r wall user sys <"$tmp/out/$b.time"
    cpu=$(python3 -c "print(f'{$user + $sys:.2f}')")
    if [[ "$status" == ok ]] && ! cmp -s "$tmp/out/$b.txt" "$want"; then
        status="differs from $want"
    fi
    if [[ "$status" == ok && "$b" == ablation_adaptive ]] &&
        ! cmp -s "$tmp/out/BENCH_adaptive.json" results/BENCH_adaptive.json
    then
        status="JSON differs from results/BENCH_adaptive.json"
    fi
    [[ "$status" == ok ]] || failed=1
    printf '%-28s %8s %8s  %s\n' "$b" "$wall" "$cpu" "$status"
    total_wall=$(python3 -c "print(f'{$total_wall + $wall:.2f}')")
    total_cpu=$(python3 -c "print(f'{$total_cpu + $cpu:.2f}')")
done
printf '%-28s %8s %8s\n' "total (${#benches[@]} benches)" \
    "$total_wall" "$total_cpu"

if [[ $failed -ne 0 ]]; then
    echo "paper: FAILED (a bench failed or an output differs)"
    exit 1
fi
echo "paper: all ${#benches[@]} outputs and BENCH_adaptive.json match results/"
