#!/usr/bin/env bash
# Tier-1 verification plus a strict warnings pass.
#
#   scripts/check.sh          configure + build + ctest (tier 1, run
#                             twice: under SGMS_JOBS=2 for the
#                             engine's worker threads and under
#                             SGMS_WORKERS=2 for the forked process
#                             fleet), a multi-process byte-identity
#                             smoke, a result-cache smoke (a cold
#                             and a warm export_grid --cache-dir run,
#                             the warm one served from the cache,
#                             both byte-identical), a seed-7 bake
#                             smoke (policy_explorer at seed 7 with
#                             a fresh SGMS_TRACE_DIR bakes seed 7's
#                             trace alone and prints the bytes of
#                             the run without it), an unknown-option
#                             smoke
#                             (export_grid must reject each retired
#                             flag, and quickstart, policy_explorer
#                             and fig4_breakdown --debug-flags, before
#                             any point runs), a hostile-value smoke
#                             (export_grid must reject a value that
#                             does not fit its flag, naming the
#                             flag; a zero client count, a NaN or
#                             zero scale too), a trace_tool smoke
#                             (convert and bake round trips,
#                             payload-hash check), a positional-
#                             argument smoke (policy_explorer and
#                             trace_tool must reject a subpage,
#                             memory word, scale or seed that does
#                             not fit, naming it), a render_farm
#                             smoke (examples/render_farm at scale
#                             0.02 must exit 0 and print both of
#                             its tables, and fail naming SGMS_SCALE
#                             at 0.02x), a byte check
#                             of Figure 2 and Table 2 against
#                             results/ (each builds its one fault
#                             by hand and runs in milliseconds),
#                             of ablation_faults (the only
#                             committed output that runs the
#                             reliability layer; 0.1 s) and of
#                             fig6_clustering and
#                             fig10_clustering_apps (the only
#                             outputs that read the fault curve;
#                             about 3 s each),
#                             then a -Wall
#                             -Wextra -Werror
#                             rebuild in a separate tree
#                             (build-strict/), an ASan+UBSan build
#                             (with float-cast-overflow) + ctest
#                             (build-asan/), a TSan build +
#                             ctest (build-tsan/), the
#                             exec_throughput bench (writes
#                             results/BENCH_exec_current.json next
#                             to the committed BENCH_exec.json),
#                             the sim_hotpath bench with a perf smoke
#                             against the committed
#                             results/BENCH_sim_hotpath.json
#                             (>25% warm-mix regression fails;
#                             SGMS_PERF_SMOKE=0 skips), the
#                             cluster_scale bench with a multi-client
#                             perf smoke against the committed
#                             results/BENCH_cluster.json (>25%
#                             events/sec regression fails; same skip
#                             knob), and the
#                             trace_io bench (binary trace pipeline;
#                             fails when mmap startup-to-first-ref
#                             is not at least 5x faster than heap),
#                             and the benchmark (perf/: builds
#                             sgms_perf + perf_test into
#                             .bench_build/perf, runs perf_test, and
#                             fails unless a traced fault_storm run
#                             reports "correct": true), and
#                             byte checks against results/ of
#                             ablation_replacement (the only
#                             committed output with Clock rows) and
#                             of ablation_adaptive (text and JSON)
#   scripts/check.sh --quick  tier 1, the smokes and the byte
#                             checks above only
#   scripts/check.sh --paper  also (after either mode) the paper
#                             reproduction byte check,
#                             scripts/paper.sh: every figure, table
#                             and ablation bench at scale 1.0 against
#                             results/ (opt-in: it takes minutes)
#
# Exits non-zero on the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
paper=0
for arg in "$@"; do
    case "$arg" in
      --quick) quick=1 ;;
      --paper) paper=1 ;;
      *) echo "check.sh: unknown option '$arg'"; exit 2 ;;
    esac
done

echo "== tier 1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"

echo "== tier 1: ctest (SGMS_JOBS=2) =="
# SGMS_JOBS=2 routes every run_sweep/bench batch in the suite through
# the engine's worker threads; results must stay byte-identical.
(cd build && SGMS_JOBS=2 ctest --output-on-failure -j "$(nproc)")

echo "== tier 1: ctest (SGMS_WORKERS=2, process fleet) =="
# Same suite again with env-configured sweeps sharded across forked
# worker processes instead of threads.
(cd build && SGMS_WORKERS=2 ctest --output-on-failure -j "$(nproc)")

tmp_trace="$(mktemp /tmp/sgms-trace.XXXXXX.json)"
tmp_grid="$(mktemp -d /tmp/sgms-grid.XXXXXX)"
trap 'rm -rf "$tmp_trace" "$tmp_grid"' EXIT

echo "== smoke: multi-process sweep is byte-identical =="
./build/examples/export_grid --scale=0.05 --jobs=1 \
    --json="$tmp_grid/serial.json" --csv="$tmp_grid/serial.csv" \
    >/dev/null
./build/examples/export_grid --scale=0.05 --workers=2 \
    --json="$tmp_grid/workers.json" --csv="$tmp_grid/workers.csv" \
    >/dev/null
cmp "$tmp_grid/serial.json" "$tmp_grid/workers.json"
cmp "$tmp_grid/serial.csv" "$tmp_grid/workers.csv"
echo "   workers=2 output matches jobs=1 byte for byte"

echo "== smoke: mapped trace tier is byte-identical =="
# Same grid with SGMS_TRACE_DIR: traces are baked once and replayed
# through mmap by a forked worker fleet sharing the baked files.
SGMS_TRACE_DIR="$tmp_grid/traces" \
    ./build/examples/export_grid --scale=0.05 --workers=2 \
    --json="$tmp_grid/mapped.json" --csv="$tmp_grid/mapped.csv" \
    >/dev/null
cmp "$tmp_grid/serial.json" "$tmp_grid/mapped.json"
cmp "$tmp_grid/serial.csv" "$tmp_grid/mapped.csv"
baked=$(ls "$tmp_grid/traces"/*.sgmb | wc -l)
echo "   mapped replay matches heap byte for byte ($baked baked files)"

echo "== smoke: a seed-7 point bakes only its own trace =="
# Memory is sized on seed 1's footprint at every seed. A point at
# another seed counts those pages on a streamed pass, so a fresh trace
# directory gains one bake, seed 7's, and the output matches the run
# without the directory.
./build/examples/policy_explorer gdb eager 1024 half 0.05 7 \
    >"$tmp_grid/seed7.txt"
SGMS_TRACE_DIR="$tmp_grid/seed7-traces" \
    ./build/examples/policy_explorer gdb eager 1024 half 0.05 7 \
    >"$tmp_grid/seed7-mapped.txt"
cmp "$tmp_grid/seed7.txt" "$tmp_grid/seed7-mapped.txt"
bakes=("$tmp_grid/seed7-traces"/*.sgmb)
[[ ${#bakes[@]} -eq 1 ]] ||
    { echo "a seed-7 point baked ${#bakes[@]} trace files, not 1"; exit 1; }
./build/examples/trace_tool info "${bakes[0]}" | grep -qE '^seed: +7$' ||
    { echo "the one bake of a seed-7 point is not seed 7's"; exit 1; }
echo "   one bake (seed 7's); output matches the run without a trace dir"

echo "== smoke: result cache serves every point =="
# A cold run fills a fresh cache directory and a warm run reads every
# point back through the result codec: both must write the jobs=1
# bytes.
for pass in cold warm; do
    ./build/examples/export_grid --scale=0.05 \
        --cache-dir="$tmp_grid/cache" \
        --json="$tmp_grid/$pass.json" --csv="$tmp_grid/$pass.csv" \
        >"$tmp_grid/$pass.out"
    cmp "$tmp_grid/serial.json" "$tmp_grid/$pass.json"
    cmp "$tmp_grid/serial.csv" "$tmp_grid/$pass.csv"
done
grep -qx "engine: 15 simulated, 0 from cache" "$tmp_grid/cold.out"
grep -qx "engine: 0 simulated, 15 from cache" "$tmp_grid/warm.out"
echo "   cold and warm cached runs match jobs=1 byte for byte" \
    "(15 points served from the cache)"

echo "== smoke: export_grid rejects an unknown option =="
# A flag nothing reads (here retired ones) must fail before any point
# runs instead of quietly running the default grid, and the error
# must name the flag.
rejects() { # rejects FLAG CMD...: CMD FLAG must fail on FLAG
    local flag=$1 err
    shift
    if err=$("$@" "$flag" 2>&1 >/dev/null); then
        echo "$1 accepted $flag"
        exit 1
    fi
    grep -qF -- "unknown or unused option ${flag%%=*}" <<<"$err" ||
        { echo "$1 failed on $flag without naming it: $err"; exit 1; }
}
for flag in --cluster-load=0.5 --point-timeout=1 --cache-max-mb=1 \
    --cache-gc --debug-flags=Net; do
    rejects "$flag" ./build/examples/export_grid --scale=0.01
done
for tool in examples/quickstart examples/policy_explorer \
    bench/fig4_breakdown; do
    rejects --debug-flags=Net "./build/$tool"
done
echo "   retired flags rejected by export_grid, quickstart," \
    "policy_explorer and fig4_breakdown"

echo "== smoke: export_grid rejects a value that does not fit its flag =="
# A NaN step, a page size past 32 bits (or past 64 bits once scaled by
# its suffix, or negative), a fault spec with an empty message kind
# or a NaN outage time, a subpage size or client count past 32 bits,
# an unknown memory word, a client count with trailing text or of
# zero, and a NaN or zero scale each once ran (wrapped, guessed, ran
# one client, ran a degenerate grid, or wrote out of bounds) or
# aborted; each must fail before any point runs, naming the flag.
rejects_value() { # rejects_value FLAG CMD...: CMD FLAG must fail on FLAG
    local flag=$1 err
    shift
    if err=$("$@" "$flag" 2>&1 >/dev/null); then
        echo "$1 accepted $flag"
        exit 1
    fi
    grep -qF -- "${flag%%=*}" <<<"$err" ||
        { echo "$1 failed on $flag without naming it: $err"; exit 1; }
}
for flag in --ns-per-ref=nan --page=4294975488 \
    --page=18014398509481985K --page=-8K --faults=loss-=0.5 \
    --faults=down=0:nan --subpages=4294968320 --mems=bogus \
    --clients=4294967297 --clients=2x --clients=abc --clients=0 \
    --scale=nan --scale=0; do
    rejects_value "$flag" ./build/examples/export_grid --scale=0.01
done
echo "   hostile values rejected by export_grid, each naming its flag"

echo "== smoke: trace_tool gen / convert / bake / info =="
# gen -> SGMB -> text -> SGMB (with the same provenance) must give
# back the same bytes, and so must baking the same trace; a second
# bake keeps the first file; info verifies the payload hash and
# fails on a one-byte corruption.
tool=./build/examples/trace_tool
tdir="$tmp_grid/tool"
mkdir -p "$tdir"
"$tool" gen gdb "$tdir/a.sgmb" 0.01 3 >/dev/null
"$tool" convert "$tdir/a.sgmb" "$tdir/a.txt" >/dev/null
"$tool" convert "$tdir/a.txt" "$tdir/b.sgmb" \
    --app=gdb --scale=0.01 --seed=3 >/dev/null
cmp "$tdir/a.sgmb" "$tdir/b.sgmb"
"$tool" bake gdb --scale=0.01 --seed=3 --dir="$tdir/baked" >/dev/null
baked=$(ls "$tdir/baked"/*.sgmb)
cmp "$tdir/a.sgmb" "$baked"
inode=$(stat -c %i "$baked")
"$tool" bake gdb --scale=0.01 --seed=3 --dir="$tdir/baked" >/dev/null
[[ "$(stat -c %i "$baked")" == "$inode" ]] ||
    { echo "second bake replaced $baked"; exit 1; }
grep -q "(verified)" <<<"$("$tool" info "$tdir/a.sgmb")"
python3 - "$tdir/a.sgmb" "$tdir/bad.sgmb" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[100] ^= 0xff  # a payload byte: the header is 64 bytes
open(sys.argv[2], "wb").write(data)
EOF
if "$tool" info "$tdir/bad.sgmb" >/dev/null 2>&1; then
    echo "trace_tool info accepted a corrupted payload"
    exit 1
fi
echo "   round trips and bake byte-identical, bake reused, corruption caught"

echo "== smoke: positional arguments that do not fit are rejected =="
# policy_explorer and trace_tool once ran a subpage size past 32 bits
# wrapped, an unknown memory word as half memory, a scale or seed
# with trailing text as its leading digits, and a NaN scale until the
# workload model failed without naming it; each run must fail and
# name the argument and its value.
rejects_arg() { # rejects_arg NAME VALUE CMD...: CMD must fail on VALUE
    local name=$1 value=$2 err
    shift 2
    if err=$("$@" 2>&1 >/dev/null); then
        echo "$* accepted $name $value"
        exit 1
    fi
    grep -qF -- "$name" <<<"$err" && grep -qF -- "$value" <<<"$err" ||
        { echo "$* failed without naming $name $value: $err"; exit 1; }
}
explorer=./build/examples/policy_explorer
rejects_arg subpage 4294968320 "$explorer" gdb eager 4294968320
rejects_arg mem bogus "$explorer" gdb eager 1024 bogus
rejects_arg scale abc "$explorer" gdb eager 1024 half abc
rejects_arg scale nan "$explorer" gdb eager 1024 half nan
rejects_arg seed 7x "$explorer" gdb eager 1024 half 0.01 7x
rejects_arg subpage 4294968320 "$tool" sim "$tdir/a.sgmb" eager 4294968320
echo "   hostile positional values rejected by policy_explorer and" \
    "trace_tool, each naming its argument"

echo "== results: fig2_timeline, table2_fault_latency, ablation_faults, fig6_clustering and fig10_clustering_apps are byte-identical =="
# Figure 2 is drawn from the Net spans of its hand-built fault, and
# Table 2 times the same fault: both pin the staged network tick for
# tick. ablation_faults is the only committed output that runs the
# reliability layer (loss, outages, retries, degraded disk reads);
# its tables are the paper-scale ones. Figures 6 and 10 are the only
# outputs that read the fault curve (SimResult::fault_curve).
for bench in fig2_timeline table2_fault_latency ablation_faults \
    fig6_clustering fig10_clustering_apps; do
    SGMS_SCALE=1.0 "./build/bench/$bench" >"$tmp_grid/$bench.txt"
    cmp "$tmp_grid/$bench.txt" "results/$bench.txt"
done
echo "   fig2_timeline, table2_fault_latency, ablation_faults," \
    "fig6_clustering and fig10_clustering_apps match results/ byte" \
    "for byte"

echo "== smoke: examples/render_farm prints both tables =="
SGMS_SCALE=0.02 ./build/examples/render_farm >"$tmp_grid/render_farm.txt"
for heading in "how much memory does the render node need" \
    "choosing the transfer unit"; do
    grep -qF "== $heading" "$tmp_grid/render_farm.txt" ||
        { echo "render_farm printed no '$heading' table"; exit 1; }
done
grep -q "^| 1/4-mem " "$tmp_grid/render_farm.txt" &&
    grep -q "^| sp_256 " "$tmp_grid/render_farm.txt" ||
    { echo "render_farm tables are missing rows"; exit 1; }
echo "   render_farm ran at scale 0.02 and printed both tables"
# SGMS_SCALE was once read with strtod, so 0.02x ran at 0.02.
if err=$(SGMS_SCALE=0.02x ./build/examples/render_farm 2>&1 >/dev/null); then
    echo "render_farm accepted SGMS_SCALE=0.02x"
    exit 1
fi
grep -qF SGMS_SCALE <<<"$err" ||
    { echo "render_farm failed on SGMS_SCALE=0.02x without naming it: $err"; exit 1; }
echo "   render_farm rejected SGMS_SCALE=0.02x, naming it"

echo "== smoke: trace export =="
./build/examples/quickstart --trace-out="$tmp_trace" >/dev/null
python3 - "$tmp_trace" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
cats = {e.get("cat") for e in events}
want = {"fault", "page_wait", "block", "net", "gms", "policy"}
missing = want - cats
assert not missing, f"trace missing categories: {missing}"
print(f"   {len(events)} events, all {len(want)} span categories present")
EOF

if [[ $quick -eq 0 ]]; then
    echo "== strict: -Wall -Wextra -Werror rebuild =="
    # -Wno-restrict: GCC 12 emits a false-positive -Wrestrict from
    # std::string::operator=(const char*) at -O2 (GCC PR105329).
    cmake -B build-strict -S . \
        -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror -Wno-restrict" >/dev/null
    cmake --build build-strict -j "$(nproc)"

    echo "== sanitizers: ASan+UBSan build + ctest =="
    # GCC's "undefined" leaves out float-cast-overflow, the check that
    # sees a double cast to a Tick it does not fit.
    cmake -B build-asan -S . \
        -DSGMS_SANITIZE=address,undefined,float-cast-overflow >/dev/null
    cmake --build build-asan -j "$(nproc)"
    (cd build-asan &&
        ASAN_OPTIONS=detect_leaks=0 \
        UBSAN_OPTIONS=halt_on_error=1 \
        ctest --output-on-failure -j "$(nproc)")

    echo "== sanitizers: TSan build + ctest (SGMS_JOBS=2) =="
    # TSan is incompatible with ASan/LSan, hence its own tree; run
    # with the engine forced parallel so worker/submitter/cache races
    # actually get exercised.
    cmake -B build-tsan -S . -DSGMS_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$(nproc)"
    (cd build-tsan &&
        SGMS_JOBS=2 \
        TSAN_OPTIONS=halt_on_error=1 \
        ctest --output-on-failure -j "$(nproc)")

    echo "== results: ablation_replacement is byte-identical =="
    # The only committed output with Clock (and FIFO) rows, so a
    # replacement policy that drifts shows here even when every
    # tier-1 count still matches.
    SGMS_SCALE=1.0 SGMS_JOBS=4 ./build/bench/ablation_replacement \
        >"$tmp_grid/ablation_replacement.txt"
    cmp "$tmp_grid/ablation_replacement.txt" \
        results/ablation_replacement.txt
    echo "   ablation_replacement matches results/ byte for byte"

    echo "== results: ablation_adaptive is byte-identical =="
    # The only committed output with pipelining-adaptive rows. Its
    # "wrote" line goes to stderr, so --out does not change the text.
    SGMS_SCALE=1.0 SGMS_JOBS=4 ./build/bench/ablation_adaptive \
        --out="$tmp_grid/BENCH_adaptive.json" \
        >"$tmp_grid/ablation_adaptive.txt"
    cmp "$tmp_grid/ablation_adaptive.txt" results/ablation_adaptive.txt
    cmp "$tmp_grid/BENCH_adaptive.json" results/BENCH_adaptive.json
    echo "   ablation_adaptive text and JSON match results/ byte for byte"

    echo "== bench: exec engine throughput =="
    mkdir -p results
    SGMS_SCALE="${SGMS_SCALE:-0.05}" \
        ./build/bench/exec_throughput --out=results/BENCH_exec_current.json

    echo "== bench: simulator hot path + perf smoke =="
    # Re-measure the hot path and compare the warm-mix refs/sec
    # against the committed baseline JSON; a drop of more than 25%
    # fails the check. SGMS_PERF_SMOKE=0 skips the comparison (for
    # boxes not comparable to the one that recorded the baseline);
    # the fresh measurement is always written for CI upload.
    ./build/bench/sim_hotpath \
        --out=results/BENCH_sim_hotpath_current.json
    if [[ "${SGMS_PERF_SMOKE:-1}" != "0" ]]; then
        python3 - <<'EOF'
import json
committed = json.load(open("results/BENCH_sim_hotpath.json"))
current = json.load(open("results/BENCH_sim_hotpath_current.json"))
ref = committed["mix_warm_refs_per_sec"]
got = current["mix_warm_refs_per_sec"]
ratio = got / ref
print(f"   warm mix: {got:.0f} refs/s vs committed {ref:.0f} "
      f"({ratio:.2f}x)")
assert ratio >= 0.75, (
    f"hot-path regression: warm mix {got:.0f} refs/s is more than "
    f"25% below the committed {ref:.0f} (set SGMS_PERF_SMOKE=0 to "
    f"skip on incomparable hardware)")
print("   perf smoke passed")
EOF
    fi

    echo "== bench: multi-client cluster scaling + perf smoke =="
    # Sweep the multi-client kernel (capped at 256 clients here; the
    # committed curve goes to 1024) and compare its kernel dispatch
    # rate (mc_events_per_sec, measured at the largest N <= 256)
    # against the committed results/BENCH_cluster.json; a drop of
    # more than 25% fails. SGMS_PERF_SMOKE=0 skips the comparison.
    ./build/bench/cluster_scale --max-clients=256 \
        --out=results/BENCH_cluster_current.json
    if [[ "${SGMS_PERF_SMOKE:-1}" != "0" ]]; then
        python3 - <<'EOF'
import json
committed = json.load(open("results/BENCH_cluster.json"))
current = json.load(open("results/BENCH_cluster_current.json"))
ref = committed["mc_events_per_sec"]
got = current["mc_events_per_sec"]
ratio = got / ref
print(f"   multi-client kernel: {got:.0f} events/s vs committed "
      f"{ref:.0f} ({ratio:.2f}x)")
assert ratio >= 0.75, (
    f"multi-client regression: {got:.0f} events/s is more than 25% "
    f"below the committed {ref:.0f} (set SGMS_PERF_SMOKE=0 to skip "
    f"on incomparable hardware)")
assert current["heap_fallbacks"] == 0, (
    f"{current['heap_fallbacks']} inline-callback heap fallbacks in "
    f"the sweep; fault-path closures must stay inline")
print("   cluster perf smoke passed")
EOF
    fi

    echo "== bench: binary trace pipeline =="
    # Bake + replay a 10M+-ref trace and require the mapped tier's
    # startup-to-first-ref to beat heap materialization by >= 5x.
    # Self-relative, so it holds on any hardware; no skip knob.
    SGMS_TRACE_DIR="$tmp_grid/traces" \
        ./build/bench/trace_io --out=results/BENCH_trace_io_current.json
    python3 - <<'EOF'
import json
current = json.load(open("results/BENCH_trace_io_current.json"))
speedup = current["startup_speedup"]
print(f"   startup-to-first-ref: heap {current['startup_heap_ms']:.1f} ms, "
      f"mmap {current['startup_mmap_ms']:.3f} ms ({speedup:.0f}x)")
assert speedup >= 5.0, (
    f"mapped-tier startup speedup {speedup:.1f}x is below the 5x floor")
print("   trace_io smoke passed")
EOF

    echo "== benchmark: perf/ builds, its tests pass, a traced run is correct =="
    # perf/ is its own CMake project over src/ (BENCHMARK.json runs it
    # through perf/run.py); nothing above compiles it, so a src/ API
    # change could otherwise break the benchmark unnoticed.
    cmake -S perf -B .bench_build/perf \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build .bench_build/perf --target sgms_perf perf_test \
        -j "$(nproc)"
    (cd .bench_build/perf && ctest --output-on-failure)
    python3 perf/run.py --workload fault_storm --seed 1 --seconds 2 \
        --trace 1 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
assert result["correct"] is True, f"traced fault_storm not correct: {result}"
points = result["attempted"]
print(f"   traced fault_storm: {points} points, all correct")
'
fi

if [[ $paper -eq 1 ]]; then
    echo "== paper: every figure, table and ablation matches results/ =="
    scripts/paper.sh
fi

echo "== all checks passed =="
