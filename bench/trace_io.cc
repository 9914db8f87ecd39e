/**
 * @file
 * Binary trace I/O: bake cost, startup-to-first-ref latency, and
 * replay throughput for the zero-copy SGMB pipeline —
 *
 *   bake      streaming the synthetic generator to a content-named
 *             SGMB file (trace store mapped tier, trace/binfmt.h):
 *             refs/sec written, including the fsync-free tmp+rename
 *   startup   time from "I want this trace" to the first reference
 *             delivered, heap tier (generate + materialize the whole
 *             trace up front) vs mapped tier (open + mmap a pre-baked
 *             file). The mapped tier's point: a pre-baked sweep
 *             starts replaying in microseconds instead of seconds
 *   replay    drain rate through next_batch: mmap cold (first pass
 *             faults the file in through the page cache) vs warm,
 *             next to heap replay and raw generation for reference
 *
 * The headline is startup_speedup (heap startup / mmap startup); the
 * default trace is 10M+ references so the number reflects real sweep
 * startup, and scripts/check.sh fails its perf smoke when the
 * speedup drops below 5x. JSON summary goes to
 * results/BENCH_trace_io.json.
 *
 * Usage: trace_io [--app=NAME] [--scale=S] [--seed=N] [--dir=DIR]
 *                 [--out=FILE]
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench/bench_common.h"
#include "trace/apps.h"
#include "trace/binfmt.h"
#include "trace/mmap_trace.h"
#include "trace/trace_store.h"

using namespace sgms;

namespace
{

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Drain @p src to completion via next_batch; returns refs/sec. */
double
drain_rate(TraceSource &src)
{
    TraceEvent batch[512];
    uint64_t refs = 0;
    uint64_t sink = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        size_t n = src.next_batch(batch, 512);
        if (n == 0)
            break;
        refs += n;
        sink ^= batch[n - 1].addr;
    }
    double secs = seconds_since(t0);
    SGMS_ASSERT(sink != 1); // keep the reads alive
    return static_cast<double>(refs) / secs;
}

/**
 * Seconds from requesting (app, scale, seed) through the trace store
 * to the first reference coming back. The store is cleared first, so
 * this is what a fresh process pays before simulation can start.
 */
double
startup_to_first_ref(const std::string &app, double scale,
                     uint64_t seed)
{
    trace_store_clear();
    TraceEvent ev;
    auto t0 = std::chrono::steady_clock::now();
    auto trace = make_stored_app_trace(app, scale, seed);
    size_t n = trace->next_batch(&ev, 1);
    double secs = seconds_since(t0);
    SGMS_ASSERT(n == 1);
    return secs;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    std::string app = opts.get("app", "modula3");
    // modula3 is ~87M refs at scale 1.0; 0.15 keeps the startup
    // measurement above the 10M-reference floor while the bench
    // still finishes in seconds.
    double scale = opts.get_scale("scale", scale_from_env(0.15));
    uint64_t seed = opts.get_u64("seed", 1);
    std::string dir =
        opts.get("dir", env_string("SGMS_TRACE_DIR", ".sgms-traces"));
    std::string out_path =
        opts.get("out", "results/BENCH_trace_io.json");

    bench::banner("TRACE_IO",
                  "binary trace pipeline: bake, startup, replay",
                  scale);

    bench::section("bake (stream generator -> SGMB file)");
    std::string path = baked_trace_path(dir, app, scale, seed);
    std::filesystem::remove(path); // measure a true cold bake
    auto t0 = std::chrono::steady_clock::now();
    bake_app_trace(app, scale, seed, dir);
    double bake_secs = seconds_since(t0);
    BinTraceHeader hdr;
    std::string error;
    if (!read_bin_header(path, hdr, error))
        fatal("baked file '%s' failed validation: %s", path.c_str(),
              error.c_str());
    double bake_ps = static_cast<double>(hdr.ref_count) / bake_secs;
    std::printf("%llu refs in %.2f s (%.0f refs/s) -> %s\n",
                static_cast<unsigned long long>(hdr.ref_count),
                bake_secs, bake_ps, path.c_str());
    if (hdr.ref_count < 10'000'000)
        warn("trace under 10M refs; raise --scale for a "
             "representative startup measurement");

    bench::section("startup-to-first-ref: heap vs mapped tier");
    trace_store_set_dir("");
    double startup_heap_s = startup_to_first_ref(app, scale, seed);
    trace_store_set_dir(dir);
    double startup_mmap_s = startup_to_first_ref(app, scale, seed);
    double startup_speedup = startup_heap_s / startup_mmap_s;
    std::printf("heap (generate+materialize): %.1f ms\n",
                startup_heap_s * 1e3);
    std::printf("mmap (open pre-baked file):  %.3f ms\n",
                startup_mmap_s * 1e3);
    std::printf("startup speedup: %.0fx (target >= 5x)\n",
                startup_speedup);

    bench::section("replay throughput (next_batch drain)");
    // The store is still on the mapped tier with the bake mapped in.
    auto cold_cursor = make_stored_app_trace(app, scale, seed);
    double mmap_cold_ps = drain_rate(*cold_cursor);
    auto warm_cursor = make_stored_app_trace(app, scale, seed);
    double mmap_warm_ps = drain_rate(*warm_cursor);
    trace_store_set_dir("");
    trace_store_clear();
    make_stored_app_trace(app, scale, seed); // materialize heap copy
    auto heap_cursor = make_stored_app_trace(app, scale, seed);
    double heap_ps = drain_rate(*heap_cursor);
    double gen_ps;
    {
        auto gen = make_app_trace(app, scale, seed);
        gen_ps = drain_rate(*gen);
    }
    trace_store_set_dir(dir);
    std::printf("mmap cold %.0f refs/s, mmap warm %.0f refs/s, "
                "heap %.0f refs/s, generate %.0f refs/s\n",
                mmap_cold_ps, mmap_warm_ps, heap_ps, gen_ps);

    TraceStoreStats ts = trace_store_stats();
    std::printf("trace store: %llu hits, %llu misses, %llu "
                "fallbacks, %.1f MiB heap, %.1f MiB mapped, "
                "%llu baked, %llu mapped files\n",
                static_cast<unsigned long long>(ts.hits),
                static_cast<unsigned long long>(ts.misses),
                static_cast<unsigned long long>(ts.fallbacks),
                static_cast<double>(ts.bytes) / (1024.0 * 1024.0),
                static_cast<double>(ts.mapped_bytes) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(ts.baked_files),
                static_cast<unsigned long long>(ts.mapped_files));

    std::ofstream out(out_path);
    if (out) {
        char buf[1024];
        std::snprintf(
            buf, sizeof(buf),
            "{\"bench\":\"trace_io\",\"app\":\"%s\",\"scale\":%g,"
            "\"seed\":%llu,\"refs\":%llu,"
            "\"bake_secs\":%.3f,\"bake_refs_per_sec\":%.0f,"
            "\"startup_heap_ms\":%.3f,\"startup_mmap_ms\":%.3f,"
            "\"startup_speedup\":%.1f,"
            "\"replay_mmap_cold_refs_per_sec\":%.0f,"
            "\"replay_mmap_warm_refs_per_sec\":%.0f,"
            "\"replay_heap_refs_per_sec\":%.0f,"
            "\"generate_refs_per_sec\":%.0f,"
            "\"mapped_bytes\":%llu}\n",
            app.c_str(), scale, static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(hdr.ref_count), bake_secs,
            bake_ps, startup_heap_s * 1e3, startup_mmap_s * 1e3,
            startup_speedup, mmap_cold_ps, mmap_warm_ps, heap_ps,
            gen_ps, static_cast<unsigned long long>(ts.mapped_bytes));
        out << buf;
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        warn("cannot write %s", out_path.c_str());
    }
    return 0;
}
