/**
 * @file
 * Hot-path throughput: refs/sec and events/sec for the subsystems on
 * the single-point critical path —
 *
 *   events   the allocation-free event kernel (pool-backed 4-ary
 *            heap, inline callbacks): schedule+dispatch rate
 *   lru      LRU victim selection: evictions per second from a full
 *            page table whose pages are restamped between faults
 *            (their re-keys included)
 *   trace    synthetic generation vs replay from the shared trace
 *            store (the store turns per-point regeneration into a
 *            bulk copy out of an immutable buffer)
 *   mix      end-to-end Experiment::run over the default app mix
 *            (all five apps x fullpage/eager/pipelining at 1 KiB
 *            subpages, half memory), cold (first materialization
 *            included) and warm (steady state: the median of
 *            WARM_PASSES passes, each pass's rate recorded)
 *   mc       the simulator kernel (sim/kernel.h): dispatch rate of
 *            one gdb point at 16 interleaved clients
 *
 * The warm mix refs/sec is the headline number; the JSON summary
 * (default results/BENCH_sim_hotpath.json) records it next to the
 * committed pre-PR baseline so CI can flag regressions
 * (scripts/check.sh fails the perf smoke when the current rate drops
 * more than 25% below the committed rate).
 *
 * Usage: sim_hotpath [--scale=S] [--out=FILE]
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/inline_function.h"
#include "mem/page_table.h"
#include "sim/event_queue.h"
#include "trace/apps.h"
#include "trace/trace_store.h"

using namespace sgms;

namespace
{

/**
 * Pre-PR single-pass mix rate (refs/sec) measured on the reference
 * box before the hot-path overhaul, with per-point trace
 * regeneration, std::function events, and std::list-based LRU. The
 * speedup_vs_baseline field in the JSON is relative to this.
 */
constexpr double BASELINE_MIX_REFS_PER_SEC = 30189308.0;

/**
 * Warm passes over the mix. The warm rate is their median, so one
 * pass slowed by a noisy neighbour does not move the gated number.
 */
constexpr int WARM_PASSES = 5;

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Deterministic 64-bit mix (splitmix64 step) for access patterns. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Schedule/dispatch rate of the event kernel. */
double
bench_events(uint64_t total)
{
    EventQueue eq;
    uint64_t sink = 0;
    Tick t = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t done = 0; done < total;) {
        // A due batch interleaved with future events, like a fault
        // wave: 64 events across 8 distinct ticks.
        for (int i = 0; i < 64; ++i) {
            eq.schedule(t + (i & 7),
                        [&sink, i] { sink += static_cast<uint64_t>(i); });
        }
        t += 8;
        eq.run_until(t);
        done += 64;
    }
    eq.run_all();
    double secs = seconds_since(t0);
    SGMS_ASSERT(sink != 0);
    return static_cast<double>(eq.executed()) / secs;
}

/**
 * LRU victim selections per second: a full table of @p pages pages,
 * @p stamps_per_fault random pages restamped between faults, and each
 * fault evicts the least recently used page and installs it again.
 */
double
bench_lru(uint64_t faults, uint64_t pages, uint64_t stamps_per_fault)
{
    PageTable pt(PageGeometry(8192, 8192), pages, "lru");
    pt.reserve(pages);
    uint64_t clock = 0;
    for (uint64_t p = 0; p < pages; ++p)
        pt.install(p, ++clock);
    auto t0 = std::chrono::steady_clock::now();
    uint64_t s = 1;
    for (uint64_t i = 0; i < faults; ++i) {
        for (uint64_t k = 0; k < stamps_per_fault; ++k) {
            s = mix64(s);
            pt.find(s % pages)->last_touch = ++clock;
        }
        pt.install(pt.evict(), ++clock);
    }
    double secs = seconds_since(t0);
    return static_cast<double>(faults) / secs;
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

struct MixRate
{
    double refs_per_sec = 0.0;
    uint64_t refs = 0;
    double secs = 0.0;
};

/** One pass over the default app mix through Experiment::run. */
MixRate
run_mix(double scale)
{
    const std::vector<std::string> &apps = app_names();
    const char *policies[] = {"fullpage", "eager", "pipelining"};
    MixRate m;
    auto t0 = std::chrono::steady_clock::now();
    for (const std::string &app : apps) {
        for (const char *policy : policies) {
            Experiment ex;
            ex.app = app;
            ex.scale = scale;
            ex.policy = policy;
            ex.subpage_size = 1024;
            ex.mem = MemConfig::Half;
            SimResult r = ex.run();
            m.refs += r.refs;
        }
    }
    m.secs = seconds_since(t0);
    m.refs_per_sec = static_cast<double>(m.refs) / m.secs;
    return m;
}

struct McRate
{
    double events_per_sec = 0.0;
    uint64_t events = 0;
    double secs = 0.0;
};

/**
 * Multi-client kernel dispatch rate: one gdb point at @p n clients
 * through the interleaved-timeline kernel (sim/kernel.h).
 */
McRate
run_multi_client(double scale, uint32_t n)
{
    Experiment ex;
    ex.app = "gdb";
    ex.scale = scale;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;
    ex.clients = n;
    auto t0 = std::chrono::steady_clock::now();
    SimResult r = ex.run();
    McRate m;
    m.secs = seconds_since(t0);
    for (const auto &g : r.metrics)
        if (g.name == "sim.kernel_events")
            m.events = static_cast<uint64_t>(g.value);
    m.events_per_sec =
        m.secs > 0 ? static_cast<double>(m.events) / m.secs : 0.0;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    // Default scale matches the committed baseline measurement; keep
    // them in sync or the speedup field compares unlike quantities.
    double scale = opts.get_scale("scale", scale_from_env(0.05));
    std::string out_path =
        opts.get("out", "results/BENCH_sim_hotpath.json");

    bench::banner("HOTPATH",
                  "single-point hot path: events, lru, trace, mix",
                  scale);

    bench::section("event kernel (schedule+dispatch)");
    uint64_t fallbacks_before = inline_function_heap_fallbacks();
    double events_ps = bench_events(2'000'000);
    uint64_t fallbacks = inline_function_heap_fallbacks() -
                         fallbacks_before;
    std::printf("%.0f events/s, %llu heap fallbacks\n", events_ps,
                static_cast<unsigned long long>(fallbacks));

    bench::section("lru victim selection (8 stamps per fault)");
    double lru_ps = bench_lru(2'000'000, 4096, 8);
    std::printf("%.0f victims/s\n", lru_ps);

    bench::section("trace: generation vs stored replay");
    double gen_ps;
    {
        auto gen = make_app_trace("modula3", scale, /*seed=*/1);
        gen_ps = drain_rate(*gen);
    }
    // First request materializes (excluded: rate measured on a
    // second, warm request).
    make_stored_app_trace("modula3", scale, /*seed=*/1);
    auto replay = make_stored_app_trace("modula3", scale, /*seed=*/1);
    double replay_ps = drain_rate(*replay);
    std::printf("generate %.0f refs/s, replay %.0f refs/s (%.1fx)\n",
                gen_ps, replay_ps, replay_ps / gen_ps);

    bench::section("mix: 5 apps x {fullpage,eager,pipelining}");
    MixRate cold = run_mix(scale);
    std::printf("cold: %.0f refs/s (%llu refs, %.2f s)\n",
                cold.refs_per_sec,
                static_cast<unsigned long long>(cold.refs),
                cold.secs);
    std::vector<MixRate> warm_passes;
    std::string warm_rates;
    for (int i = 0; i < WARM_PASSES; ++i) {
        warm_passes.push_back(run_mix(scale));
        char rate[32];
        std::snprintf(rate, sizeof(rate), "%s%.0f", i ? "," : "",
                      warm_passes.back().refs_per_sec);
        warm_rates += rate;
    }
    std::sort(warm_passes.begin(), warm_passes.end(),
              [](const MixRate &a, const MixRate &b) {
                  return a.refs_per_sec < b.refs_per_sec;
              });
    const MixRate &warm = warm_passes[WARM_PASSES / 2];
    std::printf("warm: %.0f refs/s median of %d passes (%llu refs, "
                "%.2f s; min %.0f, max %.0f)\n",
                warm.refs_per_sec, WARM_PASSES,
                static_cast<unsigned long long>(warm.refs), warm.secs,
                warm_passes.front().refs_per_sec,
                warm_passes.back().refs_per_sec);
    double speedup = warm.refs_per_sec / BASELINE_MIX_REFS_PER_SEC;
    std::printf("speedup vs pre-overhaul baseline (%.0f refs/s): "
                "%.2fx\n",
                BASELINE_MIX_REFS_PER_SEC, speedup);

    bench::section("multi-client kernel (gdb, 16 clients)");
    McRate mc = run_multi_client(scale, 16);
    std::printf("%.0f events/s (%llu kernel events, %.2f s)\n",
                mc.events_per_sec,
                static_cast<unsigned long long>(mc.events), mc.secs);

    TraceStoreStats ts = trace_store_stats();
    std::printf("trace store: %llu hits, %llu misses, %llu "
                "fallbacks, %.1f MiB heap, %.1f MiB mapped\n",
                static_cast<unsigned long long>(ts.hits),
                static_cast<unsigned long long>(ts.misses),
                static_cast<unsigned long long>(ts.fallbacks),
                static_cast<double>(ts.bytes) / (1024.0 * 1024.0),
                static_cast<double>(ts.mapped_bytes) /
                    (1024.0 * 1024.0));

    std::ofstream out(out_path);
    if (out) {
        char buf[2048];
        std::snprintf(
            buf, sizeof(buf),
            "{\"bench\":\"sim_hotpath\",\"scale\":%g,"
            "\"baseline_refs_per_sec\":%.0f,"
            "\"mix_warm_refs_per_sec\":%.0f,"
            "\"mix_warm_pass_refs_per_sec\":[%s],"
            "\"mix_cold_refs_per_sec\":%.0f,"
            "\"mix_refs\":%llu,"
            "\"speedup_vs_baseline\":%.3f,"
            "\"events_per_sec\":%.0f,"
            "\"event_heap_fallbacks\":%llu,"
            "\"mc_events_per_sec\":%.0f,"
            "\"mc_kernel_events\":%llu,"
            "\"lru_victims_per_sec\":%.0f,"
            "\"trace_generate_refs_per_sec\":%.0f,"
            "\"trace_replay_refs_per_sec\":%.0f,"
            "\"trace_store\":{\"hits\":%llu,\"misses\":%llu,"
            "\"fallbacks\":%llu,\"bytes\":%llu,"
            "\"mapped_bytes\":%llu}}\n",
            scale, BASELINE_MIX_REFS_PER_SEC, warm.refs_per_sec,
            warm_rates.c_str(), cold.refs_per_sec,
            static_cast<unsigned long long>(warm.refs), speedup,
            events_ps, static_cast<unsigned long long>(fallbacks),
            mc.events_per_sec,
            static_cast<unsigned long long>(mc.events), lru_ps,
            gen_ps, replay_ps,
            static_cast<unsigned long long>(ts.hits),
            static_cast<unsigned long long>(ts.misses),
            static_cast<unsigned long long>(ts.fallbacks),
            static_cast<unsigned long long>(ts.bytes),
            static_cast<unsigned long long>(ts.mapped_bytes));
        out << buf;
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        warn("cannot write %s", out_path.c_str());
    }
    return 0;
}
