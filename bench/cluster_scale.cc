/**
 * @file
 * Cluster-scale sweep: client count vs emergent saturation.
 *
 * Runs the simulator (sim/kernel.h) with N faulting clients sharing
 * the default 4 GMS servers, doubling N until --max-clients (default
 * 1024). Contention here is *emergent* — the clients queue on the same server CPU/DMA/wire stage resources — so
 * the interesting outputs are where the servers saturate (the knee:
 * first N whose max server-stage utilization exceeds 90%) and what
 * saturation does to the subpage win: per-fault demand latency for
 * sp_1024 (eager) vs p_8192 (fullpage) as the cluster fills up.
 *
 * The JSON summary (default results/BENCH_cluster.json) records the
 * scaling curve with each point's refs/sec and events/sec, the knee,
 * and the kernel's multi-client rates at N=256 (`mc_refs_per_sec`,
 * `mc_events_per_sec`). scripts/check.sh compares the events/sec
 * against the committed baseline as a perf smoke (>25% regression
 * fails).
 *
 * Usage: cluster_scale [--scale=S] [--max-clients=N] [--out=FILE]
 */

#include <chrono>
#include <fstream>
#include <sstream>

#include "bench/bench_common.h"
#include "common/inline_function.h"

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

struct Point
{
    uint32_t clients = 0;
    std::string policy;
    double runtime_ms = 0.0;
    double mean_fault_ms = 0.0; ///< mean demand (subpage) wait
    double server_util = 0.0;   ///< max over server stage resources
    double wire_util = 0.0;
    uint64_t kernel_events = 0;
    double events_per_sec = 0.0;
    double refs_per_sec = 0.0;
};

double
gauge_of(const SimResult &r, const std::string &name)
{
    for (const auto &m : r.metrics)
        if (m.name == name)
            return m.value;
    return 0.0;
}

Point
run_point(const std::string &policy, uint32_t n, double scale)
{
    Experiment ex;
    ex.app = "gdb";
    ex.scale = scale;
    ex.policy = policy;
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;
    ex.clients = n;

    auto t0 = std::chrono::steady_clock::now();
    SimResult r = ex.run();
    double secs = seconds_since(t0);

    Point p;
    p.clients = n;
    p.policy = policy;
    p.runtime_ms = ticks::to_ms(r.runtime);
    p.mean_fault_ms =
        r.page_faults
            ? ticks::to_ms(r.sp_latency) / static_cast<double>(r.page_faults)
            : 0.0;
    double cpu = gauge_of(r, "gms.server_cpu_util_max");
    double dma = gauge_of(r, "gms.server_dma_util_max");
    p.wire_util = gauge_of(r, "gms.server_wire_util_max");
    p.server_util = std::max({cpu, dma, p.wire_util});
    p.kernel_events =
        static_cast<uint64_t>(gauge_of(r, "sim.kernel_events"));
    p.events_per_sec =
        secs > 0 ? static_cast<double>(p.kernel_events) / secs : 0.0;
    p.refs_per_sec =
        secs > 0 ? static_cast<double>(r.refs) / secs : 0.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    double scale = opts.get_double("scale", scale_from_env(0.05));
    uint32_t max_clients = static_cast<uint32_t>(
        opts.get_double("max-clients", 1024));
    std::string out_path =
        opts.get("out", "results/BENCH_cluster.json");

    bench::banner("CLUSTER",
                  "client-count scaling: emergent server saturation "
                  "(gdb, 1/2-mem)",
                  scale);

    uint64_t fallbacks_before = inline_function_heap_fallbacks();
    std::vector<Point> eager, fullpage;
    uint32_t knee = 0;
    for (uint32_t n = 1; n <= max_clients; n *= 2) {
        eager.push_back(run_point("eager", n, scale));
        fullpage.push_back(run_point("fullpage", n, scale));
        const Point &e = eager.back();
        if (knee == 0 && e.server_util > 0.9)
            knee = n;
        std::printf("  n=%-5u sp_1024 %9.2f ms  p_8192 %9.2f ms  "
                    "util %.0f%%  %.2fM ev/s\n",
                    n, e.runtime_ms, fullpage.back().runtime_ms,
                    e.server_util * 100.0,
                    e.events_per_sec / 1e6);
        std::fflush(stdout);
    }
    uint64_t heap_fallbacks =
        inline_function_heap_fallbacks() - fallbacks_before;

    bench::section("subpage win vs contention");
    Table t({"clients", "p_8192 (ms)", "sp_1024 (ms)", "win",
             "mean sp wait (ms)", "server util", "wire util"});
    for (size_t i = 0; i < eager.size(); ++i) {
        const Point &e = eager[i];
        const Point &f = fullpage[i];
        double win = f.runtime_ms > 0
                         ? 1.0 - e.runtime_ms / f.runtime_ms
                         : 0.0;
        t.add_row({Table::fmt_int(e.clients),
                   Table::fmt(f.runtime_ms, 2),
                   Table::fmt(e.runtime_ms, 2), Table::fmt_pct(win),
                   Table::fmt(e.mean_fault_ms, 3),
                   Table::fmt_pct(e.server_util),
                   Table::fmt_pct(e.wire_util)});
    }
    t.print(std::cout);
    if (knee)
        std::printf("\nsaturation knee: n=%u (first client count "
                    "with max server-stage\nutilization > 90%%)\n",
                    knee);
    else
        std::printf("\nno saturation knee up to n=%u (max server "
                    "util stayed <= 90%%)\n",
                    max_clients);
    std::printf("inline-callback heap fallbacks during the sweep: "
                "%llu\n",
                static_cast<unsigned long long>(heap_fallbacks));

    // The perf-smoke reference point: kernel rates at the largest
    // measured N <= 256 (stable across --max-clients).
    double mc_events_per_sec = 0.0;
    double mc_refs_per_sec = 0.0;
    for (const Point &p : eager) {
        if (p.clients <= 256) {
            mc_events_per_sec = p.events_per_sec;
            mc_refs_per_sec = p.refs_per_sec;
        }
    }

    std::ofstream out(out_path);
    if (out) {
        std::ostringstream js;
        js << "{\"bench\":\"cluster_scale\",\"scale\":" << scale
           << ",\"app\":\"gdb\",\"max_clients\":" << max_clients
           << ",\"knee_clients\":" << knee
           << ",\"mc_refs_per_sec\":"
           << static_cast<uint64_t>(mc_refs_per_sec)
           << ",\"mc_events_per_sec\":"
           << static_cast<uint64_t>(mc_events_per_sec)
           << ",\"heap_fallbacks\":" << heap_fallbacks
           << ",\"points\":[";
        for (size_t i = 0; i < eager.size(); ++i) {
            const Point &e = eager[i];
            const Point &f = fullpage[i];
            if (i)
                js << ",";
            js << "{\"clients\":" << e.clients
               << ",\"runtime_ms_sp1024\":" << e.runtime_ms
               << ",\"runtime_ms_p8192\":" << f.runtime_ms
               << ",\"mean_sp_wait_ms\":" << e.mean_fault_ms
               << ",\"server_util\":" << e.server_util
               << ",\"wire_util\":" << e.wire_util
               << ",\"kernel_events\":" << e.kernel_events
               << ",\"refs_per_sec\":"
               << static_cast<uint64_t>(e.refs_per_sec)
               << ",\"events_per_sec\":"
               << static_cast<uint64_t>(e.events_per_sec) << "}";
        }
        js << "]}\n";
        out << js.str();
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        warn("cannot write %s", out_path.c_str());
    }
    return 0;
}
