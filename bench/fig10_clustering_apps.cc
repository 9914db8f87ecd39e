/**
 * @file
 * Regenerates Figure 10: temporal clustering of page faults for gdb
 * and Atom.
 *
 * Paper shape check: gdb's curve rises in steep jumps (most faults
 * land in high-fault-rate periods, giving it the biggest subpage
 * benefit), while Atom's curve climbs smoothly (uniformly low fault
 * rate, the smallest benefit).
 */

#include "bench/bench_common.h"

using namespace sgms;

int
main()
{
    double scale = scale_from_env(1.0);
    bench::banner("Figure 10",
                  "temporal clustering of page faults: gdb vs atom",
                  scale);

    Table t({"app", "faults", "refs", "burst fraction",
             "eager reduction"});
    LinePlot plot("cumulative faults vs normalized trace position",
                  "fraction of trace", "fraction of faults");

    for (const char *app : {"gdb", "atom"}) {
        Experiment ex;
        ex.app = app;
        ex.scale = scale;
        ex.mem = MemConfig::Half;
        ex.subpage_size = 1024;
        ex.policy = "fullpage";
        SimResult base = bench::run_labeled(ex);
        ex.policy = "eager";
        SimResult r = bench::run_labeled(ex);

        // Normalize both axes so the two traces (0.5M vs 73M refs)
        // are comparable on one plot, like the paper's two panels.
        Series s;
        s.name = app;
        for (const auto &[x, y] : r.fault_curve().points) {
            s.add(x / static_cast<double>(r.refs),
                  y / static_cast<double>(r.page_faults));
        }
        plot.add(s.downsampled(200));

        // Burst window: 2% of the trace.
        double burst = r.burst_fault_fraction(
            std::max<uint64_t>(r.refs / 50, 1));
        t.add_row({app, Table::fmt_int(r.page_faults),
                   Table::fmt_int(r.refs), Table::fmt_pct(burst),
                   Table::fmt_pct(r.reduction_vs(base))});
    }

    t.print(std::cout);
    plot.print(std::cout, 76, 18);
    std::printf("paper: gdb's faults arrive in steep bursts and it "
                "benefits more from\nsubpages than the smooth, "
                "low-rate atom trace.\n");
    return 0;
}
