/**
 * @file
 * Regenerates Figure 6: temporal clustering of page faults for
 * Modula-3 (cumulative faults vs simulation events), plus the
 * burst-fraction metric that section 4.2 ties to I/O overlap: most
 * of the speedup happens in periods of high fault rate.
 */

#include "bench/bench_common.h"

using namespace sgms;

int
main()
{
    double scale = scale_from_env(1.0);
    bench::banner("Figure 6",
                  "temporal clustering of page faults (Modula-3)",
                  scale);

    Experiment ex;
    ex.app = "modula3";
    ex.scale = scale;
    ex.mem = MemConfig::Half;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    SimResult r = bench::run_labeled(ex);

    LinePlot plot("cumulative page faults vs trace position",
                  "references", "faults");
    Series s = r.fault_curve();
    s.name = "modula3";
    plot.add(s.downsampled(200));
    plot.print(std::cout, 76, 18);

    bench::section("burst metrics");
    std::printf("faults: %llu over %llu references\n",
                static_cast<unsigned long long>(r.page_faults),
                static_cast<unsigned long long>(r.refs));
    for (uint64_t window : {100000ull, 500000ull}) {
        double frac = r.burst_fault_fraction(window);
        std::printf("fraction of faults in high-rate windows "
                    "(>=3x avg rate, %lluk refs): %.0f%%\n",
                    static_cast<unsigned long long>(window / 1000),
                    frac * 100);
    }
    std::printf("I/O overlap share of background transfers: %.0f%%\n",
                r.io_overlap_share() * 100);
    std::printf("paper: fault curve shows steep high-fault periods "
                "(phase changes)\nseparated by quiet compute; I/O "
                "overlap concentrates in those bursts.\n");

    bench::section("csv");
    LinePlot csv_plot("", "refs", "faults");
    csv_plot.add(r.fault_curve().downsampled(400));
    csv_plot.print_csv(std::cout);
    return 0;
}
