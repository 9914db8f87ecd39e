/**
 * @file
 * Regenerates Table 1: performance of PALcode load/store emulation.
 *
 * The numbers are the measured Alpha 250 costs the model is built
 * from (cycles at 266 MHz); the bench prints them alongside the
 * derived ratios the paper calls out, and then demonstrates the
 * model end-to-end: the measured slowdown of a memory-intensive
 * workload under software subpage protection (the paper reports
 * "less than 1%").
 */

#include "bench/bench_common.h"

#include "proto/palcode.h"
#include "sim/kernel.h"

using namespace sgms;

int
main()
{
    double scale = scale_from_env(1.0);
    bench::banner("Table 1", "PALcode load/store emulation costs",
                  scale);

    PalCosts c = PalCosts::alpha250();
    auto cycles = [](Tick t) {
        // 266 MHz => 3.759 ns per cycle.
        return Table::fmt_int(
            static_cast<int64_t>(ticks::to_ns(t) / 3.759 + 0.5));
    };
    Table t({"Operation", "Cycles", "Time"});
    t.add_row({"fast load", cycles(c.fast_load),
               format_us(c.fast_load, 3)});
    t.add_row({"slow load", cycles(c.slow_load),
               format_us(c.slow_load, 3)});
    t.add_row({"fast store", cycles(c.fast_store),
               format_us(c.fast_store, 3)});
    t.add_row({"slow store", cycles(c.slow_store),
               format_us(c.slow_store, 3)});
    t.add_row({"null PAL call", cycles(c.null_pal_call),
               format_us(c.null_pal_call, 3)});
    t.add_row({"L1 cache hit", cycles(c.l1_hit),
               format_us(c.l1_hit, 3)});
    t.add_row({"L2 cache hit", cycles(c.l2_hit),
               format_us(c.l2_hit, 3)});
    t.add_row({"L2 miss", cycles(c.l2_miss),
               format_us(c.l2_miss, 3)});
    t.print(std::cout);

    std::printf("fast load vs L2 hit : %.1fx slower (paper: 6.5x)\n",
                static_cast<double>(c.fast_load) / c.l2_hit);
    std::printf("fast load vs L2 miss: %.1fx faster (paper: 1.6x)\n",
                static_cast<double>(c.l2_miss) / c.fast_load);

    bench::section(
        "end-to-end: software-protection slowdown (paper: <1%)");
    Table t2({"app", "hardware TLB", "software PAL", "emulated ops",
              "slowdown"});
    for (const char *app : {"modula3", "gdb"}) {
        Experiment hw;
        hw.app = app;
        hw.scale = scale;
        hw.policy = "eager";
        hw.subpage_size = 1024;
        hw.mem = MemConfig::Half;
        Experiment sw = hw;
        sw.base.protection = ProtectionMode::SoftwarePal;
        SimResult rh = hw.run();
        SimResult rs = sw.run();
        double slowdown =
            static_cast<double>(rs.runtime - rh.runtime) / rh.runtime;
        t2.add_row({app, format_ms(rh.runtime),
                    format_ms(rs.runtime),
                    Table::fmt_int(rs.emulated_accesses),
                    Table::fmt_pct(slowdown, 2)});
    }
    t2.print(std::cout);
    return 0;
}
