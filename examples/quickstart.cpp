/**
 * @file
 * Quickstart: the smallest complete use of the SGMS library.
 *
 * Builds a tiny synthetic workload, runs it against the global
 * memory system under three configurations — disk paging, classic
 * fullpage GMS, and eager fullpage fetch with 1K subpages — and
 * prints the comparison. This is the paper's experiment in
 * miniature.
 */

#include <cstdio>
#include <iostream>

#include "common/options.h"
#include "common/table.h"
#include "common/units.h"
#include "core/config_override.h"
#include "obs/session.h"
#include "sim/kernel.h"
#include "trace/mmap_trace.h"
#include "trace/synthetic.h"
#include "trace/trace.h"

using namespace sgms;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    if (opts.has("help")) {
        std::printf("usage: quickstart [--trace-bin=FILE] [flags]\n"
                    "%s\n%s\n",
                    obs::ObsSession::help(),
                    config_override_help());
        return 0;
    }
    obs::ObsSession obs(opts);
    // --trace-bin replays a baked SGMB file (zero-copy mmap) in
    // place of the built-in synthetic workload.
    std::string trace_bin = opts.get("trace-bin", "");
    std::unique_ptr<TraceSource> file_trace;
    uint64_t mem_pages = 44; // half of the built-in 88-page footprint
    if (!trace_bin.empty()) {
        file_trace = make_mapped_trace(trace_bin);
        uint64_t fp = measure_footprint_pages(*file_trace, 8192);
        mem_pages = std::max<uint64_t>(2, fp / 2);
    }
    // 1. Describe a workload: a hot set plus two phases — a sweep
    //    that touches one subpage per page (overlappable faults) and
    //    a dense scan that consumes whole pages (blocking faults).
    WorkloadSpec spec;
    spec.name = "quickstart";
    spec.hot_pages = 8;

    PhaseSpec sweep;
    sweep.kind = PhaseSpec::Kind::SweepScan;
    sweep.page_lo = 8;
    sweep.page_hi = 72;
    sweep.refs = 64 * 10000;
    sweep.hot_frac = 1.0 - 1.0 / 10000;
    spec.phases.push_back(sweep);

    PhaseSpec dense;
    dense.kind = PhaseSpec::Kind::DenseScan;
    dense.page_lo = 72;
    dense.page_hi = 88;
    dense.stride = 64;
    dense.hot_frac = 0.9;
    dense.refs = 16 * 128 * 10;
    spec.phases.push_back(dense);

    // 2. Run it under three backing-store configurations. They honor
    //    the shared overrides (--faults, --servers, ...) but keep
    //    this run's policy/subpage/memory choices.
    SimConfig base;
    apply_config_overrides(base, opts);
    opts.reject_unused();
    Table t({"config", "runtime", "faults", "sp_latency", "page_wait",
             "speedup vs disk"});
    SimResult disk_result;
    SimResult last;
    for (const char *policy : {"disk", "fullpage", "eager"}) {
        SimConfig cfg = base;
        cfg.policy = policy;
        cfg.subpage_size =
            std::string(policy) == "eager" ? 1024 : 8192;
        cfg.mem_pages = mem_pages;
        // The tracer is shared across the three configurations;
        // keep only the final (eager) run's spans.
        if (obs.tracer())
            obs.tracer()->clear();
        obs.configure(cfg);

        Simulator sim(cfg);
        SimResult r;
        if (file_trace) {
            r = sim.run(*file_trace);
        } else {
            SyntheticTrace trace(spec, /*seed=*/42);
            r = sim.run(trace);
        }
        if (std::string(policy) == "disk")
            disk_result = r;
        last = r;

        t.add_row({policy, format_ms(r.runtime),
                   Table::fmt_int(r.page_faults),
                   format_ms(r.sp_latency), format_ms(r.page_wait),
                   Table::fmt(r.speedup_vs(disk_result), 2) + "x"});
    }
    t.print(std::cout);
    obs.finish(last);

    std::printf("\nEager fullpage fetch restarts the program after "
                "only the faulted 1K\nsubpage arrives (~0.55 ms) and "
                "streams the rest of the page behind it —\nthe "
                "mechanism of Jamrozik et al., ASPLOS 1996.\n");
    return 0;
}
