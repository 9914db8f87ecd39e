/**
 * @file
 * Figure 2 from a live run: record one simulation's spans and print
 * the per-fault fetch timelines they contain.
 *
 * Where bench/fig2_timeline constructs the paper's Figure-2 diagram
 * from a hand-built single fault, this tool derives the same view
 * from the span tracer attached to a full trace-driven simulation:
 * each fault block shows the demand stall interval and the network
 * stages (Req-CPU, Req-DMA, Wire, Srv-DMA, Srv-CPU) its messages
 * occupied.
 *
 * Usage:
 *   span_timeline [app] [policy] [subpage] [faults] [flags]
 *     app      modula3|ld|atom|render|gdb   (default gdb)
 *     policy   fetch policy name            (default eager)
 *     subpage  subpage size in bytes        (default 1024)
 *     faults   timeline blocks to print     (default 3)
 * Flags: --scale=S --seed=N, config overrides (--mem-pages=N, ...),
 * and the observability flags (--trace-out=PATH writes the same run
 * as Chrome trace JSON).
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/options.h"
#include "common/units.h"
#include "core/config_override.h"
#include "core/experiment.h"
#include "obs/chrome_trace.h"
#include "obs/session.h"
#include "obs/tracer.h"
#include "sim/kernel.h"

using namespace sgms;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    if (opts.has("help")) {
        std::printf("usage: span_timeline [app] [policy] [subpage] "
                    "[faults] [flags]\n%s\n%s\n",
                    config_override_help(), obs::ObsSession::help());
        return 0;
    }
    obs::ObsSession obs(opts);
    const auto &pos = opts.positional();

    Experiment ex;
    ex.app = pos.size() > 0 ? pos[0] : "gdb";
    ex.policy = pos.size() > 1 ? pos[1] : "eager";
    ex.subpage_size =
        pos.size() > 2 ? static_cast<uint32_t>(parse_bytes(pos[2]))
                       : 1024;
    size_t max_faults =
        pos.size() > 3 ? std::strtoull(pos[3].c_str(), nullptr, 10) : 3;
    ex.scale = opts.get_double("scale", scale_from_env(0.5));
    ex.seed = opts.get_u64("seed", 7);
    apply_config_overrides(ex.base, opts);
    ex.base.policy = ex.policy;

    // Always trace this run, whether or not --trace-out was given.
    obs::Tracer local(opts.get_u64("trace-spans",
                                   obs::Tracer::DEFAULT_CAPACITY));
    obs::Tracer *tracer = obs.tracer() ? obs.tracer() : &local;

    for (const auto &typo : opts.unused())
        warn("unrecognized option --%s (see --help)", typo.c_str());

    SimConfig cfg = ex.config();
    cfg.tracer = tracer;
    auto trace = make_app_trace(ex.app, ex.scale, ex.seed);
    Simulator sim(cfg);
    SimResult r = sim.run(*trace);
    r.app = ex.app;

    std::printf("app=%s policy=%s subpage=%u: %llu faults, "
                "runtime %s (sp_latency %s)\n\n",
                ex.app.c_str(), ex.policy.c_str(), cfg.subpage_size,
                static_cast<unsigned long long>(r.page_faults),
                format_ms(r.runtime).c_str(),
                format_ms(r.sp_latency).c_str());
    write_fault_timeline(std::cout, *tracer, max_faults);
    obs.finish(r);
    return 0;
}
