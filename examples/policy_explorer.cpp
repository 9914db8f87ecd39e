/**
 * @file
 * Explore any (application x policy x subpage size x memory
 * configuration) point of the design space from the command line and
 * print the full result breakdown.
 *
 * Usage:
 *   policy_explorer [app] [policy] [subpage] [mem] [scale] [seed]
 *                   [--config-overrides...]
 *     app     modula3|ld|atom|render|gdb      (default modula3)
 *     policy  disk|fullpage|lazy|eager|pipelining|pipelining-all|
 *             pipelining-doubled|pipelining-initial2x|
 *             pipelining-adaptive               (default eager)
 *     subpage bytes, e.g. 1024 or 1K          (default 1024)
 *     mem     full|half|quarter               (default half)
 *     scale   trace scale factor              (default SGMS_SCALE or 1)
 *     seed    RNG seed                        (default 1)
 *
 * Any SimConfig knob can be overridden with --key=value flags; run
 * with --help for the list.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/options.h"
#include "common/table.h"
#include "common/units.h"
#include "core/config_override.h"
#include "core/experiment.h"

using namespace sgms;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    if (opts.has("help")) {
        std::printf("usage: policy_explorer [app] [policy] [subpage] "
                    "[mem] [scale] [seed] [overrides]\n%s\n%s\n",
                    config_override_help(), obs::ObsSession::help());
        return 0;
    }
    obs::ObsSession obs(opts);
    const auto &pos = opts.positional();

    Experiment ex;
    ex.app = pos.size() > 0 ? pos[0] : "modula3";
    ex.policy = pos.size() > 1 ? pos[1] : "eager";
    ex.subpage_size =
        pos.size() > 2 ? parse_size32(pos[2], "subpage") : 1024;
    ex.mem = pos.size() > 3 ? parse_mem_config(pos[3], "mem")
                            : MemConfig::Half;
    ex.scale = pos.size() > 4 ? parse_scale(pos[4], "scale")
                              : scale_from_env(1.0);
    ex.seed = pos.size() > 5 ? parse_u64(pos[5], "seed") : 1;
    apply_config_overrides(ex.base, opts);
    // Positional policy/subpage win over --policy/--subpage given to
    // the override layer; re-assert them.
    ex.base.policy = ex.policy;

    opts.reject_unused();

    std::printf("app=%s policy=%s (%s) mem=%s scale=%g footprint=%llu "
                "pages\n",
                ex.app.c_str(), ex.policy.c_str(), ex.label().c_str(),
                mem_config_name(ex.mem), ex.scale,
                static_cast<unsigned long long>(app_footprint_pages(
                    ex.app, ex.scale, ex.base.page_size, ex.seed)));

    SimResult r = ex.run(obs);

    Table t({"metric", "value"});
    auto row = [&](const char *k, const std::string &v) {
        t.add_row({k, v});
    };
    row("references", Table::fmt_int(r.refs));
    row("page faults", Table::fmt_int(r.page_faults));
    row("lazy subpage faults", Table::fmt_int(r.lazy_subpage_faults));
    row("evictions", Table::fmt_int(r.evictions));
    row("putpages", Table::fmt_int(r.putpages));
    row("global discards", Table::fmt_int(r.global_discards));
    row("runtime", format_ms(r.runtime));
    row("  exec", format_ms(r.exec_time));
    row("  sp_latency", format_ms(r.sp_latency));
    row("  page_wait", format_ms(r.page_wait));
    row("  recv_overhead", format_ms(r.recv_overhead));
    row("  emulation", format_ms(r.emulation_overhead));
    row("  tlb", format_ms(r.tlb_overhead));
    row("io_overlap", format_ms(r.io_overlap));
    row("comp_overlap", format_ms(r.comp_overlap));
    row("io_overlap share", Table::fmt_pct(r.io_overlap_share()));
    row("best-case faults", Table::fmt_pct(r.best_case_fraction()));
    row("messages", Table::fmt_int(r.net_stats.messages));
    row("bytes", Table::fmt_int(r.net_stats.bytes));
    row("inbound wire utilization",
        Table::fmt_pct(r.wire_utilization()));
    if (r.tlb_stats.accesses())
        row("tlb miss rate",
            Table::fmt_pct(r.tlb_stats.miss_rate(), 2));
    t.print(std::cout);

    if (!r.next_subpage_distance.empty()) {
        std::printf("next-subpage distance (top bins):\n");
        for (const auto &[d, c] : r.next_subpage_distance.bins()) {
            double f = r.next_subpage_distance.fraction(d);
            if (f >= 0.02)
                std::printf("  %+3lld : %5.1f%%\n",
                            static_cast<long long>(d), f * 100);
        }
    }
    return 0;
}
