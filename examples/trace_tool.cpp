/**
 * @file
 * Trace utility: generate, convert, and analyze reference traces.
 *
 * Usage:
 *   trace_tool gen <app> <file> [scale] [seed]   write a synthetic
 *                                                trace (binary SGMB;
 *                                                .txt suffix = text)
 *   trace_tool info <file>                       summarize a trace
 *   trace_tool sim <file> [policy] [subpage] [mem_pages]
 *                                                simulate a trace
 *
 * All commands read any trace format (SGMB via zero-copy mmap,
 * legacy SGMT, text); see trace_convert for conversion and baking.
 *
 * `sim` also understands the observability flags (--trace-out,
 * --trace-timeline, --metrics, --debug-flags; see obs/session.h).
 *
 * Demonstrates the file-based TraceSource API, which is the hook for
 * feeding real (e.g. Valgrind/Pin-derived) traces into the
 * simulator in place of the synthetic application models.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/options.h"
#include "common/table.h"
#include "common/units.h"
#include "obs/session.h"
#include "sim/kernel.h"
#include "trace/apps.h"
#include "trace/binfmt.h"
#include "trace/trace_file.h"

using namespace sgms;

namespace
{

int
cmd_gen(int argc, char **argv)
{
    if (argc < 4)
        fatal("usage: trace_tool gen <app> <file> [scale] [seed]");
    std::string app = argv[2];
    std::string path = argv[3];
    double scale = argc > 4 ? std::atof(argv[4]) : 0.02;
    uint64_t seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 1;

    auto trace = make_app_trace(app, scale, seed);
    bool text = path.size() > 4 &&
                path.compare(path.size() - 4, 4, ".txt") == 0;
    if (text)
        write_trace_text(*trace, path);
    else
        write_bin_trace(*trace, path, app, scale, seed);
    std::printf("wrote %llu events (%s format) to %s\n",
                static_cast<unsigned long long>(trace->size_hint()),
                text ? "text" : "binary SGMB", path.c_str());
    return 0;
}

int
cmd_info(int argc, char **argv)
{
    if (argc < 3)
        fatal("usage: trace_tool info <file>");
    auto trace = open_trace(argv[2]);
    uint64_t refs = 0, writes = 0;
    Addr min_addr = ~0ULL, max_addr = 0;
    TraceEvent ev;
    while (trace->next(ev)) {
        ++refs;
        writes += ev.write;
        min_addr = std::min(min_addr, ev.addr);
        max_addr = std::max(max_addr, ev.addr);
    }
    uint64_t footprint = measure_footprint_pages(*trace, 8192);

    Table t({"metric", "value"});
    t.add_row({"events", Table::fmt_int(refs)});
    t.add_row({"writes", refs ? Table::fmt_pct(
                                    static_cast<double>(writes) / refs)
                              : "0%"});
    t.add_row({"address range",
               format_bytes(refs ? max_addr - min_addr + 1 : 0)});
    t.add_row({"footprint (8K pages)", Table::fmt_int(footprint)});
    t.print(std::cout);
    return 0;
}

int
cmd_sim(int argc, char **argv)
{
    Options opts(argc, argv);
    obs::ObsSession obs(opts);
    // positional()[0] is the subcommand ("sim") itself.
    const auto &pos = opts.positional();
    if (pos.size() < 2)
        fatal("usage: trace_tool sim <file> [policy] [subpage] "
              "[mem_pages] [obs flags]");
    auto trace = open_trace(pos[1]);
    SimConfig cfg;
    cfg.policy = pos.size() > 2 ? pos[2] : "eager";
    cfg.subpage_size =
        pos.size() > 3 ? static_cast<uint32_t>(parse_bytes(pos[3]))
                       : 1024;
    if (cfg.policy == "fullpage" || cfg.policy == "disk")
        cfg.subpage_size = cfg.page_size;
    cfg.mem_pages =
        pos.size() > 4 ? std::strtoull(pos[4].c_str(), nullptr, 10) : 0;
    obs.configure(cfg);

    Simulator sim(cfg);
    SimResult r = sim.run(*trace);

    Table t({"metric", "value"});
    t.add_row({"references", Table::fmt_int(r.refs)});
    t.add_row({"page faults", Table::fmt_int(r.page_faults)});
    t.add_row({"runtime", format_ms(r.runtime)});
    t.add_row({"exec", format_ms(r.exec_time)});
    t.add_row({"sp_latency", format_ms(r.sp_latency)});
    t.add_row({"page_wait", format_ms(r.page_wait)});
    t.print(std::cout);
    obs.finish(r);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        fatal("usage: trace_tool gen|info|sim ...");
    if (std::strcmp(argv[1], "gen") == 0)
        return cmd_gen(argc, argv);
    if (std::strcmp(argv[1], "info") == 0)
        return cmd_info(argc, argv);
    if (std::strcmp(argv[1], "sim") == 0)
        return cmd_sim(argc, argv);
    fatal("unknown command '%s'", argv[1]);
}
