/**
 * @file
 * Trace utility: generate, convert, bake, inspect and simulate
 * reference traces.
 *
 * Usage:
 *   trace_tool gen <app> <file> [scale] [seed]
 *       write a synthetic trace (default scale 0.02, seed 1)
 *   trace_tool convert <in> <out> [--app=NAME] [--scale=S] [--seed=N]
 *       convert any trace; the flags set the SGMB provenance fields
 *   trace_tool bake <app> [--scale=S] [--seed=N] [--dir=DIR]
 *       write the synthetic generator's output for (app, scale,
 *       seed) as a content-named SGMB file under DIR (default:
 *       SGMS_TRACE_DIR, else .sgms-traces) — the same file the
 *       trace store's mapped tier uses, so a pre-baked sweep starts
 *       replaying instantly; an existing valid bake is kept as is
 *   trace_tool info <file>
 *       summarize a trace; for SGMB also dump the header and verify
 *       the payload hash (exit 1 on a mismatch)
 *   trace_tool sim <file> [policy] [subpage] [mem_pages]
 *       simulate a trace; also takes the observability flags
 *       (--trace-out, --trace-spans, --trace-timeline, --metrics;
 *       see obs/session.h)
 *
 * Every command reads both formats (SGMB through zero-copy mmap,
 * text). Output files are text when the name ends in ".txt" and
 * SGMB otherwise. Unknown flags and malformed numbers are errors.
 *
 * Point export_grid or quickstart at an SGMB file with
 * --trace-bin=FILE, or set SGMS_TRACE_DIR to have synthetic traces
 * baked and mapped automatically. The file-based TraceSource API is
 * the hook for feeding real (e.g. Valgrind/Pin-derived) traces into
 * the simulator in place of the synthetic application models.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "common/options.h"
#include "common/table.h"
#include "common/units.h"
#include "obs/session.h"
#include "sim/kernel.h"
#include "trace/apps.h"
#include "trace/binfmt.h"
#include "trace/mmap_trace.h"
#include "trace/trace_file.h"
#include "trace/trace_store.h"

using namespace sgms;

namespace
{

const char *const kUsage =
    "usage: trace_tool gen <app> <file> [scale] [seed]\n"
    "       trace_tool convert <in> <out> [--app=NAME] [--scale=S] "
    "[--seed=N]\n"
    "       trace_tool bake <app> [--scale=S] [--seed=N] [--dir=DIR]\n"
    "       trace_tool info <file>\n"
    "       trace_tool sim <file> [policy] [subpage] [mem_pages] "
    "[obs flags]\n";

/** The positional arguments, the command first; fatal() on a bad count. */
const std::vector<std::string> &
args(const Options &opts, size_t min, size_t max, const char *usage)
{
    const auto &pos = opts.positional();
    if (pos.size() < min || pos.size() > max)
        fatal("usage: trace_tool %s", usage);
    return pos;
}

bool
is_text_path(const std::string &path)
{
    return path.size() > 4 &&
           path.compare(path.size() - 4, 4, ".txt") == 0;
}

/** Write @p trace to @p path; text or SGMB by the file name. */
void
write_trace(TraceSource &trace, const std::string &path,
            const std::string &app, double scale, uint64_t seed)
{
    bool text = is_text_path(path);
    uint64_t n = text ? write_trace_text(trace, path)
                      : write_bin_trace(trace, path, app, scale, seed);
    std::printf("wrote %llu references (%s) to %s\n",
                static_cast<unsigned long long>(n),
                text ? "text" : "SGMB", path.c_str());
}

int
cmd_gen(const Options &opts)
{
    const auto &pos = args(opts, 3, 5, "gen <app> <file> [scale] [seed]");
    double scale = pos.size() > 3 ? parse_double(pos[3], "scale") : 0.02;
    uint64_t seed = pos.size() > 4 ? parse_u64(pos[4], "seed") : 1;
    opts.reject_unused();
    auto trace = make_app_trace(pos[1], scale, seed);
    write_trace(*trace, pos[2], pos[1], scale, seed);
    return 0;
}

int
cmd_convert(const Options &opts)
{
    const auto &pos = args(opts, 3, 3,
                           "convert <in> <out> [--app=NAME] [--scale=S] "
                           "[--seed=N]");
    std::string app = opts.get("app", pos[1]);
    double scale = opts.get_double("scale", 0.0);
    uint64_t seed = opts.get_u64("seed", 0);
    opts.reject_unused();
    auto in = open_trace(pos[1]);
    write_trace(*in, pos[2], app, scale, seed);
    return 0;
}

int
cmd_bake(const Options &opts)
{
    const auto &pos = args(opts, 2, 2,
                           "bake <app> [--scale=S] [--seed=N] [--dir=DIR]");
    std::string dir = opts.get("dir", env_string("SGMS_TRACE_DIR",
                                                 ".sgms-traces"));
    double scale = opts.get_double("scale", 1.0);
    uint64_t seed = opts.get_u64("seed", 1);
    opts.reject_unused();
    std::string path = bake_app_trace(pos[1], scale, seed, dir);
    BinTraceHeader hdr;
    std::string error;
    if (!read_bin_header(path, hdr, error))
        fatal("baked file '%s' failed validation: %s", path.c_str(),
              error.c_str());
    std::printf("baked %s scale=%g seed=%llu: %llu refs, %s\n",
                pos[1].c_str(), scale,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(hdr.ref_count),
                path.c_str());
    return 0;
}

/** Dump an SGMB header and verify the payload hash; fatal() on a mismatch. */
void
print_bin_header(const std::string &path)
{
    auto file = MappedTraceFile::open(path);
    const BinTraceHeader &hdr = file->header();
    uint64_t actual = file->payload_hash();
    std::printf("file:          %s\n", path.c_str());
    std::printf("format:        SGMB v%u\n", hdr.version);
    std::printf("references:    %llu\n",
                static_cast<unsigned long long>(hdr.ref_count));
    std::printf("payload:       %s\n",
                format_bytes(hdr.ref_count * kBinTraceRecordBytes)
                    .c_str());
    std::printf("app:           %s\n",
                hdr.app.empty() ? "(unknown)" : hdr.app.c_str());
    std::printf("scale:         %g\n", hdr.scale);
    std::printf("seed:          %llu\n",
                static_cast<unsigned long long>(hdr.seed));
    std::printf("payload hash:  %016llx (%s)\n",
                static_cast<unsigned long long>(hdr.payload_hash),
                actual == hdr.payload_hash ? "verified" : "MISMATCH");
    if (actual != hdr.payload_hash)
        fatal("payload hash mismatch: records are corrupted");
}

int
cmd_info(const Options &opts)
{
    const auto &pos = args(opts, 2, 2, "info <file>");
    opts.reject_unused();
    if (is_bin_trace(pos[1]))
        print_bin_header(pos[1]);
    auto trace = open_trace(pos[1]);
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
cmd_sim(const Options &opts)
{
    const auto &pos = args(opts, 2, 5,
                           "sim <file> [policy] [subpage] [mem_pages] "
                           "[obs flags]");
    obs::ObsSession obs(opts);
    SimConfig cfg;
    cfg.policy = pos.size() > 2 ? pos[2] : "eager";
    cfg.subpage_size = pos.size() > 3 ? parse_size32(pos[3], "subpage") : 1024;
    if (cfg.policy == "fullpage" || cfg.policy == "disk")
        cfg.subpage_size = cfg.page_size;
    cfg.mem_pages =
        pos.size() > 4 ? parse_u64(pos[4], "mem_pages") : 0;
    opts.reject_unused();
    auto trace = open_trace(pos[1]);
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
    Options opts(argc, argv);
    if (opts.has("help")) {
        std::fputs(kUsage, stdout);
        return 0;
    }
    if (opts.positional().empty()) {
        std::fputs(kUsage, stderr);
        return 1;
    }
    const std::string &cmd = opts.positional()[0];
    if (cmd == "gen")
        return cmd_gen(opts);
    if (cmd == "convert")
        return cmd_convert(opts);
    if (cmd == "bake")
        return cmd_bake(opts);
    if (cmd == "info")
        return cmd_info(opts);
    if (cmd == "sim")
        return cmd_sim(opts);
    fatal("unknown command '%s' (see trace_tool --help)", cmd.c_str());
}
