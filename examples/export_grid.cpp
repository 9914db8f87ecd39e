/**
 * @file
 * Batch data export: run a configurable experiment grid and emit the
 * results as JSON (for notebooks / plotting) and a CSV summary.
 *
 * Usage:
 *   export_grid [--apps=a,b,..] [--policies=p,q,..]
 *               [--subpages=1024,2048] [--mems=half,quarter]
 *               [--clients=1,16,..] [--metrics-per-client]
 *               [--scale=S] [--json=FILE] [--csv=FILE]
 *               [--jobs=N] [--workers=N] [--cache-dir=DIR]
 *               [--no-cache] [--trace-bin=FILE] [--trace-dir=DIR]
 *               [--config-overrides...]
 *
 * Defaults reproduce the Figure 9 grid (all apps, fullpage + eager +
 * pipelining at 1K, 1/2-mem).
 *
 * --jobs=N shards the grid across N worker threads (0 = all cores;
 * SGMS_JOBS env). --workers=N forks N worker *processes* instead
 * (SGMS_WORKERS env), which additionally buys crash isolation.
 * Either way, output is byte-identical to --jobs=1: results are
 * merged back into serial grid order, and the progress lines are
 * mutex-guarded (they may print in completion order). --cache-dir
 * enables the content-addressed result cache, so a re-run recomputes
 * only points whose configuration changed.
 *
 * --trace-bin=FILE replays a baked SGMB trace (zero-copy mmap) in
 * place of the synthetic app models; the app axis collapses to the
 * file. --trace-dir=DIR (SGMS_TRACE_DIR env) enables the trace
 * store's mapped tier: synthetic traces are baked there once and
 * mmap'd on every later run.
 *
 * An option that none of the above reads is fatal before any point
 * runs.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

#include "common/options.h"
#include "common/table.h"
#include "common/units.h"
#include "core/config_override.h"
#include "core/json_report.h"
#include "core/sweep.h"
#include "exec/parallel_runner.h"
#include "trace/trace_store.h"

using namespace sgms;

namespace
{

std::vector<std::string>
split_csv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    if (opts.has("help")) {
        std::printf("usage: export_grid [--apps=..] [--policies=..] "
                    "[--subpages=..] [--mems=..]\n"
                    "  [--clients=1,16,..] [--metrics-per-client]"
                    "\n  [--scale=S] "
                    "[--json=FILE] [--csv=FILE] [--jobs=N] "
                    "[--workers=N]\n"
                    "  [--cache-dir=DIR] [--no-cache] "
                    "[--trace-bin=FILE] [--trace-dir=DIR] "
                    "[overrides]\n"
                    "%s\n%s\n",
                    config_override_help(), exec::ExecOptions::help());
        return 0;
    }

    SweepSpec spec;
    spec.apps = split_csv(
        opts.get("apps", "modula3,ld,atom,render,gdb"));
    spec.policies = split_csv(
        opts.get("policies", "fullpage,eager,pipelining"));
    spec.subpage_sizes.clear();
    for (const auto &s : split_csv(opts.get("subpages", "1024")))
        spec.subpage_sizes.push_back(parse_size32(s, "option --subpages"));
    spec.mems.clear();
    for (const auto &m : split_csv(opts.get("mems", "half")))
        spec.mems.push_back(parse_mem_config(m, "option --mems"));
    spec.clients.clear();
    for (const auto &c : split_csv(opts.get("clients", "1"))) {
        uint32_t n = fit_u32(parse_u64(c, "option --clients"),
                             "option --clients");
        if (n == 0)
            fatal("option --clients: a client count must be at least 1");
        spec.clients.push_back(n);
    }
    if (opts.has("metrics-per-client"))
        spec.base.metrics_per_client = true;
    spec.scale = opts.get_scale("scale", scale_from_env(1.0));
    if (opts.has("trace-dir"))
        trace_store_set_dir(opts.get("trace-dir"));
    spec.trace_bin = opts.get("trace-bin", "");
    if (!spec.trace_bin.empty()) {
        // One file = one trace: the app axis only labels the points.
        size_t slash = spec.trace_bin.find_last_of('/');
        spec.apps = {slash == std::string::npos
                         ? spec.trace_bin
                         : spec.trace_bin.substr(slash + 1)};
    }
    apply_config_overrides(spec.base, opts);
    std::string csv_path = opts.get("csv", "");
    std::string json_path = opts.get("json", "");

    exec::ExecOptions eo = exec::ExecOptions::from_options(opts);
    // Every option has been read by now, so a typo or a retired flag
    // fails here, before any point runs.
    opts.reject_unused();
    std::printf("running %zu experiment points (scale %g, jobs %u, "
                "workers %u, cache %s)\n",
                spec.point_count(), spec.scale, eo.jobs, eo.workers,
                eo.cache_enabled ? eo.cache_dir.c_str() : "off");
    // Progress may fire from worker threads (sweep.h contract); the
    // mutex keeps each line atomic instead of interleaving.
    std::mutex progress_mutex;
    exec::Engine engine(eo);
    auto results =
        engine.run_sweep(spec, [&](const Experiment &ex) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            std::printf("  %s %s %s\n", ex.app.c_str(),
                        ex.label().c_str(), mem_config_name(ex.mem));
            std::fflush(stdout);
        });
    exec::ExecStats es = engine.stats();
    std::printf("engine: %llu simulated, %llu from cache\n",
                static_cast<unsigned long long>(es.points_run),
                static_cast<unsigned long long>(es.points_cached));

    // CSV summary.
    Table t({"app", "policy", "subpage", "mem_pages", "faults",
             "runtime_ms", "exec_ms", "sp_latency_ms",
             "page_wait_ms"});
    for (const auto &r : results) {
        t.add_row({r.app, r.policy, Table::fmt_int(r.subpage_size),
                   Table::fmt_int(r.mem_pages),
                   Table::fmt_int(r.page_faults),
                   Table::fmt(ticks::to_ms(r.runtime), 3),
                   Table::fmt(ticks::to_ms(r.exec_time), 3),
                   Table::fmt(ticks::to_ms(r.sp_latency), 3),
                   Table::fmt(ticks::to_ms(r.page_wait), 3)});
    }

    if (!csv_path.empty()) {
        std::ofstream f(csv_path);
        t.print_csv(f);
        std::printf("wrote %s\n", csv_path.c_str());
    } else {
        t.print_csv(std::cout);
    }

    if (!json_path.empty()) {
        std::ofstream f(json_path);
        write_results_json(f, results);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
