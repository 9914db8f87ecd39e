/**
 * @file
 * Ablation: adaptive subpage sequencing. The fixed pipelining policy
 * sends the remainder of a page in ascending subpage order behind
 * the demand segment; the adaptive variant reorders the follow-on
 * segments from the observed inter-subpage reference distances. This
 * bench runs both across all five application models and reports the
 * runtime delta, emitting a machine-readable summary (default
 * results/BENCH_adaptive.json) next to the human-readable table. A
 * second table puts every sequencing variant (eager, pipelining,
 * pipelining-all, pipelining-adaptive) against fullpage p_8192 on
 * modula3. Both tables come from one batch of points.
 *
 * Usage: ablation_adaptive [--scale=S] [--out=FILE]
 */

#include <fstream>

#include "bench/bench_common.h"
#include "trace/apps.h"

using namespace sgms;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    double scale = opts.get_scale("scale", scale_from_env(1.0));
    std::string out_path =
        opts.get("out", "results/BENCH_adaptive.json");

    bench::banner("Ablation",
                  "adaptive vs fixed subpage sequencing", scale);

    const std::vector<std::string> &apps = app_names();
    std::vector<Experiment> points;
    for (const std::string &app : apps) {
        Experiment ex;
        ex.app = app;
        ex.scale = scale;
        ex.subpage_size = 1024;
        ex.mem = MemConfig::Half;
        ex.policy = "pipelining";
        points.push_back(ex);
        ex.policy = "pipelining-adaptive";
        points.push_back(ex);
    }
    // The variant table's points: p_8192, then each variant at 1K.
    const std::vector<const char *> variants = {
        "eager", "pipelining", "pipelining-all",
        "pipelining-adaptive"};
    const size_t variant_base = points.size();
    Experiment vx;
    vx.app = "modula3";
    vx.scale = scale;
    vx.mem = MemConfig::Half;
    vx.subpage_size = 1024;
    vx.policy = "fullpage";
    points.push_back(vx);
    for (const char *pol : variants) {
        vx.policy = pol;
        points.push_back(vx);
    }
    std::vector<SimResult> results = bench::run_batch(points);

    Table t({"app", "fixed (ms)", "adaptive (ms)", "delta",
             "faults", "page_wait delta"});
    struct Row
    {
        std::string app;
        const SimResult *fixed;
        const SimResult *adaptive;
    };
    std::vector<Row> rows;
    for (size_t i = 0; i < apps.size(); ++i) {
        const SimResult &fixed = results[2 * i];
        const SimResult &adaptive = results[2 * i + 1];
        rows.push_back({apps[i], &fixed, &adaptive});
        double pw_delta =
            fixed.page_wait
                ? 1.0 - static_cast<double>(adaptive.page_wait) /
                            static_cast<double>(fixed.page_wait)
                : 0.0;
        t.add_row({apps[i], format_ms(fixed.runtime),
                   format_ms(adaptive.runtime),
                   Table::fmt_pct(adaptive.reduction_vs(fixed)),
                   Table::fmt_int(adaptive.page_faults),
                   Table::fmt_pct(pw_delta)});
    }
    t.print(std::cout);
    std::printf("\nexpected: adaptive sequencing helps apps whose "
                "follow-on subpage\norder deviates from ascending "
                "(learned from observe_distance) and\nmatches fixed "
                "sequencing where ascending is already right.\n");

    bench::section("sequencing variants against p_8192 "
                   "(modula3, 1/2-mem, 1K)");
    Table tv({"policy", "runtime (ms)", "vs p_8192"});
    const SimResult &full = results[variant_base];
    for (size_t k = 0; k < variants.size(); ++k) {
        const SimResult &r = results[variant_base + 1 + k];
        tv.add_row({variants[k], format_ms(r.runtime),
                    Table::fmt_pct(r.reduction_vs(full))});
    }
    tv.print(std::cout);
    std::printf("expected: adaptive ordering matches or beats the "
                "static +-distance\norder once it has learned the "
                "workload's next-subpage distribution.\n");

    std::ofstream out(out_path);
    if (out) {
        out << "{\"bench\":\"ablation_adaptive\",\"scale\":" << scale
            << ",\"apps\":[";
        for (size_t i = 0; i < rows.size(); ++i) {
            char buf[512];
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"app\":\"%s\","
                "\"fixed_runtime_ns\":%lld,"
                "\"adaptive_runtime_ns\":%lld,"
                "\"reduction\":%.4f,"
                "\"fixed_page_wait_ns\":%lld,"
                "\"adaptive_page_wait_ns\":%lld,"
                "\"page_faults\":%llu}",
                i ? "," : "", rows[i].app.c_str(),
                static_cast<long long>(rows[i].fixed->runtime),
                static_cast<long long>(rows[i].adaptive->runtime),
                rows[i].adaptive->reduction_vs(*rows[i].fixed),
                static_cast<long long>(rows[i].fixed->page_wait),
                static_cast<long long>(rows[i].adaptive->page_wait),
                static_cast<unsigned long long>(
                    rows[i].adaptive->page_faults));
            out << buf;
        }
        out << "]}\n";
        // stderr, so the table text does not depend on --out.
        std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    } else {
        warn("cannot write %s", out_path.c_str());
    }
    return 0;
}
