/**
 * @file
 * sgms_perf: one workload of the SGMS benchmark, one run.
 *
 *   sgms_perf --workload=NAME --seed=N [--seconds=S] [--trace=0|1]
 *             [--tmp-dir=DIR] [--git-sha=SHA] [--setup-only]
 *
 * --setup-only stops once the grid is ready to dispatch and prints
 * {"setup_s": ...}. --trace=0 runs the grid through one exec::Engine
 * pass after pass for at least S seconds and reports the end-to-end
 * metrics; --trace=1 makes the traced run (perf/layers.cc) and reports
 * the per-layer metrics. Either way the last line of standard output
 * is the record (perf.h, record_json). perf/run.py builds this program
 * and wraps it in the benchmark's command-line contract.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>

#include "common/logging.h"
#include "common/options.h"
#include "core/json_report.h"
#include "exec/parallel_runner.h"
#include "perf.h"

using namespace sgms;
using namespace sgms::perf;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
seconds_of(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** User+sys CPU seconds of this process and its reaped children. */
double
cpu_seconds()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return seconds_of(self.ru_utime) + seconds_of(self.ru_stime) +
           seconds_of(kids.ru_utime) + seconds_of(kids.ru_stime);
}

/** Peak RSS of this process plus that of its largest reaped child. */
double
peak_rss_mib()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

/** Removes the workload's on-disk files when the run ends. */
struct WorkloadFiles
{
    const Workload &w;
    ~WorkloadFiles() { remove_workload_files(w); }
};

void
print_metrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-24s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
failures_json(const std::vector<std::string> &failures)
{
    std::string s = "\"failures\":[";
    for (size_t i = 0; i < failures.size() && i < 8; ++i)
        s += (i ? ",\"" : "\"") + json_escape(failures[i]) + "\"";
    return s + "]";
}

/**
 * The untraced run: grid passes through one engine until @p seconds
 * of run_all wall time have been measured. Rates and CPU are per-pass
 * medians; the simulated metrics and digest come from the first pass,
 * and every later pass must reproduce its per-point results.
 */
int
run_untraced(const Workload &w, double setup_s, double seconds,
             const std::string &git_sha)
{
    exec::Engine engine(w.exec);
    std::vector<double> rates, cpus;
    std::vector<std::string> failures;
    std::vector<Tick> first_runtime;
    uint64_t attempted = 0, failed = 0, digest = 0;
    double sim_rt = 0, sim_wait = 0, measured = 0;
    while (rates.empty() || measured < seconds) {
        double cpu0 = cpu_seconds();
        auto t0 = Clock::now();
        std::vector<SimResult> res = engine.run_all(w.points);
        double wall = since(t0);
        cpus.push_back(cpu_seconds() - cpu0);
        measured += wall;

        uint64_t refs = 0;
        for (size_t i = 0; i < res.size(); ++i) {
            refs += res[i].refs;
            ++attempted;
            std::string why =
                check_point(w.points[i], res[i], w.trace_refs[i]);
            if (why.empty() && !first_runtime.empty() &&
                res[i].runtime != first_runtime[i])
                why = "result differs from the first pass";
            if (!why.empty()) {
                ++failed;
                failures.push_back("point " + std::to_string(i) + ": " +
                                   why);
            }
        }
        if (first_runtime.empty()) {
            for (const SimResult &r : res)
                first_runtime.push_back(r.runtime);
            digest = results_digest(res);
            sim_rt = sim_runtime_s(res);
            sim_wait = sim_fault_wait_us(res);
        }
        rates.push_back(static_cast<double>(refs) / wall);
    }

    std::vector<Metric> metrics;
    auto add = [&](const char *name, double v) {
        for (const MetricSpec &s : end_to_end_metrics()) {
            if (name == std::string(s.name))
                metrics.push_back({s.name, s.unit, v});
        }
    };
    add("setup_s", setup_s);
    add("refs_per_s", median(rates));
    add("cpu_s", median(cpus));
    add("peak_rss_mb", peak_rss_mib());
    add("sim_runtime_s", sim_rt);
    add("sim_fault_wait_us", sim_wait);

    std::printf("%s seed %llu: %zu points x %zu passes, %.2f s measured, "
                "digest %016llx, %llu/%llu failed\n",
                w.name.c_str(), static_cast<unsigned long long>(w.seed),
                w.points.size(), rates.size(), measured,
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    print_metrics(metrics);
    for (const std::string &f : failures)
        std::printf("  FAIL %s\n", f.c_str());

    auto list = [](const std::vector<double> &v) {
        std::string s = "[";
        for (size_t i = 0; i < v.size(); ++i)
            s += (i ? "," : "") + std::to_string(v[i]);
        return s + "]";
    };
    std::string extra = "\"passes\":" + std::to_string(rates.size()) +
                        ",\"pass_refs_per_s\":" + list(rates) +
                        ",\"pass_cpu_s\":" + list(cpus) +
                        ",\"payload_hash\":" +
                        std::to_string(w.payload_hash) + "," +
                        failures_json(failures);
    std::printf("%s\n", record_json(w, false, git_sha, digest, attempted,
                                    failed, metrics, extra)
                            .c_str());
    return 0;
}

int
run_traced_main(const Workload &w, double setup_s,
                const std::string &git_sha)
{
    TracedRun tr = run_traced(w, setup_s);
    std::printf("%s seed %llu traced: %zu points, digest %016llx, "
                "%zu/%zu failed\n",
                w.name.c_str(), static_cast<unsigned long long>(w.seed),
                w.points.size(), static_cast<unsigned long long>(tr.digest),
                tr.failures.size(), w.points.size());
    print_metrics(tr.metrics);
    for (const std::string &f : tr.failures)
        std::printf("  FAIL %s\n", f.c_str());
    std::string extra = "\"payload_hash\":" +
                        std::to_string(w.payload_hash) + "," +
                        failures_json(tr.failures);
    std::printf("%s\n",
                record_json(w, true, git_sha, tr.digest, w.points.size(),
                            tr.failures.size(), tr.metrics, extra)
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    auto start = Clock::now();
    Options opts(argc, argv);
    std::string name = opts.get("workload", "");
    uint64_t seed = opts.get_u64("seed", 1);
    double seconds = opts.get_double("seconds", 10.0);
    bool traced = opts.get_u64("trace", 0) != 0;
    bool setup_only = opts.get_bool("setup-only");
    std::string tmp_dir = opts.get("tmp-dir", ".");
    std::string git_sha = opts.get("git-sha", "unknown");
    for (const std::string &u : opts.unused())
        fatal("unknown option --%s", u.c_str());

    auto t_workload = Clock::now();
    Workload w = make_workload(name, seed, tmp_dir);
    WorkloadFiles files{w};
    warm_workload(w);
    double trace_setup_s = since(t_workload);
    double setup_s = since(start);

    if (setup_only) {
        std::printf("{\"setup_s\":%.17g}\n", setup_s);
        return 0;
    }
    if (traced)
        return run_traced_main(w, trace_setup_s, git_sha);
    return run_untraced(w, setup_s, seconds, git_sha);
}
