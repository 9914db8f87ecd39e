/**
 * @file
 * Execution-engine throughput: points/sec for the same experiment
 * grid run three ways —
 *
 *   serial     jobs=1, cache off (the historical run_sweep path)
 *   parallel   jobs=N, cache off (worker threads, deterministic
 *              merge; N = SGMS_JOBS or all hardware threads)
 *   processes  workers=N, cache off (forked fleet + pipe IPC)
 *   warm-cache jobs=N, every point served from the result cache
 *
 * Verifies along the way that all four produce byte-identical
 * result blobs and json_report output, and that the warm pass
 * simulates zero points. Then sweeps the parallelism degree for both
 * the worker threads and the process fleet, recording a points/sec
 * scaling curve. Emits a machine-readable summary (default
 * results/BENCH_exec.json) to track the perf trajectory in CI.
 *
 * Usage: exec_throughput [--scale=S] [--jobs=N] [--out=FILE]
 *                        [--keep-cache-dir=DIR]
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "bench/bench_common.h"
#include "core/json_report.h"
#include "core/sweep.h"
#include "exec/result_codec.h"
#include "obs/metrics.h"

using namespace sgms;

namespace
{

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string
blobs_of(const std::vector<SimResult> &results)
{
    std::string out;
    for (const auto &r : results)
        out += exec::result_blob(r);
    return out;
}

std::string
report_of(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    write_results_json(os, results, /*include_faults=*/true);
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    // Default scale keeps the 28-point grid CI-sized; SGMS_SCALE or
    // --scale raise it for steadier numbers on a quiet box.
    double scale = opts.get_scale("scale", scale_from_env(0.1));
    unsigned jobs = static_cast<unsigned>(opts.get_u64(
        "jobs", env_u64("SGMS_JOBS", 0)));
    if (jobs == 0)
        jobs = exec::hardware_workers();
    if (jobs < 2)
        jobs = 2; // exercise the threads even on a 1-core box
    std::string out_path = opts.get("out", "results/BENCH_exec.json");

    bench::banner("EXEC", "engine throughput: serial vs parallel vs "
                          "warm cache",
                  scale);

    SweepSpec spec;
    spec.apps = {"modula3", "gdb"};
    spec.policies = {"fullpage", "eager", "pipelining"};
    spec.subpage_sizes = {512, 1024, 2048};
    spec.mems = {MemConfig::Half, MemConfig::Quarter};
    spec.scale = scale;
    std::vector<Experiment> points = exec::expand_sweep(spec);
    std::printf("grid: %zu points, %u workers\n", points.size(),
                jobs);

    // Hermetic cache directory unless the caller wants to keep one.
    std::string cache_dir = opts.get("keep-cache-dir", "");
    bool scratch_cache = cache_dir.empty();
    if (scratch_cache) {
        cache_dir = (std::filesystem::temp_directory_path() /
                     ("sgms-exec-bench-" +
                      std::to_string(::getpid())))
                        .string();
    }

    bench::section("serial (jobs=1, cache off)");
    exec::ExecOptions serial_eo;
    serial_eo.jobs = 1;
    exec::Engine serial_engine(serial_eo);
    auto t0 = std::chrono::steady_clock::now();
    auto serial = serial_engine.run_all(points);
    double serial_s = seconds_since(t0);
    std::printf("%.2f s, %.2f points/s\n", serial_s,
                points.size() / serial_s);

    bench::section("parallel (cache off)");
    exec::ExecOptions par_eo;
    par_eo.jobs = jobs;
    exec::Engine par_engine(par_eo);
    t0 = std::chrono::steady_clock::now();
    auto parallel = par_engine.run_all(points);
    double parallel_s = seconds_since(t0);
    std::printf("%.2f s, %.2f points/s (%.2fx serial)\n", parallel_s,
                points.size() / parallel_s, serial_s / parallel_s);

    bench::section("processes (cache off)");
    exec::ExecOptions proc_eo;
    proc_eo.workers = jobs;
    exec::Engine proc_engine(proc_eo);
    t0 = std::chrono::steady_clock::now();
    auto procs = proc_engine.run_all(points);
    double procs_s = seconds_since(t0);
    exec::ExecStats proc_stats = proc_engine.stats();
    std::printf("%.2f s, %.2f points/s (%.2fx serial), "
                "%llu degraded\n",
                procs_s, points.size() / procs_s,
                serial_s / procs_s,
                static_cast<unsigned long long>(
                    proc_stats.points_degraded));

    bench::section("warm cache");
    exec::ExecOptions cache_eo;
    cache_eo.jobs = jobs;
    cache_eo.cache_enabled = true;
    cache_eo.cache_dir = cache_dir;
    {
        exec::Engine cold(cache_eo); // populate
        cold.run_all(points);
    }
    exec::Engine warm_engine(cache_eo);
    t0 = std::chrono::steady_clock::now();
    auto warm = warm_engine.run_all(points);
    double warm_s = seconds_since(t0);
    exec::ExecStats warm_stats = warm_engine.stats();
    std::printf("%.2f s, %.2f points/s (%.2fx serial), "
                "%llu/%zu points from cache\n",
                warm_s, points.size() / warm_s, serial_s / warm_s,
                static_cast<unsigned long long>(
                    warm_stats.points_cached),
                points.size());

    bool identical = blobs_of(serial) == blobs_of(parallel) &&
                     blobs_of(serial) == blobs_of(procs) &&
                     report_of(serial) == report_of(parallel) &&
                     report_of(serial) == report_of(procs) &&
                     report_of(serial) == report_of(warm) &&
                     proc_stats.points_degraded == 0;
    bool all_cached = warm_stats.points_cached == points.size() &&
                      warm_stats.points_run == 0;
    std::printf("byte-identical results (threads+processes): %s\n",
                identical ? "yes" : "NO");
    std::printf("warm pass simulated zero points: %s\n",
                all_cached ? "yes" : "NO");

    // Scaling curve: points/sec against the degree of parallelism,
    // for both execution modes. Stops at the fleet size used above.
    bench::section("scaling (points/s vs parallelism)");
    struct ScalePoint
    {
        const char *mode;
        unsigned n;
        double secs;
    };
    std::vector<ScalePoint> curve;
    Table st({"mode", "n", "seconds", "points/s", "speedup"});
    for (unsigned n = 1; n <= jobs; n *= 2) {
        for (const char *mode : {"threads", "processes"}) {
            exec::ExecOptions eo;
            if (std::string(mode) == "threads")
                eo.jobs = n;
            else
                eo.workers = n;
            exec::Engine engine(eo);
            t0 = std::chrono::steady_clock::now();
            auto r = engine.run_all(points);
            double secs = seconds_since(t0);
            identical = identical && blobs_of(r) == blobs_of(serial);
            curve.push_back({mode, n, secs});
            st.add_row({mode, Table::fmt_int(n),
                        Table::fmt(secs, 2),
                        Table::fmt(points.size() / secs, 2),
                        Table::fmt(serial_s / secs, 2) + "x"});
        }
    }
    st.print(std::cout);

    bench::section("engine metrics");
    obs::print_metrics(std::cout, par_engine.metrics_snapshot());
    obs::print_metrics(std::cout, proc_engine.metrics_snapshot());

    if (scratch_cache) {
        std::error_code ec;
        std::filesystem::remove_all(cache_dir, ec);
    }

    std::ofstream out(out_path);
    if (out) {
        char buf[1024];
        std::snprintf(
            buf, sizeof(buf),
            "{\"bench\":\"exec_throughput\",\"points\":%zu,"
            "\"scale\":%g,\"jobs\":%u,"
            "\"serial_s\":%.4f,\"parallel_s\":%.4f,"
            "\"processes_s\":%.4f,\"warm_cache_s\":%.4f,"
            "\"serial_pps\":%.3f,\"parallel_pps\":%.3f,"
            "\"processes_pps\":%.3f,\"warm_cache_pps\":%.3f,"
            "\"parallel_speedup\":%.3f,\"processes_speedup\":%.3f,"
            "\"warm_cache_speedup\":%.3f,"
            "\"identical\":%s,\"warm_all_cached\":%s,"
            "\"scaling\":[",
            points.size(), scale, jobs, serial_s, parallel_s,
            procs_s, warm_s, points.size() / serial_s,
            points.size() / parallel_s, points.size() / procs_s,
            points.size() / warm_s, serial_s / parallel_s,
            serial_s / procs_s, serial_s / warm_s,
            identical ? "true" : "false",
            all_cached ? "true" : "false");
        out << buf;
        for (size_t i = 0; i < curve.size(); ++i) {
            std::snprintf(buf, sizeof(buf),
                          "%s{\"mode\":\"%s\",\"n\":%u,"
                          "\"seconds\":%.4f,\"pps\":%.3f}",
                          i ? "," : "", curve[i].mode, curve[i].n,
                          curve[i].secs,
                          points.size() / curve[i].secs);
            out << buf;
        }
        out << "]}\n";
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        warn("cannot write %s", out_path.c_str());
    }

    return (identical && all_cached) ? 0 : 1;
}
