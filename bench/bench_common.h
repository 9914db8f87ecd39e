/**
 * @file
 * Shared helpers for the table/figure benches.
 *
 * Every bench regenerates one table or figure from the paper. Output
 * convention: a header naming the experiment, the paper's reference
 * values where applicable, an ASCII rendering of the figure, and the
 * raw data as CSV so it can be re-plotted.
 *
 * SGMS_SCALE scales the synthetic traces (1.0 = the paper's trace
 * sizes; smaller values run proportionally faster with the same
 * qualitative shapes).
 */

#ifndef SGMS_BENCH_BENCH_COMMON_H
#define SGMS_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/chart.h"
#include "common/logging.h"
#include "common/options.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "core/experiment.h"
#include "exec/parallel_runner.h"
#include "obs/session.h"
#include "trace/trace_store.h"

namespace sgms::bench
{

/** Print the standard bench banner. */
inline void
banner(const std::string &id, const std::string &title, double scale)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", id.c_str(), title.c_str());
    std::printf("trace scale: %g (SGMS_SCALE to change; 1.0 = paper)\n",
                scale);
    std::printf("==============================================================\n");
}

/** Section separator inside a bench. */
inline void
section(const std::string &name)
{
    std::printf("\n--- %s ---\n", name.c_str());
}

/**
 * The process-wide execution engine, configured from the environment
 * (SGMS_JOBS, SGMS_CACHE, SGMS_CACHE_DIR). Every bench routes its
 * experiments through it, so `SGMS_CACHE=1 ./build/bench/fig3_*`
 * replays unchanged points from the result cache with zero per-bench
 * code, and batched sections parallelize under SGMS_JOBS=N.
 */
inline exec::Engine &
engine()
{
    return exec::Engine::shared();
}

/** Run one experiment (through the shared engine's cache). */
inline SimResult
run_labeled(const Experiment &ex)
{
    SimResult r = engine().run(ex);
    std::fflush(stdout);
    return r;
}

/**
 * Run a batch of experiments, results in input order. Under
 * SGMS_JOBS=N the points execute concurrently; output is identical
 * to running them one by one.
 */
inline std::vector<SimResult>
run_batch(const std::vector<Experiment> &points)
{
    std::vector<SimResult> out = engine().run_all(points);
    std::fflush(stdout);
    return out;
}

/**
 * Run a batch under an observability session. When the session is
 * actually tracing, points run serially on the calling thread via
 * ex.run(obs) — span capture and timelines cannot survive a worker
 * thread or process — otherwise the batch goes through the engine
 * like run_batch().
 */
inline std::vector<SimResult>
run_batch(const std::vector<Experiment> &points,
          const obs::ObsSession &obs)
{
    if (obs.tracing()) {
        std::vector<SimResult> out;
        out.reserve(points.size());
        for (const Experiment &ex : points) {
            if (obs.tracer())
                obs.tracer()->clear();
            out.push_back(ex.run(obs));
        }
        std::fflush(stdout);
        return out;
    }
    return run_batch(points);
}

/**
 * A progress callback that prints "  app label mem" lines without
 * interleaving: safe to hand to run_sweep/run_all at any job count
 * (the lock keeps each line atomic; see the sweep.h contract).
 */
inline std::function<void(const Experiment &)>
progress_printer()
{
    auto mutex = std::make_shared<std::mutex>();
    return [mutex](const Experiment &ex) {
        std::lock_guard<std::mutex> lock(*mutex);
        std::printf("  %s %s %s\n", ex.app.c_str(),
                    ex.label().c_str(), mem_config_name(ex.mem));
        std::fflush(stdout);
    };
}

/**
 * Observability wiring for a bench: parse --trace-out / --metrics /
 * ... from its command line. Also honors --trace-dir=DIR
 * (SGMS_TRACE_DIR env), pointing the trace store's mapped tier at DIR
 * so every bench can replay baked traces. A bench using this reads no
 * other flag, so any other option is fatal.
 */
inline obs::ObsSession
obs_session(int argc, char **argv)
{
    Options opts(argc, argv);
    if (opts.has("trace-dir"))
        trace_store_set_dir(opts.get("trace-dir"));
    obs::ObsSession obs(opts);
    opts.reject_unused();
    return obs;
}

/**
 * Run one experiment under an observability session. The session's
 * tracer is cleared first, so a --trace-out file always holds the
 * spans of the most recent experiment of the bench.
 */
inline SimResult
run_labeled(const Experiment &ex, const obs::ObsSession &obs)
{
    if (obs.tracer())
        obs.tracer()->clear();
    SimResult r = ex.run(obs);
    std::fflush(stdout);
    return r;
}

/** The subpage sizes the paper sweeps. */
inline const std::vector<uint32_t> &
paper_subpage_sizes()
{
    static const std::vector<uint32_t> sizes = {4096, 2048, 1024, 512,
                                                256};
    return sizes;
}

} // namespace sgms::bench

#endif // SGMS_BENCH_BENCH_COMMON_H
