/**
 * @file
 * Grid-sweep driver: run a cross product of applications, policies,
 * subpage sizes and memory configurations, collecting SimResults.
 * Used by the data-export tooling and sensitivity studies.
 *
 * Since the exec engine landed, run_sweep is a thin front end over
 * exec::Engine (exec/parallel_runner.h): points are shared out to
 * worker threads — or, with SGMS_WORKERS set, a fleet of forked
 * worker processes — and merged back into serial order, so the
 * result vector is byte-identical whatever the parallelism.
 */

#ifndef SGMS_CORE_SWEEP_H
#define SGMS_CORE_SWEEP_H

#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace sgms
{

namespace exec
{
struct ExecOptions;
} // namespace exec

/** A grid of experiments. */
struct SweepSpec
{
    std::vector<std::string> apps = {"modula3"};
    std::vector<std::string> policies = {"fullpage", "eager"};
    /** Used only for policies that take a subpage size. */
    std::vector<uint32_t> subpage_sizes = {1024};
    std::vector<MemConfig> mems = {MemConfig::Half};
    /**
     * Client-count axis (--clients): each entry runs the point with
     * that many concurrent faulting clients sharing the cluster
     * (Experiment::clients). {1} (the default) is the paper's
     * single-client setup.
     */
    std::vector<uint32_t> clients = {1};
    double scale = 1.0;
    uint64_t seed = 1;
    /**
     * When non-empty, every point replays this baked SGMB file
     * instead of the synthetic app models (Experiment::trace_bin);
     * apps then only label the points, so callers usually collapse
     * the app axis to one entry.
     */
    std::string trace_bin;
    /** Base configuration applied to every point. */
    SimConfig base;

    /** Number of experiment points the grid expands to. */
    size_t point_count() const;
};

/**
 * Run the whole grid. Policies without a subpage dimension
 * ("fullpage", "disk") run once per (app, mem) regardless of the
 * subpage list.
 *
 * Execution is governed by the environment (SGMS_JOBS, SGMS_WORKERS,
 * SGMS_CACHE, SGMS_CACHE_DIR — see exec/exec_options.h); the default
 * is the serial fast path. Results always come back in serial grid
 * order.
 *
 * Progress-callback CONTRACT: @p progress, if set, fires exactly
 * once per point, before that point runs — but when jobs > 1 it
 * fires from WORKER threads, concurrently and in claim order.
 * Callbacks must be thread-safe: guard printing with a mutex, count
 * with atomics. (Enforced: the engine asserts one call per point.)
 * In multi-process mode (workers >= 1) callbacks fire on the calling
 * thread, in dispatch order.
 */
std::vector<SimResult>
run_sweep(const SweepSpec &spec,
          const std::function<void(const Experiment &)> &progress =
              nullptr);

/** run_sweep with explicit execution options (--jobs/--cache-dir). */
std::vector<SimResult>
run_sweep(const SweepSpec &spec, const exec::ExecOptions &eo,
          const std::function<void(const Experiment &)> &progress =
              nullptr);

} // namespace sgms

#endif // SGMS_CORE_SWEEP_H
