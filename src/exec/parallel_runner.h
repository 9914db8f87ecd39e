/**
 * @file
 * Parallel experiment engine: run a grid of independent simulation
 * points on worker threads, merge results back into exact serial
 * order, and serve repeated points from the result cache.
 *
 * Every point is a pure function of its Experiment, so the engine
 * can run them in any order and still return a result vector
 * byte-identical to the historical serial `run_sweep`. Workers claim
 * the next entry of one claim order from a shared counter and write
 * its result into that point's slot, which *is* the deterministic
 * merge; there is no reduction step to get wrong.
 *
 * Claim order: with more than one worker, points are claimed longest
 * first by an estimated cost (claim_order), so the longest point of
 * a batch starts at once instead of after the points listed before
 * it; a batch ends when its last point does. One worker keeps input
 * order. Only the time at which each point starts changes.
 *
 * Progress-callback contract: when one worker suffices (jobs == 1 or
 * a single point) the callback fires on the calling thread, in
 * serial order, before each point — exactly the historical behavior.
 * Otherwise it fires on WORKER threads, concurrently and in claim
 * order (longest first, not input order); callbacks must be
 * thread-safe (take a lock around printing, use atomics for
 * counting). The engine asserts that exactly one callback fired per
 * point. Cached points still get a callback: progress reports points
 * *delivered*, not simulations executed.
 *
 * Exception contract: a point (or its progress callback) that throws
 * stops further claims; points already claimed run to completion.
 * run_all rethrows the first exception on the calling thread only
 * after every worker has joined, so no worker outlives the call.
 *
 * Cache interaction: a point whose config carries a run observer
 * (cfg.tracer) is never served from — or stored to — the cache,
 * since a cached result cannot replay its side effects.
 *
 * Multi-process mode: with opts.workers >= 1 the grid is sharded
 * across a fleet of forked worker processes instead of threads
 * (exec/supervisor.h). The parent still owns the serial point order,
 * consults the cache, and runs observer points inline; everything
 * else crosses a pipe as (index, fingerprint) and comes back as a
 * lossless result blob into its precomputed slot — output stays
 * byte-identical to serial at any worker count. The parent walks the
 * points in claim order, so the fleet is dispatched longest first
 * too. Process isolation
 * additionally buys crash recovery: a point whose worker dies on
 * every attempt (a fatal(), an abort, a segfault) yields a
 * *degraded* result: identity fields filled, everything else zero,
 * and an `exec.degraded` counter in its metrics. Progress fires on
 * the calling thread in this mode, exactly once per point.
 */

#ifndef SGMS_EXEC_PARALLEL_RUNNER_H
#define SGMS_EXEC_PARALLEL_RUNNER_H

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/sweep.h"
#include "exec/exec_options.h"
#include "exec/result_cache.h"
#include "obs/metrics.h"

namespace sgms::exec
{

/**
 * Expand @p spec into its experiment points in the canonical serial
 * order (app-major, then mem, then policy, then subpage size) that
 * run_sweep has always used. Policies without a subpage dimension
 * ("fullpage", "disk") expand once per (app, mem).
 */
std::vector<Experiment> expand_sweep(const SweepSpec &spec);

/**
 * The order in which the engine's workers claim @p points: longest
 * first by estimated cost, ties in input order (a stable sort). The
 * cost is the point's trace references (from the app model's
 * declared count, or from the SGMB header of a trace_bin file; no
 * trace is generated) times its clients times one plus the messages
 * a fault sends: 0 for a disk plan, else the request plus the
 * segments its policy plans for a fault in the middle of a fresh
 * page at its geometry. A point with an app, trace file, policy or
 * geometry the estimate does not know costs 0 rather than failing;
 * the point fails where it runs.
 */
std::vector<size_t> claim_order(const std::vector<Experiment> &points);

/** Aggregate engine counters (monotone over the engine lifetime). */
struct ExecStats
{
    uint64_t points_total = 0;  ///< points delivered (run + cached)
    uint64_t points_run = 0;    ///< simulated for real
    uint64_t points_cached = 0; ///< served from the result cache
    unsigned workers = 0;       ///< thread width (0: never went parallel)
    CacheStats cache;           ///< zero when the cache is disabled

    // Multi-process mode (all zero when opts.workers == 0).
    uint64_t points_degraded = 0; ///< crashed or undecodable points
    uint64_t worker_crashes = 0;  ///< workers that died mid-point
    uint64_t worker_respawns = 0; ///< replacement workers forked
    unsigned proc_workers = 0;    ///< configured process-fleet size
};

class Engine
{
  public:
    using Progress = std::function<void(const Experiment &)>;

    explicit Engine(ExecOptions opts = ExecOptions{});
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Run (or fetch) a single point. */
    SimResult run(const Experiment &ex);

    /**
     * Run every point, returning results in input order. See the
     * file header for the progress and exception contracts.
     */
    std::vector<SimResult>
    run_all(const std::vector<Experiment> &points,
            const Progress &progress = nullptr);

    /** expand_sweep + run_all. */
    std::vector<SimResult>
    run_sweep(const SweepSpec &spec,
              const Progress &progress = nullptr);

    const ExecOptions &options() const { return opts_; }

    ExecStats stats() const;

    /**
     * exec.* counters as a metrics snapshot (obs/metrics.h):
     * exec.points_run, exec.points_cached, exec.cache_stores,
     * exec.cache_decode_failures, exec.points_degraded,
     * exec.worker_crashes, exec.worker_respawns, exec.pool_workers,
     * exec.proc_workers.
     */
    std::vector<obs::MetricSample> metrics_snapshot() const;

    /**
     * Process-wide engine configured from the environment (SGMS_JOBS,
     * SGMS_WORKERS, SGMS_CACHE, SGMS_CACHE_DIR) at first use; what
     * the benches' run_labeled routes through.
     */
    static Engine &shared();

  private:
    SimResult run_point(const Experiment &ex);
    std::vector<SimResult>
    run_all_processes(const std::vector<Experiment> &points,
                      const Progress &progress);

    ExecOptions opts_;
    std::unique_ptr<ResultCache> cache_;
    std::atomic<bool> ran_threads_{false}; ///< a run went parallel
    std::atomic<uint64_t> points_run_{0};
    std::atomic<uint64_t> points_cached_{0};
    std::atomic<uint64_t> points_degraded_{0};
    std::atomic<uint64_t> worker_crashes_{0};
    std::atomic<uint64_t> worker_respawns_{0};
};

} // namespace sgms::exec

#endif // SGMS_EXEC_PARALLEL_RUNNER_H
