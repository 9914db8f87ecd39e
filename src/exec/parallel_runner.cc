#include "exec/parallel_runner.h"

#include <algorithm>
#include <future>

#include "common/logging.h"
#include "exec/supervisor.h"
#include "sim/kernel.h"

namespace sgms::exec
{

namespace
{

bool
has_subpage_dimension(const std::string &policy)
{
    return policy != "fullpage" && policy != "disk";
}

bool
has_observers(const Experiment &ex)
{
    return ex.base.tracer != nullptr || ex.base.timeline != nullptr;
}

/**
 * Stand-in result for a point the fleet could not finish (watchdog
 * kill or repeated crash). Identity fields are filled from the spec
 * alone — no footprint computation, the point may be the very thing
 * that hangs — all measurements stay zero, and an `exec.degraded`
 * counter marks it for downstream consumers. Pure function of the
 * experiment, so reruns stay deterministic.
 */
SimResult
degraded_result(const Experiment &ex)
{
    SimResult r;
    r.app = ex.app;
    r.policy = ex.policy;
    r.page_size = ex.base.page_size;
    r.subpage_size = has_subpage_dimension(ex.policy)
                         ? ex.subpage_size
                         : ex.base.page_size;
    obs::MetricSample degraded;
    degraded.name = "exec.degraded";
    degraded.kind = obs::MetricKind::Counter;
    degraded.value = 1.0;
    r.metrics.push_back(std::move(degraded));
    return r;
}

} // namespace

std::vector<Experiment>
expand_sweep(const SweepSpec &spec)
{
    std::vector<Experiment> points;
    points.reserve(spec.point_count());
    for (const auto &app : spec.apps) {
        for (MemConfig mem : spec.mems) {
            for (const auto &policy : spec.policies) {
                std::vector<uint32_t> sizes =
                    has_subpage_dimension(policy)
                        ? spec.subpage_sizes
                        : std::vector<uint32_t>{spec.base.page_size};
                std::vector<uint32_t> nclients =
                    spec.clients.empty() ? std::vector<uint32_t>{1}
                                         : spec.clients;
                for (uint32_t sp : sizes) {
                    for (uint32_t nc : nclients) {
                        Experiment ex;
                        ex.app = app;
                        ex.scale = spec.scale;
                        ex.seed = spec.seed;
                        ex.policy = policy;
                        ex.subpage_size = sp;
                        ex.mem = mem;
                        ex.clients = nc;
                        ex.trace_bin = spec.trace_bin;
                        ex.base = spec.base;
                        points.push_back(std::move(ex));
                    }
                }
            }
        }
    }
    return points;
}

Engine::Engine(ExecOptions opts) : opts_(opts)
{
    if (opts_.jobs == 0)
        opts_.jobs = 1;
    if (opts_.cache_enabled) {
        cache_ = std::make_unique<ResultCache>(
            opts_.cache_dir, opts_.cache_max_bytes);
    }
    if (opts_.cache_gc) {
        // One-shot eviction pass, honored even when caching is off
        // for this run: `--cache-gc --no-cache` prunes a directory
        // without touching it otherwise.
        if (cache_) {
            cache_->gc();
        } else {
            ResultCache(opts_.cache_dir, opts_.cache_max_bytes).gc();
        }
    }
}

Engine::~Engine() = default;

ThreadPool &
Engine::pool()
{
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_) {
        // Bound the waiting-task backlog to a few rounds per worker:
        // grids can be huge and closures capture whole Experiments.
        pool_ = std::make_unique<ThreadPool>(
            opts_.jobs, static_cast<size_t>(opts_.jobs) * 4);
    }
    return *pool_;
}

SimResult
Engine::execute_point(const Experiment &ex, bool &degraded)
{
    degraded = false;
    if (opts_.point_timeout_ms > 0) {
        Experiment budgeted = ex;
        budgeted.base.wall_budget_ms = opts_.point_timeout_ms;
        try {
            return budgeted.run();
        } catch (const SimTimeoutError &) {
            degraded = true;
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            points_degraded_.fetch_add(1, std::memory_order_relaxed);
            return degraded_result(ex);
        }
    }
    return ex.run();
}

SimResult
Engine::run_point(const Experiment &ex)
{
    if (cache_ && !has_observers(ex)) {
        CacheKey key = cache_key_of(ex);
        if (auto hit = cache_->load(key)) {
            points_cached_.fetch_add(1, std::memory_order_relaxed);
            return std::move(*hit);
        }
        bool degraded = false;
        SimResult r = execute_point(ex, degraded);
        if (!degraded) {
            cache_->store(key, r);
            points_run_.fetch_add(1, std::memory_order_relaxed);
        }
        return r;
    }
    bool degraded = false;
    SimResult r = execute_point(ex, degraded);
    if (!degraded)
        points_run_.fetch_add(1, std::memory_order_relaxed);
    return r;
}

SimResult
Engine::run(const Experiment &ex)
{
    return run_point(ex);
}

std::vector<SimResult>
Engine::run_all_processes(const std::vector<Experiment> &points,
                          const Progress &progress)
{
    std::vector<SimResult> out(points.size());

    // The parent keeps its historical duties: cache consultation and
    // observer points (whose side effects would be lost in a child)
    // stay on the calling thread; only plain simulation work is
    // shipped to the fleet.
    std::vector<size_t> todo;
    todo.reserve(points.size());
    std::vector<CacheKey> keys(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        const Experiment &ex = points[i];
        if (cache_ && !has_observers(ex)) {
            keys[i] = cache_key_of(ex);
            if (auto hit = cache_->load(keys[i])) {
                if (progress)
                    progress(ex);
                out[i] = std::move(*hit);
                points_cached_.fetch_add(
                    1, std::memory_order_relaxed);
                continue;
            }
        }
        if (has_observers(ex)) {
            if (progress)
                progress(ex);
            out[i] = ex.run();
            points_run_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        todo.push_back(i);
    }

    if (!todo.empty()) {
        Supervisor::Config cfg;
        cfg.workers = static_cast<unsigned>(
            std::min<size_t>(opts_.workers, todo.size()));
        cfg.point_timeout_ms = opts_.point_timeout_ms;
        Supervisor sup(points, cfg);
        std::vector<Supervisor::Outcome> outcomes =
            sup.run(todo, progress);

        for (size_t k = 0; k < todo.size(); ++k) {
            size_t i = todo[k];
            Supervisor::Outcome &o = outcomes[k];
            if (o.kind == Supervisor::Outcome::Kind::Ok) {
                if (cache_ && !has_observers(points[i]))
                    cache_->store(keys[i], o.result);
                out[i] = std::move(o.result);
                points_run_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            out[i] = degraded_result(points[i]);
            points_degraded_.fetch_add(1,
                                       std::memory_order_relaxed);
        }

        const SupervisorStats &ss = sup.stats();
        timeouts_.fetch_add(ss.timeouts, std::memory_order_relaxed);
        worker_crashes_.fetch_add(ss.crashes,
                                  std::memory_order_relaxed);
        worker_respawns_.fetch_add(ss.respawns,
                                   std::memory_order_relaxed);
    }
    return out;
}

std::vector<SimResult>
Engine::run_all(const std::vector<Experiment> &points,
                const Progress &progress)
{
    if (opts_.workers >= 1 && points.size() > 1)
        return run_all_processes(points, progress);

    std::vector<SimResult> out(points.size());

    if (opts_.jobs <= 1 || points.size() <= 1) {
        // Serial fast path: historical semantics, caller's thread.
        for (size_t i = 0; i < points.size(); ++i) {
            if (progress)
                progress(points[i]);
            out[i] = run_point(points[i]);
        }
        return out;
    }

    // Parallel: each task computes into its serial slot, so waiting
    // on the futures in any order yields the deterministic merge.
    std::atomic<uint64_t> progress_calls{0};
    std::vector<std::future<void>> done;
    done.reserve(points.size());
    ThreadPool &tp = pool();
    for (size_t i = 0; i < points.size(); ++i) {
        const Experiment &ex = points[i];
        SimResult *slot = &out[i];
        done.push_back(tp.submit([this, &ex, slot, &progress,
                                  &progress_calls] {
            if (progress) {
                progress(ex); // worker thread; see header contract
                progress_calls.fetch_add(1,
                                         std::memory_order_relaxed);
            }
            *slot = run_point(ex);
        }));
    }
    for (auto &f : done)
        f.get();
    // One callback per point, no more, no fewer — catches progress
    // wrappers that swallow or double-fire under concurrency.
    SGMS_ASSERT(!progress ||
                progress_calls.load() == points.size());
    return out;
}

std::vector<SimResult>
Engine::run_sweep(const SweepSpec &spec, const Progress &progress)
{
    return run_all(expand_sweep(spec), progress);
}

ExecStats
Engine::stats() const
{
    ExecStats s;
    s.points_run = points_run_.load(std::memory_order_relaxed);
    s.points_cached = points_cached_.load(std::memory_order_relaxed);
    s.points_degraded =
        points_degraded_.load(std::memory_order_relaxed);
    s.points_total =
        s.points_run + s.points_cached + s.points_degraded;
    s.timeouts = timeouts_.load(std::memory_order_relaxed);
    s.worker_crashes =
        worker_crashes_.load(std::memory_order_relaxed);
    s.worker_respawns =
        worker_respawns_.load(std::memory_order_relaxed);
    s.proc_workers = opts_.workers;
    {
        std::lock_guard<std::mutex> lock(pool_mutex_);
        if (pool_) {
            s.pool = pool_->stats();
            s.workers = pool_->worker_count();
        }
    }
    if (cache_)
        s.cache = cache_->stats();
    return s;
}

std::vector<obs::MetricSample>
Engine::metrics_snapshot() const
{
    ExecStats s = stats();
    obs::MetricsRegistry reg;
    reg.counter("exec.points_run").inc(s.points_run);
    reg.counter("exec.points_cached").inc(s.points_cached);
    reg.counter("exec.cache_stores").inc(s.cache.stores);
    reg.counter("exec.cache_decode_failures")
        .inc(s.cache.decode_failures);
    reg.counter("exec.cache_evictions").inc(s.cache.evictions);
    reg.counter("exec.points_degraded").inc(s.points_degraded);
    reg.counter("exec.timeouts").inc(s.timeouts);
    reg.counter("exec.worker_crashes").inc(s.worker_crashes);
    reg.counter("exec.worker_respawns").inc(s.worker_respawns);
    reg.counter("exec.tasks_stolen").inc(s.pool.stolen);
    reg.gauge("exec.pool_workers").set(s.workers);
    reg.gauge("exec.proc_workers").set(s.proc_workers);
    reg.gauge("exec.queue_peak")
        .set(static_cast<double>(s.pool.peak_queued));
    return reg.snapshot();
}

Engine &
Engine::shared()
{
    static Engine engine(ExecOptions::from_env());
    return engine;
}

} // namespace sgms::exec
