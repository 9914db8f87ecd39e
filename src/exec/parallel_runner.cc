#include "exec/parallel_runner.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/logging.h"
#include "exec/supervisor.h"
#include "mem/page.h"
#include "policy/fetch_policy.h"
#include "trace/apps.h"
#include "trace/binfmt.h"

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
    return ex.base.tracer != nullptr;
}

/**
 * Stand-in result for a point the fleet could not finish (its worker
 * died on every attempt, or its blob did not decode). Identity fields
 * are filled from the spec alone — no footprint computation, the
 * point may be the very thing that crashes — all measurements stay
 * zero, and an `exec.degraded` counter marks it for downstream
 * consumers. Pure function of the experiment, so reruns stay
 * deterministic.
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

/**
 * References the point's trace holds, from the app model's declared
 * count or the SGMB header; no trace is generated. 0 for a trace the
 * point cannot name.
 */
uint64_t
trace_refs(const Experiment &ex)
{
    if (!ex.trace_bin.empty()) {
        BinTraceHeader hdr;
        std::string error;
        return read_bin_header(ex.trace_bin, hdr, error) ? hdr.ref_count
                                                         : 0;
    }
    const std::vector<std::string> &apps = app_names();
    if (std::find(apps.begin(), apps.end(), ex.app) == apps.end())
        return 0;
    return make_app_spec(ex.app, ex.scale).total_refs();
}

/** claim_order's cost estimate; see there. */
uint64_t
point_cost(const Experiment &ex)
{
    uint64_t refs = trace_refs(ex);
    std::unique_ptr<FetchPolicy> policy = try_make_fetch_policy(ex.policy);
    uint32_t page = ex.base.page_size;
    uint32_t sub = has_subpage_dimension(ex.policy) ? ex.subpage_size
                                                    : page;
    if (refs == 0 || !policy || !is_pow2(page) || !is_pow2(sub) ||
        sub > page || page / sub > 64)
        return 0;
    PageGeometry geo(page, sub);
    SubpageBitmap fresh;
    fresh.fill(geo.subpages_per_page());
    FetchPlan plan = policy->plan(geo, geo.subpages_per_page() / 2,
                                  sub / 2, fresh.raw());
    uint64_t messages = plan.from_disk ? 0 : 1 + plan.segments.size();
    return refs * std::max<uint32_t>(ex.clients, 1) * (1 + messages);
}

} // namespace

std::vector<size_t>
claim_order(const std::vector<Experiment> &points)
{
    std::vector<uint64_t> cost(points.size());
    for (size_t i = 0; i < points.size(); ++i)
        cost[i] = point_cost(points[i]);
    std::vector<size_t> order(points.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return cost[a] > cost[b]; });
    return order;
}

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
    if (opts_.cache_enabled)
        cache_ = std::make_unique<ResultCache>(opts_.cache_dir);
}

Engine::~Engine() = default;

SimResult
Engine::run_point(const Experiment &ex)
{
    if (cache_ && !has_observers(ex)) {
        CacheKey key = cache_key_of(ex);
        if (auto hit = cache_->load(key)) {
            points_cached_.fetch_add(1, std::memory_order_relaxed);
            return std::move(*hit);
        }
        SimResult r = ex.run();
        cache_->store(key, r);
        points_run_.fetch_add(1, std::memory_order_relaxed);
        return r;
    }
    SimResult r = ex.run();
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
    // shipped to the fleet, longest first (claim_order).
    std::vector<size_t> todo;
    todo.reserve(points.size());
    std::vector<CacheKey> keys(points.size());
    for (size_t i : claim_order(points)) {
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

    // Each worker claims the next index of the claim order and writes
    // its result into that point's slot, so the slots are the
    // deterministic merge. One worker runs the points in input order.
    size_t width = std::min<size_t>(opts_.jobs, points.size());
    std::vector<size_t> order(points.size());
    std::iota(order.begin(), order.end(), size_t{0});
    if (width > 1)
        order = claim_order(points);
    std::vector<SimResult> out(points.size());
    std::atomic<size_t> next{0};
    std::atomic<size_t> progress_calls{0};
    std::mutex error_mutex;
    std::exception_ptr error; // the first point that threw
    auto work = [&] {
        for (;;) {
            size_t k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= points.size())
                return;
            size_t i = order[k];
            try {
                if (progress) {
                    progress(points[i]);
                    progress_calls.fetch_add(
                        1, std::memory_order_relaxed);
                }
                out[i] = run_point(points[i]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                next.store(points.size(), std::memory_order_relaxed);
            }
        }
    };

    if (width <= 1) {
        work(); // caller's thread: the historical serial path
    } else {
        ran_threads_.store(true, std::memory_order_relaxed);
        // jthreads join on scope exit, also when a later spawn
        // throws, so no worker outlives out, next or error.
        std::vector<std::jthread> threads;
        threads.reserve(width);
        for (size_t t = 0; t < width; ++t)
            threads.emplace_back(work);
    }
    if (error)
        std::rethrow_exception(error);
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
    s.worker_crashes =
        worker_crashes_.load(std::memory_order_relaxed);
    s.worker_respawns =
        worker_respawns_.load(std::memory_order_relaxed);
    s.proc_workers = opts_.workers;
    if (ran_threads_.load(std::memory_order_relaxed))
        s.workers = opts_.jobs;
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
    reg.counter("exec.points_degraded").inc(s.points_degraded);
    reg.counter("exec.worker_crashes").inc(s.worker_crashes);
    reg.counter("exec.worker_respawns").inc(s.worker_respawns);
    reg.gauge("exec.pool_workers").set(s.workers);
    reg.gauge("exec.proc_workers").set(s.proc_workers);
    return reg.snapshot();
}

Engine &
Engine::shared()
{
    static Engine engine(ExecOptions::from_env());
    return engine;
}

} // namespace sgms::exec
