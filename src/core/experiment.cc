#include "core/experiment.h"

#include <cstdlib>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "common/units.h"
#include "sim/kernel.h"
#include "trace/binfmt.h"
#include "trace/mmap_trace.h"
#include "trace/trace_store.h"

namespace sgms
{

const char *
mem_config_name(MemConfig m)
{
    switch (m) {
      case MemConfig::Full:
        return "full-mem";
      case MemConfig::Half:
        return "1/2-mem";
      case MemConfig::Quarter:
        return "1/4-mem";
    }
    return "?";
}

size_t
mem_pages_for(MemConfig mem, uint64_t footprint_pages)
{
    switch (mem) {
      case MemConfig::Full:
        return 0; // unlimited
      case MemConfig::Half:
        return std::max<size_t>(2, footprint_pages / 2);
      case MemConfig::Quarter:
        return std::max<size_t>(2, footprint_pages / 4);
    }
    return 0;
}

uint64_t
app_footprint_pages(const std::string &app, double scale,
                    uint32_t page_size)
{
    // Exec-engine workers hit this concurrently; the lock is held
    // across the measurement so the first caller of a key computes
    // it once and the rest wait for the memo instead of redundantly
    // streaming the same trace on every worker.
    static std::mutex mutex;
    static std::map<std::tuple<std::string, double, uint32_t>, uint64_t>
        cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto key = std::make_tuple(app, scale, page_size);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    // Route through the trace store: the default-seed trace this
    // measures is the one run() replays, so the materialization is
    // paid once for both.
    auto trace = make_stored_app_trace(app, scale);
    uint64_t fp = measure_footprint_pages(*trace, page_size);
    cache[key] = fp;
    return fp;
}

uint64_t
file_footprint_pages(const std::string &path, uint32_t page_size)
{
    // Same memo discipline as app_footprint_pages, keyed by content:
    // a path may be baked again with another trace (--trace-bin
    // files are named by their user), so the header's payload hash
    // identifies the measurement, not the path.
    BinTraceHeader hdr;
    std::string error;
    if (!read_bin_header(path, hdr, error))
        fatal("trace file '%s': %s", path.c_str(), error.c_str());
    static std::mutex mutex;
    static std::map<std::pair<uint64_t, uint32_t>, uint64_t> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto key = std::make_pair(hdr.payload_hash, page_size);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    auto trace = make_mapped_trace(path);
    uint64_t fp = measure_footprint_pages(*trace, page_size);
    cache[key] = fp;
    return fp;
}

std::string
Experiment::label() const
{
    if (policy == "disk")
        return "disk_" + std::to_string(base.page_size);
    if (policy == "fullpage")
        return "p_" + std::to_string(base.page_size);
    std::string l = "sp_" + std::to_string(subpage_size);
    if (policy != "eager")
        l += " (" + policy + ")";
    return l;
}

SimConfig
Experiment::config() const
{
    SimConfig cfg = base;
    cfg.policy = policy;
    if (policy == "disk" || policy == "fullpage")
        cfg.subpage_size = cfg.page_size;
    else
        cfg.subpage_size = subpage_size;
    uint64_t fp = trace_bin.empty()
                      ? app_footprint_pages(app, scale, cfg.page_size)
                      : file_footprint_pages(trace_bin, cfg.page_size);
    cfg.mem_pages = mem_pages_for(mem, fp);
    cfg.footprint_pages_hint = fp;
    if (clients > 1)
        cfg.clients = clients;
    return cfg;
}

std::unique_ptr<TraceSource>
Experiment::trace() const
{
    if (!trace_bin.empty())
        return make_mapped_trace(trace_bin);
    return make_stored_app_trace(app, scale, seed);
}

std::vector<std::unique_ptr<TraceSource>>
Experiment::client_traces(uint32_t n) const
{
    std::vector<std::unique_ptr<TraceSource>> out;
    out.reserve(n);
    out.push_back(trace());
    if (n <= 1)
        return out;
    uint64_t len = out[0]->size_hint();
    for (uint32_t c = 1; c < n; ++c) {
        // len*c/n in 64 bits is safe: traces are far below 2^54
        // events, so the product cannot overflow for any sane n.
        uint64_t offset = len ? len * c / n : 0;
        out.push_back(
            std::make_unique<RotatedTrace>(trace(), offset));
    }
    return out;
}

namespace
{

SimResult
run_with_config(const Experiment &ex, const SimConfig &cfg)
{
    auto traces = ex.client_traces(cfg.clients);
    std::vector<TraceSource *> ptrs;
    ptrs.reserve(traces.size());
    for (auto &t : traces)
        ptrs.push_back(t.get());
    return Simulator(cfg).run(ptrs);
}

} // namespace

SimResult
Experiment::run() const
{
    SimResult res = run_with_config(*this, config());
    res.app = app;
    return res;
}

SimResult
Experiment::run(const obs::ObsSession &obs) const
{
    SimConfig cfg = config();
    obs.configure(cfg);
    SimResult res = run_with_config(*this, cfg);
    res.app = app;
    obs.finish(res);
    return res;
}

double
scale_from_env(double fallback)
{
    const char *env = std::getenv("SGMS_SCALE");
    if (!env || !*env)
        return fallback;
    char *end = nullptr;
    double v = std::strtod(env, &end);
    if (end == env || v <= 0)
        fatal("bad SGMS_SCALE value '%s'", env);
    return v;
}

} // namespace sgms
