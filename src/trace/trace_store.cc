#include "trace/trace_store.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <tuple>

#include <unistd.h>

#include "common/logging.h"
#include "common/once_map.h"
#include "common/options.h"
#include "trace/apps.h"
#include "trace/binfmt.h"
#include "trace/mmap_trace.h"

namespace sgms
{

namespace
{

using TraceKey = std::tuple<std::string, double, uint64_t>;

struct Store
{
    // Every stored trace, heap or mapped, as a cursor at position 0
    // (each request gets a copy), or nullopt for one that streams.
    OnceMap<TraceKey, std::optional<ReplayTrace>> traces;

    // Guards the counters and the configuration below.
    std::mutex mutex;
    uint64_t bytes = 0;
    uint64_t mapped_bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t fallbacks = 0;
    uint64_t baked_files = 0;
    uint64_t mapped_files = 0;

    // Env-initialized, test-overridable configuration.
    std::optional<std::string> dir_override;
    std::optional<uint64_t> budget_override;
};

Store &
store()
{
    static Store s;
    return s;
}

// Callers of these two hold s.mutex.

std::string
store_dir(Store &s)
{
    return s.dir_override ? *s.dir_override
                          : env_string("SGMS_TRACE_DIR", "");
}

uint64_t
store_budget_bytes(Store &s)
{
    return s.budget_override
               ? *s.budget_override
               : env_u64("SGMS_TRACE_STORE_MAX_MB", 256) * 1024 * 1024;
}

std::shared_ptr<const PackedTrace>
materialize(const std::string &app, double scale, uint64_t seed)
{
    auto gen = make_app_trace(app, scale, seed);
    auto packed = std::make_shared<PackedTrace>();
    packed->reserve(gen->size_hint());
    TraceEvent batch[512];
    size_t n;
    while ((n = gen->next_batch(batch, 512)) > 0) {
        for (size_t i = 0; i < n; ++i) {
            // The top address bit carries the write flag; synthetic
            // (and any sane) traces never use it.
            SGMS_ASSERT(batch[i].addr < (1ULL << 63));
            packed->push_back((batch[i].addr << 1) |
                              (batch[i].write ? 1 : 0));
        }
    }
    return packed;
}

/**
 * An existing baked file is reusable only if its provenance matches
 * the request exactly; anything else (a stale copy under a colliding
 * name, a truncation) is re-baked over.
 */
bool
bake_matches(const BinTraceHeader &hdr, const std::string &app,
             double scale, uint64_t seed)
{
    // The header stores at most 15 name bytes.
    std::string app15 = app.substr(0, 15);
    return hdr.app == app15 && hdr.scale == scale && hdr.seed == seed;
}

/** Bake (app, scale, seed) to @p path via tmp+rename; fatal on I/O. */
void
bake_to(const std::string &app, double scale, uint64_t seed,
        const std::string &dir, const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cannot create trace directory '%s': %s", dir.c_str(),
              ec.message().c_str());
    static std::atomic<uint64_t> counter{0};
    std::string tmp = dir + "/.tmp." + std::to_string(::getpid()) +
                      "." + std::to_string(counter++) + ".sgmb";
    auto gen = make_app_trace(app, scale, seed);
    write_bin_trace(*gen, tmp, app, scale, seed);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("cannot rename baked trace into '%s'", path.c_str());
    }
}

/**
 * Serve (app, scale, seed) from the mapped tier: open a valid
 * existing bake or write one, map it, and account for it. Returns
 * nullptr (and warns) if the directory is unusable, in which case
 * the caller falls through to the heap tier.
 */
std::shared_ptr<const MappedTraceFile>
map_baked(Store &s, const std::string &app, double scale, uint64_t seed,
          const std::string &dir)
{
    std::string path = baked_trace_path(dir, app, scale, seed);

    BinTraceHeader hdr;
    std::string error;
    bool have = read_bin_header(path, hdr, error) &&
                bake_matches(hdr, app, scale, seed);
    if (!have) {
        bake_to(app, scale, seed, dir, path);
        std::lock_guard<std::mutex> lock(s.mutex);
        ++s.baked_files;
    }
    auto file = MappedTraceFile::try_open(path, error);
    if (!file) {
        warn("baked trace '%s' unusable (%s); falling back to the "
             "heap store",
             path.c_str(), error.c_str());
        return nullptr;
    }
    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.mapped_files;
    s.mapped_bytes += file->mapped_bytes();
    return file;
}

/**
 * Make the stored copy of (app, scale, seed), once per key and with
 * no lock held while baking or generating: a mapped bake, a heap
 * materialization, or nullopt when the trace must stream.
 */
std::optional<ReplayTrace>
load(Store &s, const std::string &app, double scale, uint64_t seed)
{
    // Mapped tier first: a bake costs one generation pass ever
    // (across processes), the mapping is shared physically with
    // workers, and mapped bytes are file-backed so the heap budget
    // does not apply.
    std::string dir = trace_store_dir();
    if (!dir.empty()) {
        if (auto file = map_baked(s, app, scale, seed, dir))
            return ReplayTrace(file);
    }

    // Heap tier. Size is known exactly up front (synthetic traces
    // declare their reference count), so the budget is reserved
    // before the expensive generation pass, and traces generated
    // side by side can never overrun it together. Only resident heap
    // materializations count against the budget.
    uint64_t need =
        make_app_spec(app, scale).total_refs() * sizeof(uint64_t);
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.bytes + need > store_budget_bytes(s))
            return std::nullopt;
        s.bytes += need;
    }
    auto packed = materialize(app, scale, seed);
    SGMS_ASSERT(packed->size() * sizeof(uint64_t) == need);
    return ReplayTrace(packed);
}

} // namespace

std::string
baked_trace_path(const std::string &dir, const std::string &app,
                 double scale, uint64_t seed)
{
    // Content-style naming (exec::ResultCache discipline): the hash
    // covers everything that determines the bytes, so a format bump
    // or a different scale/seed is a different file, never a stale
    // read.
    char meta[128];
    std::snprintf(meta, sizeof(meta), "sgmb|v%u|%.17g|%llu|",
                  kBinTraceVersion, scale,
                  static_cast<unsigned long long>(seed));
    uint64_t h = fnv1a_bytes(meta, std::strlen(meta));
    h = fnv1a_bytes(app.data(), app.size(), h);
    char name[160];
    std::snprintf(name, sizeof(name), "%s-%016llx.sgmb", app.c_str(),
                  static_cast<unsigned long long>(h));
    return dir + "/" + name;
}

std::string
bake_app_trace(const std::string &app, double scale, uint64_t seed,
               const std::string &dir)
{
    std::string path = baked_trace_path(dir, app, scale, seed);
    BinTraceHeader hdr;
    std::string error;
    if (read_bin_header(path, hdr, error) &&
        bake_matches(hdr, app, scale, seed))
        return path;
    bake_to(app, scale, seed, dir, path);
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.baked_files;
    return path;
}

std::unique_ptr<TraceSource>
make_stored_app_trace(const std::string &app, double scale,
                      uint64_t seed)
{
    Store &s = store();
    bool made = false;
    std::optional<ReplayTrace> stored =
        s.traces.get(std::make_tuple(app, scale, seed), [&] {
            made = true;
            return load(s, app, scale, seed);
        });
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (!stored)
            ++s.fallbacks;
        else if (made)
            ++s.misses;
        else
            ++s.hits;
    }
    if (!stored)
        return make_app_trace(app, scale, seed);
    return std::make_unique<ReplayTrace>(*stored);
}

TraceStoreStats
trace_store_stats()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    TraceStoreStats stats;
    stats.hits = s.hits;
    stats.misses = s.misses;
    stats.fallbacks = s.fallbacks;
    stats.bytes = s.bytes;
    stats.mapped_bytes = s.mapped_bytes;
    stats.baked_files = s.baked_files;
    stats.mapped_files = s.mapped_files;
    return stats;
}

void
trace_store_clear()
{
    Store &s = store();
    s.traces.clear();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.bytes = 0;
    s.mapped_bytes = 0;
}

void
trace_store_set_dir(const std::string &dir)
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.dir_override = dir;
}

void
trace_store_set_budget_bytes(uint64_t bytes)
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.budget_override = bytes;
}

std::string
trace_store_dir()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    return store_dir(s);
}

} // namespace sgms
