/**
 * @file
 * Content-addressed, on-disk cache of simulation results.
 *
 * Each experiment point is a pure function of its configuration, so
 * its SimResult can be keyed by content: a stable 128-bit FNV-1a
 * hash over a canonical fingerprint of the full SimConfig, the trace
 * identity (app model, scale, seed), and the result-schema version
 * (exec/result_codec.h). Any change to any behavioral field — a
 * different subpage size, another fault-plan seed, a bumped schema —
 * produces a different key, so stale blobs are simply never looked
 * up; there is no invalidation protocol.
 *
 * Blobs live as one JSON file per key under the cache directory
 * (default `.sgms-cache/`). Writes go to a unique temp file in the
 * same directory followed by an atomic rename, so a concurrent or
 * killed run can never leave a half-written blob under a live key;
 * a corrupted or truncated blob fails to decode and reads as a miss.
 * Any number of processes may share one directory: a blob is
 * immutable once renamed into place, and racing writers of one key
 * store equal bytes.
 *
 * The cache is unbounded and never deletes anything; a writer killed
 * between its write and its rename leaves a `*.tmp.*` file behind.
 * Delete the directory to reclaim its space.
 */

#ifndef SGMS_EXEC_RESULT_CACHE_H
#define SGMS_EXEC_RESULT_CACHE_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "core/experiment.h"
#include "core/sim_result.h"

namespace sgms::exec
{

/** 128-bit content hash, printable as 32 hex digits. */
struct CacheKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    std::string hex() const;

    bool
    operator==(const CacheKey &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
    bool operator!=(const CacheKey &o) const { return !(*this == o); }
};

/**
 * Canonical key=value fingerprint of everything that determines an
 * experiment's result. Exposed for tests and for `--explain-key`
 * style debugging; hash it with cache_key_of().
 */
std::string experiment_fingerprint(const Experiment &ex);

/** The cache key of @p ex (FNV-1a over its fingerprint). */
CacheKey cache_key_of(const Experiment &ex);

/** Hit/miss/store counts; all monotone over the cache's lifetime. */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;
    uint64_t decode_failures = 0; ///< corrupted blobs read as misses
};

class ResultCache
{
  public:
    /** @param dir blob directory, created lazily on first store. */
    explicit ResultCache(std::string dir);

    /**
     * Look up @p key. Missing file, undecodable blob, and I/O errors
     * all return nullopt; decode failures additionally count in
     * stats().decode_failures.
     */
    std::optional<SimResult> load(const CacheKey &key);

    /**
     * Persist @p r under @p key (atomic temp-file + rename). Failures
     * warn and continue: a cache that cannot write only costs speed.
     */
    void store(const CacheKey &key, const SimResult &r);

    /** Path the blob for @p key lives at (whether or not present). */
    std::string blob_path(const CacheKey &key) const;

    const std::string &dir() const { return dir_; }

    CacheStats stats() const;

  private:
    std::string dir_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> stores_{0};
    std::atomic<uint64_t> decode_failures_{0};
    std::atomic<uint64_t> tmp_counter_{0};
};

} // namespace sgms::exec

#endif // SGMS_EXEC_RESULT_CACHE_H
