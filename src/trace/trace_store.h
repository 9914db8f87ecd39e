/**
 * @file
 * Process-wide store of replayable synthetic traces.
 *
 * A sweep runs the same (app, scale, seed) trace under dozens of
 * configurations, and with `--jobs` several threads replay it at
 * once. Regenerating the trace per point costs about as much as
 * simulating it (the generator draws 2-3 RNG samples per reference),
 * so the store serves each trace from one immutable copy and hands
 * out cheap per-point cursors. Two tiers:
 *
 *  - **mapped tier** (SGMS_TRACE_DIR set): the trace is baked once
 *    into a content-named SGMB file in the directory (atomic
 *    tmp+rename, like exec::ResultCache blobs) and subsequently
 *    mmap'd (trace/mmap_trace.h). Process start is an open+mmap
 *    instead of a generation pass, traces bigger than RAM replay
 *    through the page cache, forked worker fleets (--workers=N)
 *    share one physical copy, and a later process reuses the bake.
 *    Mapped bytes are file-backed and evictable by the kernel, so
 *    they do NOT count against the heap budget below; they are
 *    reported separately as TraceStoreStats::mapped_bytes.
 *
 *  - **heap tier** (default): the trace is materialized once per
 *    process into an immutable shared buffer, bounded by a
 *    cumulative byte budget (SGMS_TRACE_STORE_MAX_MB, default 256);
 *    traces that would exceed it fall back to streaming generation
 *    per point.
 *
 * Each (app, scale, seed) is stored once per process (common/
 * once_map.h): concurrent requesters of one key wait for one bake or
 * materialization, and different keys bake and generate side by side,
 * outside any lock the others need. The heap tier reserves a trace's
 * bytes against its budget before generating it, so concurrent
 * generations never overrun the budget together.
 *
 * Lifetime rules (DESIGN.md §13-14): buffers and mappings are
 * immutable after creation; both tiers hand out ReplayTrace cursors
 * (trace/mmap_trace.h), which carry only their own position, so
 * concurrent replay from many threads needs no locking. Both tiers
 * hold the identical packed words ((addr << 1) | write,
 * trace/binfmt.h), so heap, mapped, and streamed replay are
 * byte-equivalent through full Experiment::run results (tested).
 */

#ifndef SGMS_TRACE_TRACE_STORE_H
#define SGMS_TRACE_TRACE_STORE_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace/mmap_trace.h"
#include "trace/trace.h"

namespace sgms
{

/**
 * An app trace ready to replay: a ReplayTrace cursor over the baked
 * file's mapping when the mapped tier is configured, or over the
 * shared heap buffer when the trace is (or can be) materialized
 * within budget, a streaming SyntheticTrace otherwise. Thread-safe;
 * concurrent callers of the same key block on one materialization,
 * callers of other keys do not. A key that streams keeps streaming
 * until trace_store_clear().
 */
std::unique_ptr<TraceSource>
make_stored_app_trace(const std::string &app, double scale,
                      uint64_t seed = 1);

/**
 * The content-addressed file the mapped tier uses for
 * (app, scale, seed) under @p dir. The name embeds the app and a
 * hash of (format version, app, scale, seed), so distinct traces
 * never collide and a format bump never aliases old bakes.
 */
std::string baked_trace_path(const std::string &dir,
                             const std::string &app, double scale,
                             uint64_t seed);

/**
 * Ensure (app, scale, seed) is baked under @p dir and return its
 * path. The bake streams the generator straight to disk (no heap
 * materialization, so bigger-than-RAM traces bake fine) into a temp
 * file renamed into place, so concurrent bakers and killed runs
 * never leave a half-written file under the live name. An existing
 * valid file is reused untouched; an invalid one (truncated copy,
 * foreign format) is re-baked over. fatal() on I/O errors.
 */
std::string bake_app_trace(const std::string &app, double scale,
                           uint64_t seed, const std::string &dir);

/** Store observability (tests, bench/sim_hotpath, bench/trace_io). */
struct TraceStoreStats
{
    /** Requests served from an already-materialized buffer or map. */
    uint64_t hits = 0;
    /** Requests that materialized or mapped a new trace. */
    uint64_t misses = 0;
    /** Requests that fell back to streaming generation. */
    uint64_t fallbacks = 0;
    /** Bytes held by heap-materialized buffers (budgeted). */
    uint64_t bytes = 0;
    /** Bytes mmap'd from baked files (file-backed, NOT budgeted). */
    uint64_t mapped_bytes = 0;
    /** Baked files written by this process. */
    uint64_t baked_files = 0;
    /** Baked files mapped (whether baked here or found on disk). */
    uint64_t mapped_files = 0;
};

TraceStoreStats trace_store_stats();

/**
 * Drop every stored trace (tests; not thread-safe vs. replayers). A
 * trace still being made when this runs is dropped once it is made.
 */
void trace_store_clear();

// Test/config hooks. Each overrides the corresponding environment
// variable (SGMS_TRACE_DIR / SGMS_TRACE_STORE_MAX_MB) for the rest
// of the process; they do not drop traces already stored (nor the
// decision that a key streams), so tests usually call
// trace_store_clear() alongside.

/** Set the mapped-tier directory; "" disables the mapped tier. */
void trace_store_set_dir(const std::string &dir);

/**
 * Set the heap-tier budget in bytes. 0 streams every trace the
 * mapped tier does not serve (the pre-store behavior).
 */
void trace_store_set_budget_bytes(uint64_t bytes);

/** The active mapped-tier directory ("" when disabled). */
std::string trace_store_dir();

} // namespace sgms

#endif // SGMS_TRACE_TRACE_STORE_H
