/**
 * @file
 * Low-overhead span tracing in simulated time.
 *
 * The Tracer records typed spans — fault lifetimes, per-message
 * network stage occupancies, GMS putpage/eviction activity, and
 * program block intervals — into a bounded ring buffer. Spans carry
 * simulated (not wall-clock) timestamps, so an exported trace is the
 * run's Figure-2 timeline at full resolution.
 *
 * Cost model: every instrumentation site goes through the
 * SGMS_TRACE_* macros, which cost a single null pointer test when no
 * Tracer is attached.
 *
 * Exports: Chrome trace_event JSON (chrome://tracing, Perfetto) and a
 * human-readable per-fault timeline dump (obs/chrome_trace.h).
 */

#ifndef SGMS_OBS_TRACER_H
#define SGMS_OBS_TRACER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sgms::obs
{

/** What a span describes; one Chrome trace category per value. */
enum class SpanCategory : uint8_t
{
    Fault,    ///< demand-fetch stall of one page/subpage fault
    PageWait, ///< later stall on a page's in-flight background data
    Block,    ///< any interval the traced program was blocked
    Net,      ///< one message's occupancy of one pipeline stage
    Gms,      ///< global-memory activity (putpage, discard, eviction)
    Policy,   ///< fetch-plan construction (instant)
};

constexpr size_t SPAN_CATEGORIES = 6;

const char *span_category_name(SpanCategory c);

/** One recorded span; `end == start` marks an instant event. */
struct Span
{
    /** Static event name (never freed; pass string literals). */
    const char *name = "";
    /** Static track (timeline row) name. */
    const char *track = "";
    Tick start = 0;
    Tick end = 0;
    /** Correlating id: fault id for fault spans, msg id for net. */
    uint64_t id = 0;
    /** Category-specific arguments (page id, bytes, ...). */
    int64_t arg0 = 0;
    int64_t arg1 = 0;
    SpanCategory cat = SpanCategory::Fault;

    Tick duration() const { return end - start; }
    bool instant() const { return end == start; }
};

/**
 * Bounded recorder of spans; oldest are dropped when full. The ring's
 * storage is reserved up front but a slot's memory is first touched
 * when a span is written into it, so a large ring costs resident
 * memory only for the spans a run records.
 */
class Tracer
{
  public:
    static constexpr size_t DEFAULT_CAPACITY = 1 << 20;

    /** @param capacity ring size in spans (>= 1). */
    explicit Tracer(size_t capacity = DEFAULT_CAPACITY);

    void
    record(SpanCategory cat, const char *name, const char *track,
           Tick start, Tick end, uint64_t id = 0, int64_t arg0 = 0,
           int64_t arg1 = 0)
    {
        ++count_by_cat_[static_cast<size_t>(cat)];
        const Span s{name, track, start, end, id, arg0, arg1, cat};
        if (ring_.size() < capacity_) {
            ring_.push_back(s); // within the reserve: no allocation
            return;
        }
        ring_[next_] = s;
        next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
        ++dropped_;
    }

    /** Instant-event shorthand. */
    void
    instant(SpanCategory cat, const char *name, const char *track,
            Tick at, uint64_t id = 0, int64_t arg0 = 0,
            int64_t arg1 = 0)
    {
        record(cat, name, track, at, at, id, arg0, arg1);
    }

    /** Retained spans, oldest first (start order within a track). */
    std::vector<Span> spans() const;

    /** Spans currently retained. */
    size_t size() const { return ring_.size(); }

    size_t capacity() const { return capacity_; }

    /** Spans lost to ring overflow since the last clear(). */
    uint64_t dropped() const { return dropped_; }

    /** Spans ever recorded in @p cat (including dropped ones). */
    uint64_t
    recorded(SpanCategory cat) const
    {
        return count_by_cat_[static_cast<size_t>(cat)];
    }

    void clear();

  private:
    std::vector<Span> ring_; ///< grows to capacity_, then wraps
    size_t capacity_;
    size_t next_ = 0; ///< oldest slot once the ring is full
    uint64_t dropped_ = 0;
    uint64_t count_by_cat_[SPAN_CATEGORIES] = {};
};

} // namespace sgms::obs

/** Instrumentation macros. `tr` is an `obs::Tracer *` (may be null). */
#define SGMS_TRACE_SPAN(tr, cat, name, track, start, end, ...)          \
    do {                                                                \
        if (tr) {                                                       \
            (tr)->record(::sgms::obs::SpanCategory::cat, name, track,   \
                         start, end, ##__VA_ARGS__);                    \
        }                                                               \
    } while (0)
#define SGMS_TRACE_INSTANT(tr, cat, name, track, at, ...)               \
    do {                                                                \
        if (tr) {                                                       \
            (tr)->instant(::sgms::obs::SpanCategory::cat, name, track,  \
                          at, ##__VA_ARGS__);                           \
        }                                                               \
    } while (0)

#endif // SGMS_OBS_TRACER_H
