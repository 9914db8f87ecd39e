/**
 * @file
 * Memory-reference trace abstractions.
 *
 * The paper drives its simulator with ATOM-generated reference traces
 * of five applications. We model a trace as a stream of (address,
 * is-write) events; sources include files (for real traces) and the
 * synthetic application models in trace/apps.h.
 */

#ifndef SGMS_TRACE_TRACE_H
#define SGMS_TRACE_TRACE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace sgms
{

/** One memory reference. */
struct TraceEvent
{
    Addr addr = 0;
    bool write = false;
};

/**
 * Pack an event into one word, (addr << 1) | write: the SGMB record
 * (trace/binfmt.h), the trace store's in-memory word, and what
 * TraceSource::next_words hands out.
 */
inline uint64_t
pack_trace_event(const TraceEvent &ev)
{
    return (ev.addr << 1) | (ev.write ? 1u : 0u);
}

/** Unpack a packed word. */
inline TraceEvent
unpack_trace_event(uint64_t packed)
{
    return {packed >> 1, (packed & 1) != 0};
}

/** A restartable stream of trace events. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next event; false at end of trace. */
    virtual bool next(TraceEvent &ev) = 0;

    /**
     * Fill @p out with up to @p n events; returns the number
     * produced (0 only at end of trace, for n > 0). A source pays one
     * virtual dispatch per batch, not per reference; sources with
     * cheap bulk access override it.
     */
    virtual size_t
    next_batch(TraceEvent *out, size_t n)
    {
        size_t got = 0;
        while (got < n && next(out[got]))
            ++got;
        return got;
    }

    /**
     * Hand out up to @p n of the next references as packed words
     * (pack_trace_event): point @p words at them and return how many
     * (0 only at end of trace, for n > 0). A source that holds packed
     * words points into its own immutable array, with no copy; the
     * default packs next_batch() output into @p scratch, which must
     * hold @p n words. The words stay valid until the next call on
     * this source. The simulator's reference loop reads its trace
     * through this call (DESIGN.md §13).
     */
    virtual size_t next_words(const uint64_t *&words, uint64_t *scratch,
                              size_t n);

    /** Rewind to the beginning. */
    virtual void reset() = 0;

    /**
     * Discard the next @p n events (stopping early at end of trace).
     * The generic implementation reads and drops batches; sources
     * with random access override it with an O(1) cursor move, which
     * is what makes per-client rotated cursors over one shared trace
     * cheap (multi-client kernel, DESIGN.md §15).
     */
    virtual void
    skip(uint64_t n)
    {
        TraceEvent scratch[256];
        while (n > 0) {
            size_t want =
                n < 256 ? static_cast<size_t>(n) : size_t{256};
            size_t got = next_batch(scratch, want);
            if (got == 0)
                return;
            n -= got;
        }
    }

    /** Expected number of events (0 if unknown). */
    virtual uint64_t size_hint() const { return 0; }
};

/** In-memory trace, mainly for tests and tiny examples. */
class VectorTrace : public TraceSource
{
  public:
    VectorTrace() = default;
    explicit VectorTrace(std::vector<TraceEvent> events)
        : events_(std::move(events))
    {}

    /**
     * Materialize @p src into memory, honoring its size_hint to
     * avoid growth reallocations on load. @p src is left rewound.
     */
    explicit VectorTrace(TraceSource &src)
    {
        events_.reserve(src.size_hint());
        src.reset();
        TraceEvent ev;
        while (src.next(ev))
            events_.push_back(ev);
        src.reset();
    }

    /** Pre-size for @p n pushes. */
    void reserve(size_t n) { events_.reserve(n); }

    void
    push(Addr addr, bool write = false)
    {
        events_.push_back({addr, write});
    }

    bool
    next(TraceEvent &ev) override
    {
        if (pos_ >= events_.size())
            return false;
        ev = events_[pos_++];
        return true;
    }

    size_t
    next_batch(TraceEvent *out, size_t n) override
    {
        size_t avail = events_.size() - pos_;
        size_t got = n < avail ? n : avail;
        for (size_t i = 0; i < got; ++i)
            out[i] = events_[pos_ + i];
        pos_ += got;
        return got;
    }

    void reset() override { pos_ = 0; }

    void
    skip(uint64_t n) override
    {
        uint64_t avail = events_.size() - pos_;
        pos_ += static_cast<size_t>(n < avail ? n : avail);
    }

    uint64_t size_hint() const override { return events_.size(); }

    const std::vector<TraceEvent> &events() const { return events_; }

  private:
    std::vector<TraceEvent> events_;
    size_t pos_ = 0;
};

/**
 * A view of another trace rotated left by @p offset references: it
 * yields [offset, L) then wraps to [0, offset), so every client of a
 * multi-client run streams the same L references but starts at a
 * different phase of the program. Offset 0 is a pass-through. The
 * rotation relies on an exact size_hint from the base source; when
 * the base cannot report its length the trace degrades to a plain
 * pass-through (offset forced to 0).
 */
class RotatedTrace : public TraceSource
{
  public:
    RotatedTrace(std::unique_ptr<TraceSource> base, uint64_t offset)
        : base_(std::move(base)), length_(base_->size_hint()),
          offset_(length_ ? offset % length_ : 0)
    {
        RotatedTrace::reset();
    }

    bool
    next(TraceEvent &ev) override
    {
        return next_batch(&ev, 1) == 1;
    }

    /**
     * The base's words, forwarded as they are. A window never spans
     * the wrap: the one that reaches the base's end is cut short, and
     * the next call starts again at the base's first word.
     */
    size_t
    next_words(const uint64_t *&words, uint64_t *scratch,
               size_t n) override
    {
        if (length_ == 0)
            return base_->next_words(words, scratch, n);
        uint64_t left = length_ - produced_;
        size_t want = n < left ? n : static_cast<size_t>(left);
        if (want == 0)
            return 0;
        size_t got = base_->next_words(words, scratch, want);
        if (got == 0 && !wrapped_) {
            wrapped_ = true;
            base_->reset();
            got = base_->next_words(words, scratch, want);
        }
        produced_ += got;
        return got;
    }

    size_t
    next_batch(TraceEvent *out, size_t n) override
    {
        if (length_ == 0)
            return base_->next_batch(out, n);
        size_t total = 0;
        while (total < n && produced_ < length_) {
            uint64_t left = length_ - produced_;
            size_t want = n - total < left
                              ? n - total
                              : static_cast<size_t>(left);
            size_t got = base_->next_batch(out + total, want);
            if (got == 0) {
                if (wrapped_)
                    break; // base shorter than its size_hint
                wrapped_ = true;
                base_->reset();
                continue;
            }
            total += got;
            produced_ += got;
        }
        return total;
    }

    void
    reset() override
    {
        base_->reset();
        base_->skip(offset_);
        wrapped_ = offset_ == 0;
        produced_ = 0;
    }

    uint64_t size_hint() const override
    {
        return length_ ? length_ : base_->size_hint();
    }

    uint64_t offset() const { return offset_; }

  private:
    std::unique_ptr<TraceSource> base_;
    uint64_t length_ = 0;
    uint64_t offset_ = 0;
    uint64_t produced_ = 0;
    bool wrapped_ = false;
};

/**
 * Count the distinct pages a trace touches (its footprint), used to
 * size the full / half / quarter memory configurations exactly as the
 * paper does ("the program is given as much memory as it needs").
 * Reads the trace through next_words(), so an address must leave the
 * top bit free, as every packed word does. Leaves @p trace rewound.
 */
uint64_t measure_footprint_pages(TraceSource &trace, uint32_t page_size);

} // namespace sgms

#endif // SGMS_TRACE_TRACE_H
