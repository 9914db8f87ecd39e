/**
 * @file
 * Discrete-event kernel for the SGMS simulator.
 *
 * Each trace-driven client program advances its own clock
 * reference-by-reference; the scheduler (sim/kernel.h) runs this
 * queue whenever simulated time passes an event, or whenever every
 * client is blocked waiting for a transfer. Everything
 * asynchronous — DMA stage completions, wire occupancy, message
 * deliveries — is an event.
 *
 * Layout (DESIGN.md §13): callbacks live in fixed-size pool slots
 * (InlineFunction small-buffer storage, recycled through a free
 * list), and ordering is a 4-ary heap of 16-byte (when, seq|slot)
 * records. Scheduling an event in steady state touches no allocator:
 * the slot comes from the free list and the capture is constructed
 * in place. FIFO tie-breaking between equal-time events is preserved
 * via the monotonically increasing sequence number.
 */

#ifndef SGMS_SIM_EVENT_QUEUE_H
#define SGMS_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/logging.h"
#include "common/types.h"

namespace sgms
{

/** Time-ordered event queue with FIFO tie-breaking. */
class EventQueue
{
  public:
    /**
     * Inline capture budget. Steady-state closures (stage
     * completions, a fault's request send, the reliability layer's
     * timers) take at most about 56 bytes; anything larger spills to
     * a counted heap fallback instead of failing.
     */
    static constexpr size_t kInlineCallbackBytes = 120;

    using Callback = InlineFunction<void(), kInlineCallbackBytes>;

    /** Schedule @p fn to run at absolute time @p when. */
    void
    schedule(Tick when, Callback fn)
    {
        SGMS_ASSERT(when >= last_popped_);
        uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            pool_[slot] = std::move(fn);
        } else {
            slot = static_cast<uint32_t>(pool_.size());
            pool_.push_back(std::move(fn));
        }
        SGMS_ASSERT(slot < (1u << SLOT_BITS));
        heap_.push_back(Entry{when, (seq_++ << SLOT_BITS) | slot});
        sift_up(heap_.size() - 1);
    }

    /** True if no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    size_t size() const { return heap_.size(); }

    /** Time of the next event, or TICK_MAX if none. */
    Tick
    next_time() const
    {
        return heap_.empty() ? TICK_MAX : heap_[0].when;
    }

    /**
     * Pop and run the next event; returns its time.
     * Must not be called on an empty queue.
     */
    Tick
    run_one()
    {
        SGMS_ASSERT(!heap_.empty());
        Entry top = heap_[0];
        uint32_t slot = top.slot();
        // Move the callback out of its slot before running: the
        // callback may schedule (growing the pool) or recursively
        // drain the queue.
        Callback fn = std::move(pool_[slot]);
        free_.push_back(slot);
        pop_root();
        last_popped_ = top.when;
        ++executed_;
        fn();
        return top.when;
    }

    /** Run all events with time <= @p now. */
    void
    run_until(Tick now)
    {
        while (!heap_.empty() && heap_[0].when <= now)
            run_one();
    }

    /** Drain every pending event; returns time of the last one run. */
    Tick
    run_all()
    {
        Tick last = last_popped_;
        while (!heap_.empty())
            last = run_one();
        return last;
    }

    /** Total events executed (for stats / debugging). */
    uint64_t executed() const { return executed_; }

    /** High-water mark of pool slots (fixed-size event records). */
    size_t pool_capacity() const { return pool_.size(); }

  private:
    static constexpr unsigned SLOT_BITS = 24;

    /** Heap record: 16 bytes, ordering state only (callback in pool). */
    struct Entry
    {
        Tick when;
        /**
         * (seq << SLOT_BITS) | slot. seq increases monotonically, so
         * comparing the packed word breaks when-ties FIFO; the slot
         * in the low bits never affects order between distinct seqs.
         */
        uint64_t seq_slot;

        uint32_t
        slot() const
        {
            return static_cast<uint32_t>(seq_slot &
                                         ((1u << SLOT_BITS) - 1));
        }

        bool
        before(const Entry &o) const
        {
            return when != o.when ? when < o.when
                                  : seq_slot < o.seq_slot;
        }
    };
    static_assert(sizeof(Entry) == 16, "heap entries stay compact");

    static constexpr size_t ARITY = 4;

    void
    sift_up(size_t i)
    {
        Entry e = heap_[i];
        while (i > 0) {
            size_t parent = (i - 1) / ARITY;
            if (!e.before(heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    void
    pop_root()
    {
        Entry last = heap_.back();
        heap_.pop_back();
        if (heap_.empty())
            return;
        // Sift the former tail down from the root.
        size_t i = 0;
        size_t n = heap_.size();
        for (;;) {
            size_t first_child = i * ARITY + 1;
            if (first_child >= n)
                break;
            size_t best = first_child;
            size_t end = std::min(first_child + ARITY, n);
            for (size_t c = first_child + 1; c < end; ++c) {
                if (heap_[c].before(heap_[best]))
                    best = c;
            }
            if (!heap_[best].before(last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }

    std::vector<Entry> heap_;
    std::vector<Callback> pool_;
    std::vector<uint32_t> free_;
    uint64_t seq_ = 0;
    uint64_t executed_ = 0;
    Tick last_popped_ = 0;
};

} // namespace sgms

#endif // SGMS_SIM_EVENT_QUEUE_H
