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
 * An event is either typed or a closure. A typed event is plain
 * data: a target and a 64-bit argument, fired as
 * target.on_event(when, arg). Every event the simulator schedules is
 * typed: stage completions (argument: the preemption generation) and
 * the kernel's fetch events — a request attempt, its timeout, a
 * degraded disk read (argument: the event kind and the plan slot) —
 * so the per-message hops move no callable. Closures (InlineFunction
 * small-buffer storage) stay the general API, used by tests and
 * benches.
 *
 * Layout (DESIGN.md §13): both kinds live in fixed-size pool slots,
 * 16-byte records for typed events and callback slots for closures,
 * each recycled through its own free list; ordering is one 4-ary heap
 * of 16-byte (when, seq|tag) records. Both kinds draw seq from one
 * counter, so FIFO tie-breaking between equal-time events holds
 * across kinds. Scheduling an event in steady state touches no
 * allocator: the slot comes from a free list and the record or
 * capture is constructed in place.
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

/** Receiver of typed events (EventQueue::schedule with a target). */
class EventTarget
{
  public:
    /** The event scheduled for @p when with argument @p arg fired. */
    virtual void on_event(Tick when, uint64_t arg) = 0;

  protected:
    ~EventTarget() = default;
};

/** Time-ordered event queue with FIFO tie-breaking. */
class EventQueue
{
  public:
    /**
     * Inline capture budget of a closure event. No simulator path
     * schedules closures; tests and benches capture up to 72 bytes.
     * Anything larger spills to a counted heap fallback instead of
     * failing.
     */
    static constexpr size_t kInlineCallbackBytes = 120;

    using Callback = InlineFunction<void(), kInlineCallbackBytes>;

    /** Schedule @p fn to run at absolute time @p when. */
    void
    schedule(Tick when, Callback fn)
    {
        uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            pool_[slot] = std::move(fn);
        } else {
            slot = static_cast<uint32_t>(pool_.size());
            pool_.push_back(std::move(fn));
        }
        push(when, slot, 0);
    }

    /**
     * Schedule a typed event: at absolute time @p when, call
     * @p target.on_event(when, @p arg). @p target must outlive the
     * event.
     */
    void
    schedule(Tick when, EventTarget &target, uint64_t arg)
    {
        uint32_t slot;
        if (!free_typed_.empty()) {
            slot = free_typed_.back();
            free_typed_.pop_back();
            typed_[slot] = Typed{&target, arg};
        } else {
            slot = static_cast<uint32_t>(typed_.size());
            typed_.push_back(Typed{&target, arg});
        }
        push(when, slot, TYPED);
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
        const Entry top = heap_[0];
        const uint32_t tag = top.tag();
        pop_root();
        last_popped_ = top.when;
        ++executed_;
        // Take the event out of its slot and free the slot before
        // running it: the event may schedule (growing a pool) or
        // recursively drain the queue.
        if (tag & TYPED) {
            const uint32_t slot = tag & SLOT_MASK;
            const Typed ev = typed_[slot];
            free_typed_.push_back(slot);
            ev.target->on_event(top.when, ev.arg);
        } else {
            Callback fn = std::move(pool_[tag]);
            free_.push_back(tag);
            fn();
        }
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

    /** Total events executed, typed and closure (stats / debugging). */
    uint64_t executed() const { return executed_; }

    /** High-water mark of closure pool slots. */
    size_t pool_capacity() const { return pool_.size(); }

  private:
    /**
     * The low TAG_BITS of an entry's second word: the slot, plus
     * TYPED when the slot is in typed_ rather than pool_.
     */
    static constexpr unsigned TAG_BITS = 24;
    static constexpr uint32_t TYPED = 1u << (TAG_BITS - 1);
    static constexpr uint32_t SLOT_MASK = TYPED - 1;

    /** A typed event's record: 16 bytes, no callable. */
    struct Typed
    {
        EventTarget *target;
        uint64_t arg;
    };
    static_assert(sizeof(Typed) == 16, "typed events stay compact");

    /** Heap record: 16 bytes, ordering state only (event in a pool). */
    struct Entry
    {
        Tick when;
        /**
         * (seq << TAG_BITS) | tag. seq increases monotonically over
         * both kinds, so comparing the packed word breaks when-ties
         * FIFO; the tag in the low bits never affects order between
         * distinct seqs.
         */
        uint64_t seq_tag;

        uint32_t
        tag() const
        {
            return static_cast<uint32_t>(seq_tag &
                                         ((1u << TAG_BITS) - 1));
        }

        bool
        before(const Entry &o) const
        {
            return when != o.when ? when < o.when
                                  : seq_tag < o.seq_tag;
        }
    };
    static_assert(sizeof(Entry) == 16, "heap entries stay compact");

    static constexpr size_t ARITY = 4;

    /** Enter the event in @p slot (@p kind: 0 or TYPED) at @p when. */
    void
    push(Tick when, uint32_t slot, uint32_t kind)
    {
        SGMS_ASSERT(when >= last_popped_);
        SGMS_ASSERT(slot < TYPED);
        heap_.push_back(Entry{when, (seq_++ << TAG_BITS) | slot | kind});
        sift_up(heap_.size() - 1);
    }

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
    std::vector<Typed> typed_;
    std::vector<uint32_t> free_typed_;
    uint64_t seq_ = 0;
    uint64_t executed_ = 0;
    Tick last_popped_ = 0;
};

} // namespace sgms

#endif // SGMS_SIM_EVENT_QUEUE_H
