/**
 * @file
 * A serially-occupied pipeline stage (CPU, DMA engine, or wire link).
 *
 * Work items queue at the stage and are served one at a time; among
 * queued items, higher priority wins (FIFO within a priority level).
 * This is what produces both congestion delay and the cross-message
 * pipelining that the paper's Figure 2 shows: message 2's server DMA
 * runs while message 1 occupies the wire, because they are different
 * resources.
 *
 * An item is plain data and no callable travels with it. Its
 * completion is a typed event on the stage (argument: the preemption
 * generation it began in) and then one direct call,
 * Sink::stage_done, into the stage's sink: the Network, which chains
 * the message to its next stage or delivers it, or a test's log
 * (tests/stage_log.h), which drives the discipline on its own.
 */

#ifndef SGMS_NET_RESOURCE_H
#define SGMS_NET_RESOURCE_H

#include <cstdint>
#include <queue>
#include <vector>

#include "common/types.h"
#include "net/params.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"

namespace sgms
{

/**
 * One pipeline stage; serves queued work items in priority order.
 *
 * @tparam Sink receives every completion as
 *         sink.stage_done(slot, stage, start, end): the occupancy
 *         [start, end) of the item submitted with @p slot and
 *         @p stage has completed.
 */
template <typename Sink> class StageResource final : public EventTarget
{
  public:
    /**
     * @param sink       receives every completion
     * @param preemption when true, a higher-priority submission
     *        preempts an in-flight background/putpage occupancy
     *        (ATM-cell-interleaving approximation); the preempted
     *        remainder is requeued.
     */
    StageResource(EventQueue &eq, Sink &sink, Component comp,
                  NodeId node, bool preemption = false,
                  obs::Tracer *tracer = nullptr)
        : eq_(eq), sink_(sink), comp_(comp), node_(node), tracer_(tracer),
          preemption_(preemption)
    {}

    StageResource(const StageResource &) = delete;
    StageResource &operator=(const StageResource &) = delete;

    /**
     * Submit a work item at simulated time @p now. If the stage is
     * idle it begins immediately; otherwise it queues.
     *
     * @param now      current simulated time
     * @param duration stage occupancy for this item
     * @param priority larger values served first among queued items
     * @param msg_id   message id, the id of its Net spans
     * @param kind     message kind, the name of its Net spans
     * @param slot     the sink's handle for the message
     * @param stage    the message's pipeline stage, passed back
     */
    void
    submit(Tick now, Tick duration, int priority, uint64_t msg_id,
           MsgKind kind, uint32_t slot, uint8_t stage = 0)
    {
        if (busy_ && preemption_ && priority > cur_.priority &&
            preemptible(cur_.kind)) {
            // Preempt the in-flight background item: requeue its
            // remaining occupancy (keeping its original arrival order
            // within its priority level) and start the demand item.
            // This models ATM cell interleaving: a small demand
            // transfer's cells pass a large background transfer in
            // progress.
            Tick remaining = busy_until_ - now;
            SGMS_ASSERT(remaining >= 0); // callers submit at current time
            total_busy_ -= remaining; // re-added when it resumes
            // The part already served is occupancy too; the remainder
            // records its own interval when it completes.
            record(cur_, cur_start_, now);
            ++generation_; // orphan the scheduled completion
            Item rest = cur_;
            rest.duration = remaining;
            queue_.push(rest);
            busy_ = false;
        }

        if (busy_) {
            queue_.push(
                Item{duration, seq_++, msg_id, priority, slot, stage, kind});
            return;
        }
        // Idle: the item starts in place.
        cur_ = Item{duration, seq_++, msg_id, priority, slot, stage, kind};
        begin(now);
    }

    /** True if currently serving an item. */
    bool busy() const { return busy_; }

    /** Time the current item completes (valid only when busy). */
    Tick busy_until() const { return busy_until_; }

    /** Items served to completion so far. */
    uint64_t completed() const { return completed_; }

    /** Total occupancy ticks accumulated across served items. */
    Tick total_busy() const { return total_busy_; }

  private:
    struct Item
    {
        Tick duration;
        uint64_t seq;
        uint64_t msg_id;
        int priority;
        uint32_t slot;
        uint8_t stage;
        MsgKind kind;
    };

    struct ItemLess
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            // priority_queue: "less" means a served after b.
            if (a.priority != b.priority)
                return a.priority < b.priority;
            return a.seq > b.seq;
        }
    };

    /** Begin serving cur_ at @p now and schedule its completion. */
    void
    begin(Tick now)
    {
        busy_ = true;
        cur_start_ = now;
        busy_until_ = now + cur_.duration;
        total_busy_ += cur_.duration;
        eq_.schedule(busy_until_, *this, generation_);
    }

    /**
     * The completion of the occupancy that began in @p generation.
     * A preemption orphans it, even when a later item ends on the
     * same tick: only the generation tells them apart.
     */
    void
    on_event(Tick, uint64_t generation) override
    {
        if (generation != generation_)
            return; // this occupancy was preempted; ignore
        busy_ = false;
        ++completed_;
        const Tick start = cur_start_;
        const Tick end = busy_until_;
        record(cur_, start, end);
        // The sink may submit new work here and restart the stage,
        // which overwrites cur_; only pull from the queue if still
        // idle.
        sink_.stage_done(cur_.slot, cur_.stage, start, end);
        if (!busy_ && !queue_.empty()) {
            cur_ = queue_.top();
            queue_.pop();
            begin(end);
        }
    }

    /** The Net span of a served interval of @p item. */
    void
    record(const Item &item, Tick start, Tick end)
    {
        if (end <= start)
            return;
        // One Net span per served interval: the track is the pipeline
        // component, the name the message kind.
        SGMS_TRACE_SPAN(tracer_, Net, msg_kind_name(item.kind),
                        component_name(comp_), start, end, item.msg_id,
                        static_cast<int64_t>(node_),
                        static_cast<int64_t>(item.kind));
    }

    /** Kinds that may be preempted by higher-priority traffic. */
    static bool
    preemptible(MsgKind kind)
    {
        return kind == MsgKind::BackgroundData || kind == MsgKind::PutPage;
    }

    EventQueue &eq_;
    Sink &sink_;
    Component comp_;
    NodeId node_;
    obs::Tracer *tracer_;
    bool preemption_;

    bool busy_ = false;
    Tick busy_until_ = 0;
    uint64_t seq_ = 0;
    uint64_t completed_ = 0;
    Tick total_busy_ = 0;
    uint64_t generation_ = 0;

    // The in-flight item and the time its occupancy began (valid
    // while busy_).
    Item cur_{};
    Tick cur_start_ = 0;

    std::priority_queue<Item, std::vector<Item>, ItemLess> queue_;
};

} // namespace sgms

#endif // SGMS_NET_RESOURCE_H
