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
 * An item is plain data. Its completion is one call into the stage's
 * StageSink (the network), which chains the message to its next stage
 * or delivers it; no callable travels with the item.
 */

#ifndef SGMS_NET_RESOURCE_H
#define SGMS_NET_RESOURCE_H

#include <cstdint>
#include <queue>
#include <vector>

#include "common/types.h"
#include "net/params.h"
#include "net/timeline.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"

namespace sgms
{

/** Receiver of stage completions; the network is the only one. */
class StageSink
{
  public:
    /**
     * The occupancy [@p start, @p end) of stage @p stage of the
     * message in slot @p slot has completed (the values given to
     * StageResource::submit).
     */
    virtual void stage_done(uint32_t slot, uint8_t stage, Tick start,
                            Tick end) = 0;

  protected:
    ~StageSink() = default;
};

/** One pipeline stage; serves queued work items in priority order. */
class StageResource
{
  public:
    /**
     * @param sink       receives every completion
     * @param preemption when true, a higher-priority submission
     *        preempts an in-flight background/putpage occupancy
     *        (ATM-cell-interleaving approximation); the preempted
     *        remainder is requeued.
     */
    StageResource(EventQueue &eq, StageSink &sink, Component comp,
                  NodeId node, TimelineRecorder *recorder,
                  bool preemption = false, obs::Tracer *tracer = nullptr)
        : eq_(eq), sink_(sink), comp_(comp), node_(node),
          recorder_(recorder), tracer_(tracer), preemption_(preemption)
    {}

    /**
     * Submit a work item at simulated time @p now. If the stage is
     * idle it begins immediately; otherwise it queues.
     *
     * @param now      current simulated time
     * @param duration stage occupancy for this item
     * @param priority larger values served first among queued items
     * @param msg_id   message id for timeline capture
     * @param kind     message kind for timeline capture
     * @param slot     the sink's handle for the message
     * @param stage    the message's pipeline stage, passed back
     */
    void submit(Tick now, Tick duration, int priority, uint64_t msg_id,
                MsgKind kind, uint32_t slot, uint8_t stage = 0);

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

    void start(Tick now, const Item &item);
    void complete(uint64_t generation);
    /** Timeline entry and Net span for a served interval of @p item. */
    void record(const Item &item, Tick start, Tick end);

    /** Kinds that may be preempted by higher-priority traffic. */
    static bool preemptible(MsgKind kind);

    EventQueue &eq_;
    StageSink &sink_;
    Component comp_;
    NodeId node_;
    TimelineRecorder *recorder_;
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
