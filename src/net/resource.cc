#include "net/resource.h"

namespace sgms
{

void
StageResource::submit(Tick now, Tick duration, int priority,
                      uint64_t msg_id, MsgKind kind, uint32_t slot,
                      uint8_t stage)
{
    Item item{duration, seq_++, msg_id, priority, slot, stage, kind};

    if (busy_ && preemption_ && priority > cur_.priority &&
        preemptible(cur_.kind)) {
        // Preempt the in-flight background item: requeue its
        // remaining occupancy (keeping its original arrival order
        // within its priority level) and start the demand item. This
        // models ATM cell interleaving: a small demand transfer's
        // cells pass a large background transfer in progress.
        Tick remaining = busy_until_ - now;
        SGMS_ASSERT(remaining >= 0); // callers submit at current time
        total_busy_ -= remaining; // will be re-added when it resumes
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
        queue_.push(item);
        return;
    }
    start(now, item);
}

bool
StageResource::preemptible(MsgKind kind)
{
    return kind == MsgKind::BackgroundData || kind == MsgKind::PutPage;
}

void
StageResource::record(const Item &item, Tick start, Tick end)
{
    if (end <= start)
        return;
    if (recorder_)
        recorder_->record(comp_, node_, item.msg_id, item.kind, start, end);
    // One Net span per served interval: the track is the pipeline
    // component, the name the message kind.
    SGMS_TRACE_SPAN(tracer_, Net, msg_kind_name(item.kind),
                    component_name(comp_), start, end, item.msg_id,
                    static_cast<int64_t>(node_),
                    static_cast<int64_t>(item.kind));
}

void
StageResource::start(Tick now, const Item &item)
{
    busy_ = true;
    cur_ = item;
    cur_start_ = now;
    busy_until_ = now + item.duration;
    total_busy_ += item.duration;
    uint64_t gen = generation_;
    eq_.schedule(busy_until_, [this, gen] { complete(gen); });
}

void
StageResource::complete(uint64_t generation)
{
    if (generation != generation_)
        return; // this occupancy was preempted; ignore
    busy_ = false;
    ++completed_;
    Tick start = cur_start_;
    Tick end = busy_until_;
    record(cur_, start, end);
    // The sink may submit new work here and restart the stage, which
    // overwrites cur_; only pull from the queue if still idle.
    sink_.stage_done(cur_.slot, cur_.stage, start, end);
    if (!busy_ && !queue_.empty()) {
        Item next = queue_.top();
        queue_.pop();
        this->start(end, next);
    }
}

} // namespace sgms
