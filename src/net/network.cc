#include "net/network.h"

#include <string>

#include "fault/fault_injector.h"

namespace sgms
{

Network::Network(EventQueue &eq, NetParams params, NodeId requester,
                 obs::Tracer *tracer, obs::MetricsRegistry *metrics,
                 fault::FaultInjector *faults)
    : eq_(eq), params_(params), requester_(requester), tracer_(tracer),
      faults_(faults)
{
    if (metrics) {
        c_messages_ = &metrics->counter("net.messages");
        c_bytes_ = &metrics->counter("net.bytes");
        for (size_t k = 0; k < kMsgKindCount; ++k) {
            c_by_kind_[k] = &metrics->counter(
                std::string("net.") +
                msg_kind_name(static_cast<MsgKind>(k)) + "_messages");
        }
    }
}

Network::Node::Node(Network &net, NodeId id, Component cpu_comp,
                    Component dma_comp)
    : cpu(net.eq_, net, cpu_comp, id, net.params_.preemptive_demand,
          net.tracer_),
      dma(net.eq_, net, dma_comp, id, net.params_.preemptive_demand,
          net.tracer_),
      wire(net.eq_, net, Component::Wire, id,
           net.params_.preemptive_demand, net.tracer_)
{}

Network::Node &
Network::node(NodeId id)
{
    if (id >= nodes_.size())
        nodes_.resize(id + 1);
    auto &slot = nodes_[id];
    if (!slot) {
        const bool req = id <= requester_;
        slot = std::make_unique<Node>(
            *this, id, req ? Component::ReqCpu : Component::SrvCpu,
            req ? Component::ReqDma : Component::SrvDma);
    }
    return *slot;
}

int
Network::priority_of(MsgKind kind) const
{
    if (!params_.priority_scheduling)
        return 0;
    switch (kind) {
      case MsgKind::Request:
        return 3;
      case MsgKind::DemandData:
        return 2;
      case MsgKind::PutPage:
        return 1;
      case MsgKind::BackgroundData:
        return 0;
    }
    return 0;
}

Tick
Network::recv_cpu_cost(const SendArgs &args) const
{
    switch (args.kind) {
      case MsgKind::Request:
        return params_.request_proc;
      case MsgKind::DemandData:
        return params_.recv_fixed + params_.recv_per_byte * args.bytes;
      case MsgKind::BackgroundData:
        if (args.pipelined_recv) {
            return params_.pipelined_recv_fixed +
                   params_.pipelined_recv_per_byte * args.bytes;
        }
        return params_.recv_fixed + params_.recv_per_byte * args.bytes;
      case MsgKind::PutPage:
        return params_.recv_fixed + params_.recv_per_byte * args.bytes;
    }
    return 0;
}

uint64_t
Network::in_flight(MsgKind kind) const
{
    uint64_t n = 0;
    for (const Msg &m : msgs_)
        n += m.live && m.kind == kind;
    return n;
}

void
Network::free_msg(uint32_t slot)
{
    msgs_[slot].live = false;
    free_msgs_.push_back(slot);
}

void
Network::submit_stage(uint32_t slot, uint8_t stage, Tick now)
{
    const Msg &m = msgs_[slot];
    m.path[stage]->submit(now, m.cost[stage], m.prio, m.id, m.kind, slot,
                          stage);
}

/**
 * Stage @p stage of the message in @p slot finished at @p end: submit
 * the next stage, or end the message (lost, discarded or delivered)
 * and free its slot.
 */
void
Network::stage_done(uint32_t slot, uint8_t stage, Tick, Tick end)
{
    Msg &m = msgs_[slot];
    const size_t k = static_cast<size_t>(m.kind);
    // Injected losses take effect after the wire stage: the message
    // burned sender CPU, DMA and wire time, then vanished.
    if (stage == 2 && m.fate == fault::MsgFate::Drop) {
        ++stats_.dropped;
        ++fates_.dropped[k];
        SGMS_TRACE_INSTANT(tracer_, Net, "drop", "faults", end, m.id,
                           static_cast<int64_t>(m.dst),
                           static_cast<int64_t>(m.kind));
        free_msg(slot);
        return;
    }
    if (stage < 4) {
        submit_stage(slot, stage + 1, end);
        return;
    }
    if (m.fate == fault::MsgFate::Corrupt) {
        // Full delivery cost paid, payload discarded by the receiver.
        ++stats_.corrupted;
        ++fates_.corrupted[k];
        SGMS_TRACE_INSTANT(tracer_, Net, "corrupt", "faults", end, m.id,
                           static_cast<int64_t>(m.dst),
                           static_cast<int64_t>(m.kind));
        free_msg(slot);
        return;
    }
    ++fates_.delivered[k];
    // The callback may send, which can reuse this slot or grow the
    // slab, so everything it needs leaves the slot first.
    DeliveryFn delivered = std::move(m.delivered);
    const Tick recv_cost = m.cost[4];
    const bool duplicate = m.fate == fault::MsgFate::Duplicate;
    const uint64_t id = m.id;
    const NodeId dst = m.dst;
    const MsgKind kind = m.kind;
    free_msg(slot);
    if (!delivered)
        return;
    delivered(end, recv_cost);
    if (duplicate) {
        // The same payload lands again back-to-back; the duplicate
        // costs no extra receive CPU in this model and must be
        // suppressed upstream.
        ++stats_.duplicated;
        SGMS_TRACE_INSTANT(tracer_, Net, "duplicate", "faults", end, id,
                           static_cast<int64_t>(dst),
                           static_cast<int64_t>(kind));
        delivered(end, 0);
    }
}

uint64_t
Network::send(Tick now, SendArgs args)
{
    uint64_t id = next_msg_id_++;
    ++stats_.messages;
    stats_.bytes += args.bytes;
    ++stats_.messages_by_kind[static_cast<int>(args.kind)];
    stats_.bytes_by_kind[static_cast<int>(args.kind)] += args.bytes;
    if (c_messages_) {
        c_messages_->inc();
        c_bytes_->inc(args.bytes);
        c_by_kind_[static_cast<int>(args.kind)]->inc();
    }

    uint32_t slot;
    if (!free_msgs_.empty()) {
        slot = free_msgs_.back();
        free_msgs_.pop_back();
    } else {
        slot = static_cast<uint32_t>(msgs_.size());
        msgs_.emplace_back();
    }
    Msg &m = msgs_[slot];
    m.id = id;
    m.kind = args.kind;
    m.fate = fault::MsgFate::Deliver;
    if (faults_ && faults_->enabled())
        m.fate = faults_->fate(now, args.kind, args.src, args.dst);
    m.prio = priority_of(args.kind);
    m.dst = args.dst;
    Node &src = node(args.src);
    Node &dst = node(args.dst);
    m.path[0] = &src.cpu;
    m.path[1] = &src.dma;
    m.path[2] = &dst.wire;
    m.path[3] = &dst.dma;
    m.path[4] = &dst.cpu;
    m.cost[0] = args.kind == MsgKind::Request ? params_.send_cpu_request
                                              : params_.send_cpu_data;
    m.cost[1] = params_.dma_fixed + params_.dma_per_byte * args.bytes;
    m.cost[2] = params_.wire_fixed + params_.wire_per_byte * args.bytes;
    m.cost[3] = m.cost[1];
    m.cost[4] = recv_cpu_cost(args);
    m.live = true;
    m.delivered = std::move(args.on_delivered);

    submit_stage(slot, 0, now);
    return id;
}

} // namespace sgms
