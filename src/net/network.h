/**
 * @file
 * The staged network model.
 *
 * A message from node S to node D passes through five serially-owned
 * resources: CPU(S) -> DMA(S) -> Wire(D's inbound link) -> DMA(D) ->
 * CPU(D). Each message occupies each stage store-and-forward, while
 * different messages overlap across stages; that reproduces both the
 * paper's Figure 2 pipelining and its "sender pipelining" effect
 * (two 4K messages complete before one 8K message).
 *
 * In-flight messages live in a slab owned by the Network and recycled
 * through an index free list. A send resolves the message's five
 * stages once into its slot (its stage path); a stage item names its
 * message by slab slot, and the stage's completion, a typed event,
 * calls the Network directly, which submits the item to the next
 * stage on the path or delivers. The delivery callback is the only
 * type-erased closure a message carries.
 */

#ifndef SGMS_NET_NETWORK_H
#define SGMS_NET_NETWORK_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "common/types.h"
#include "net/params.h"
#include "net/resource.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"

namespace sgms
{

namespace fault
{
class FaultInjector;
enum class MsgFate : uint8_t;
} // namespace fault

/** Aggregate traffic statistics kept by the network. */
struct NetStats
{
    uint64_t messages = 0;
    uint64_t bytes = 0;
    uint64_t messages_by_kind[kMsgKindCount] = {};
    uint64_t bytes_by_kind[kMsgKindCount] = {};
    /** Messages lost or discarded by fault injection. */
    uint64_t dropped = 0;
    uint64_t corrupted = 0;
    uint64_t duplicated = 0;
};

/**
 * How the messages sent so far ended, per kind. Kept apart from
 * NetStats (and so out of results) for the conservation identity:
 * per kind, sent == delivered + dropped + corrupted + in flight.
 * Duplicate deliveries are NetStats::duplicated and are not counted
 * here.
 */
struct MsgFates
{
    uint64_t delivered[kMsgKindCount] = {};
    uint64_t dropped[kMsgKindCount] = {};
    uint64_t corrupted[kMsgKindCount] = {};
};

/** Cluster interconnect plus per-node CPU/DMA contention model. */
class Network final
{
  public:
    /**
     * Called at delivery (end of the receive-CPU stage).
     * @p recv_cpu_cost is the receiver CPU time the message consumed,
     * which the simulator may charge to the program. Inline capacity
     * covers the simulator's delivery closures (run state, page
     * identity and one segment's mask and timing).
     */
    using DeliveryFn =
        InlineFunction<void(Tick delivered, Tick recv_cpu_cost), 80>;

    /** Parameters of one message injection. */
    struct SendArgs
    {
        NodeId src;
        NodeId dst;
        uint32_t bytes;
        MsgKind kind;
        /** Use the intelligent-controller receive cost. */
        bool pipelined_recv = false;
        /** Called at delivery; may be empty. */
        DeliveryFn on_delivered;
    };

    /**
     * @param eq        shared event queue
     * @param params    latency parameters
     * @param requester highest node a traced program runs on: nodes
     *                  0..requester are clients and label their
     *                  stages Req-CPU/Req-DMA, higher nodes are
     *                  servers (Srv-CPU/Srv-DMA); used only to name
     *                  the tracks of Net spans
     * @param tracer    optional span tracer (per-stage Net spans)
     * @param faults    optional fault injector; when set, each send
     *                  consults it for a message fate (drop on the
     *                  wire, corrupt on arrival, duplicate delivery)
     */
    Network(EventQueue &eq, NetParams params, NodeId requester = 0,
            obs::Tracer *tracer = nullptr,
            fault::FaultInjector *faults = nullptr);

    /** Inject a message at simulated time @p now; returns its id. */
    uint64_t send(Tick now, SendArgs args);

    const NetParams &params() const { return params_; }
    const NetStats &stats() const { return stats_; }
    const MsgFates &fates() const { return fates_; }

    /** Messages of @p kind still in flight: live slab slots. */
    uint64_t in_flight(MsgKind kind) const;

    /** A pipeline stage whose completions this network receives. */
    using Stage = StageResource<Network>;

    /** CPU of node @p id (lazily created). */
    Stage &cpu(NodeId id) { return node(id).cpu; }
    /** DMA engine of node @p id (lazily created). */
    Stage &dma(NodeId id) { return node(id).dma; }
    /** Inbound wire link of node @p id (lazily created). */
    Stage &wire_to(NodeId id) { return node(id).wire; }

  private:
    friend Stage; // calls stage_done

    /** A node's three stages, created together on first touch. */
    struct Node
    {
        Node(Network &net, NodeId id, Component cpu_comp,
             Component dma_comp);

        Stage cpu;
        Stage dma;
        Stage wire; ///< the node's inbound link
    };

    /** One in-flight message; a slab slot, live from send to its end. */
    struct Msg
    {
        uint64_t id = 0;
        /** The five stages, in pipeline order, resolved at send. */
        Stage *path[5] = {};
        /** Occupancy of the five stages, in pipeline order. */
        Tick cost[5] = {};
        NodeId dst = 0;
        int prio = 0;
        MsgKind kind = MsgKind::Request;
        fault::MsgFate fate{}; // Deliver
        bool live = false;
        DeliveryFn delivered;
    };

    /** The stages of node @p id, created on first touch. */
    Node &node(NodeId id);
    int priority_of(MsgKind kind) const;
    Tick recv_cpu_cost(const SendArgs &args) const;
    /** Submit stage @p stage of the message in @p slot at @p now. */
    void submit_stage(uint32_t slot, uint8_t stage, Tick now);
    void stage_done(uint32_t slot, uint8_t stage, Tick start, Tick end);
    void free_msg(uint32_t slot);

    EventQueue &eq_;
    NetParams params_;
    NodeId requester_;
    obs::Tracer *tracer_ = nullptr;
    fault::FaultInjector *faults_ = nullptr;
    NetStats stats_;
    MsgFates fates_;
    uint64_t next_msg_id_ = 1;

    // The message slab and its free slots. Steady-state sends reuse
    // slots, so a message costs no allocation.
    std::vector<Msg> msgs_;
    std::vector<uint32_t> free_msgs_;

    // Per-node stages, indexed directly by NodeId (ids are small and
    // dense: clients 0..requester_, then the servers). A node's
    // stages are created on first touch and never move, so a
    // message's path can point at them; a send looks up its two
    // nodes once.
    std::vector<std::unique_ptr<Node>> nodes_;
};

} // namespace sgms

#endif // SGMS_NET_NETWORK_H
