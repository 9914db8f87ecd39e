/**
 * @file
 * Deterministic executor of a FaultPlan.
 *
 * The injector sits at two boundaries:
 *
 *  - Network::send asks fate() for each injected message. Drops take
 *    effect after the wire stage (the message burned sender CPU, DMA
 *    and wire time before vanishing); corruption after the receive
 *    stage (full delivery cost, payload discarded); duplicates
 *    deliver the same payload twice back-to-back.
 *
 *  - The simulator's server lookup asks server_down() before issuing
 *    a fetch, and any message to or from a node inside an outage
 *    window is dropped at injection.
 *
 * All randomness comes from two xoshiro256** streams seeded from the
 * plan (message fates and retry jitter), consumed in deterministic
 * event order — the same plan and seed reproduce the same run.
 */

#ifndef SGMS_FAULT_FAULT_INJECTOR_H
#define SGMS_FAULT_FAULT_INJECTOR_H

#include <cstdint>

#include "common/random.h"
#include "fault/fault_plan.h"

namespace sgms::fault
{

/** What happens to one injected message. */
enum class MsgFate : uint8_t
{
    Deliver,   ///< normal delivery
    Drop,      ///< lost after the wire stage; never delivered
    Corrupt,   ///< delivered but discarded by the receiver
    Duplicate, ///< delivered twice
};

const char *msg_fate_name(MsgFate f);

class FaultInjector
{
  public:
    /** @param plan the fault schedule to execute */
    explicit FaultInjector(const FaultPlan &plan);

    const FaultPlan &plan() const { return plan_; }

    /** True if the plan can ever inject anything. */
    bool enabled() const { return enabled_; }

    /**
     * Decide the fate of a message injected at @p now. Messages to
     * or from a node currently inside an outage window are dropped
     * unconditionally; otherwise the seeded per-kind probabilities
     * apply.
     */
    MsgFate fate(Tick now, MsgKind kind, NodeId src, NodeId dst);

    /** True if @p node is inside a scheduled outage at @p now. */
    bool server_down(NodeId node, Tick now) const;

    /**
     * When @p node is down at @p now, the time its current outage
     * ends (TICK_MAX if it never recovers); @p now itself otherwise.
     */
    Tick recovery_time(NodeId node, Tick now) const;

    /** Uniform [0,1) draw from the seeded jitter stream. */
    double jitter_draw() { return jitter_rng_.uniform(); }

    uint64_t dropped() const { return dropped_; }
    uint64_t corrupted() const { return corrupted_; }
    uint64_t duplicated() const { return duplicated_; }
    /** The drops (counted in dropped()) that an outage caused. */
    uint64_t outage_drops() const { return outage_drops_; }

  private:
    FaultPlan plan_;
    bool enabled_;
    Rng fate_rng_;
    Rng jitter_rng_;
    uint64_t dropped_ = 0;
    uint64_t corrupted_ = 0;
    uint64_t duplicated_ = 0;
    uint64_t outage_drops_ = 0;
};

} // namespace sgms::fault

#endif // SGMS_FAULT_FAULT_INJECTOR_H
