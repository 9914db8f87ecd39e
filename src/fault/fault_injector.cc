#include "fault/fault_injector.h"

#include <algorithm>

namespace sgms::fault
{

const char *
msg_fate_name(MsgFate f)
{
    switch (f) {
      case MsgFate::Deliver:
        return "deliver";
      case MsgFate::Drop:
        return "drop";
      case MsgFate::Corrupt:
        return "corrupt";
      case MsgFate::Duplicate:
        return "duplicate";
    }
    return "?";
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), enabled_(plan.enabled()),
      // Decorrelate the two streams: fates and jitter must not
      // change each other's sequences as retries come and go.
      fate_rng_(plan.seed), jitter_rng_(plan.seed ^ 0x9e3779b97f4a7c15ULL)
{}

MsgFate
FaultInjector::fate(Tick now, MsgKind kind, NodeId src, NodeId dst)
{
    if (!enabled_)
        return MsgFate::Deliver;
    if (server_down(src, now) || server_down(dst, now)) {
        ++dropped_;
        ++outage_drops_;
        return MsgFate::Drop;
    }
    size_t k = static_cast<size_t>(kind);
    // One draw per configured hazard, in a fixed order, so a message
    // kind's fate sequence does not depend on other kinds' settings.
    if (plan_.loss_prob[k] > 0.0 &&
        fate_rng_.chance(plan_.loss_prob[k])) {
        ++dropped_;
        return MsgFate::Drop;
    }
    if (plan_.corrupt_prob[k] > 0.0 &&
        fate_rng_.chance(plan_.corrupt_prob[k])) {
        ++corrupted_;
        return MsgFate::Corrupt;
    }
    if (plan_.duplicate_prob > 0.0 &&
        fate_rng_.chance(plan_.duplicate_prob)) {
        ++duplicated_;
        return MsgFate::Duplicate;
    }
    return MsgFate::Deliver;
}

bool
FaultInjector::server_down(NodeId node, Tick now) const
{
    for (const ServerOutage &o : plan_.outages) {
        if (o.server == node && o.covers(now))
            return true;
    }
    return false;
}

Tick
FaultInjector::recovery_time(NodeId node, Tick now) const
{
    Tick recover = now;
    for (const ServerOutage &o : plan_.outages) {
        if (o.server == node && o.covers(now))
            recover = std::max(recover, o.recover_at);
    }
    return recover;
}

} // namespace sgms::fault
