/**
 * @file
 * Property tests for the staged network model: conservation (every
 * message is delivered exactly once; under injected faults, every
 * message of each kind is delivered, dropped, discarded as corrupt
 * or still in flight), resource exclusivity (no two
 * occupancies of one stage overlap), latency lower bounds, and the
 * preemption mechanics of demand priority.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "net/resource.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "stage_log.h"

namespace sgms
{
namespace
{

struct RandomTrafficResult
{
    uint64_t sent = 0;
    uint64_t delivered = 0;
    /** The Net spans of every stage occupancy. */
    std::vector<obs::Span> timeline;
    std::vector<Tick> delivery_times;
};

RandomTrafficResult
run_random_traffic(uint64_t seed, bool preemption, int messages)
{
    EventQueue eq;
    NetParams params = NetParams::an2();
    params.preemptive_demand = preemption;
    params.priority_scheduling = true;
    obs::Tracer tracer(1 << 14);
    Network net(eq, params, 0, &tracer);
    Rng rng(seed);

    RandomTrafficResult out;
    Tick now = 0;
    for (int i = 0; i < messages; ++i) {
        now += rng.below(ticks::from_us(200));
        eq.run_until(now);
        MsgKind kind;
        switch (rng.below(4)) {
          case 0:
            kind = MsgKind::Request;
            break;
          case 1:
            kind = MsgKind::DemandData;
            break;
          case 2:
            kind = MsgKind::BackgroundData;
            break;
          default:
            kind = MsgKind::PutPage;
            break;
        }
        NodeId src, dst;
        if (kind == MsgKind::Request || kind == MsgKind::PutPage) {
            src = 0;
            dst = 1 + static_cast<NodeId>(rng.below(3));
        } else {
            src = 1 + static_cast<NodeId>(rng.below(3));
            dst = 0;
        }
        uint32_t bytes =
            static_cast<uint32_t>(256 << rng.below(6)); // 256..8K
        ++out.sent;
        net.send(now, {src, dst, bytes, kind, false,
                       [&out](Tick d, Tick) {
                           ++out.delivered;
                           out.delivery_times.push_back(d);
                       }});
    }
    eq.run_all();
    EXPECT_EQ(tracer.dropped(), 0u);
    out.timeline = tracer.spans();
    return out;
}

class NetProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(NetProperty, EveryMessageDeliveredExactlyOnce)
{
    for (bool preempt : {false, true}) {
        auto r = run_random_traffic(GetParam(), preempt, 400);
        EXPECT_EQ(r.sent, 400u);
        EXPECT_EQ(r.delivered, r.sent)
            << "preemption=" << preempt;
    }
}

TEST_P(NetProperty, StageOccupanciesNeverOverlap)
{
    for (bool preempt : {false, true}) {
        auto r = run_random_traffic(GetParam(), preempt, 400);
        // Group Net spans by (component track, node); within each
        // resource, busy intervals must not overlap.
        std::map<std::pair<std::string, int64_t>, std::vector<obs::Span>>
            by_resource;
        for (const auto &e : r.timeline)
            by_resource[{e.track, e.arg0}].push_back(e);
        for (auto &[key, entries] : by_resource) {
            std::sort(entries.begin(), entries.end(),
                      [](const obs::Span &a, const obs::Span &b) {
                          return a.start < b.start;
                      });
            for (size_t i = 1; i < entries.size(); ++i) {
                EXPECT_GE(entries[i].start, entries[i - 1].end)
                    << "overlap on component " << key.first
                    << " node " << key.second << " preempt "
                    << preempt;
            }
        }
    }
}

TEST_P(NetProperty, DeliveriesRespectMinimumLatency)
{
    auto r = run_random_traffic(GetParam(), true, 200);
    NetParams p = NetParams::an2();
    // No message can be delivered faster than a 256-byte message on
    // an idle network (smallest payload used in the generator is
    // 256B except requests at 64B).
    Tick floor = p.send_cpu_data +
                 2 * (p.dma_fixed + p.dma_per_byte * 64) +
                 p.wire_fixed + p.wire_per_byte * 64;
    for (Tick d : r.delivery_times)
        EXPECT_GE(d, floor);
}

TEST_P(NetProperty, MessagesAreConservedPerKindUnderFaults)
{
    fault::FaultPlan plan;
    plan.seed = GetParam();
    plan.set_loss(0.1);
    plan.set_corrupt(0.05);
    plan.duplicate_prob = 0.05;
    fault::FaultInjector finj(plan);
    EventQueue eq;
    Network net(eq, NetParams::an2(), 0, nullptr, &finj);
    Rng rng(GetParam());
    uint64_t callbacks = 0;
    bool saw_in_flight = false;
    // Per kind: sent == delivered + dropped + corrupted + in flight.
    auto check = [&] {
        const MsgFates &f = net.fates();
        for (size_t k = 0; k < kMsgKindCount; ++k) {
            uint64_t live = net.in_flight(static_cast<MsgKind>(k));
            saw_in_flight = saw_in_flight || live > 0;
            EXPECT_EQ(net.stats().messages_by_kind[k],
                      f.delivered[k] + f.dropped[k] + f.corrupted[k] +
                          live)
                << "kind " << k;
        }
    };
    Tick now = 0;
    for (int i = 0; i < 400; ++i) {
        now += rng.below(ticks::from_us(50));
        eq.run_until(now);
        check();
        auto kind = static_cast<MsgKind>(rng.below(kMsgKindCount));
        net.send(now, {0, 1 + static_cast<NodeId>(rng.below(3)), 1024,
                       kind, false, [&](Tick, Tick) { ++callbacks; }});
    }
    check();
    eq.run_all();
    check();
    EXPECT_TRUE(saw_in_flight);
    uint64_t delivered = 0, dropped = 0, corrupted = 0;
    for (size_t k = 0; k < kMsgKindCount; ++k) {
        EXPECT_EQ(net.in_flight(static_cast<MsgKind>(k)), 0u);
        delivered += net.fates().delivered[k];
        dropped += net.fates().dropped[k];
        corrupted += net.fates().corrupted[k];
    }
    EXPECT_EQ(dropped, net.stats().dropped);
    EXPECT_EQ(corrupted, net.stats().corrupted);
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(corrupted, 0u);
    // Duplicates call back a second time but are not a second fate.
    EXPECT_GT(net.stats().duplicated, 0u);
    EXPECT_EQ(callbacks, delivered + net.stats().duplicated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetProperty,
                         ::testing::Values(1, 7, 42, 1234, 99999));

/** Per resource, the sum of the recorded busy intervals. */
Tick
recorded_busy(const obs::Tracer &tracer)
{
    Tick sum = 0;
    for (const obs::Span &e : tracer.spans())
        sum += e.duration();
    return sum;
}

TEST(Preemption, DemandPreemptsInFlightBackground)
{
    EventQueue eq;
    obs::Tracer tracer(16);
    test::StageLog log;
    StageResource res(eq, log, Component::Wire, 0, /*preemption=*/true,
                      &tracer);
    // Long background item starts at t=0 (duration 1000).
    res.submit(0, 1000, 0, 1, MsgKind::BackgroundData, 1);
    // Demand item arrives at t=100 with higher priority.
    eq.schedule(100, [&] {
        res.submit(100, 50, 2, 2, MsgKind::DemandData, 2);
    });
    eq.run_all();
    // Demand completes first at 150; background resumes and finishes
    // its remaining 900 at 1050.
    EXPECT_EQ(log.ends(), (std::vector<std::pair<uint32_t, Tick>>{
                              {2, 150}, {1, 1050}}));
    EXPECT_EQ(res.total_busy(), 1050);
    // The preempted item's served part [0, 100) is recorded too, so
    // the timeline accounts for every busy tick.
    const std::vector<obs::Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].id, 1u);
    EXPECT_EQ(spans[0].start, 0);
    EXPECT_EQ(spans[0].end, 100);
    EXPECT_EQ(recorded_busy(tracer), res.total_busy());
}

TEST(Preemption, DisabledMeansFifo)
{
    EventQueue eq;
    test::StageLog log;
    StageResource res(eq, log, Component::Wire, 0,
                      /*preemption=*/false);
    res.submit(0, 1000, 0, 1, MsgKind::BackgroundData, 1);
    eq.schedule(100, [&] {
        res.submit(100, 50, 2, 2, MsgKind::DemandData, 2);
    });
    eq.run_all();
    EXPECT_EQ(log.ends(), (std::vector<std::pair<uint32_t, Tick>>{
                              {1, 1000}, {2, 1050}}));
}

TEST(Preemption, DemandNeverPreemptsDemand)
{
    EventQueue eq;
    test::StageLog log;
    StageResource res(eq, log, Component::Wire, 0, true);
    res.submit(0, 1000, 2, 1, MsgKind::DemandData, 1);
    eq.schedule(100, [&] {
        res.submit(100, 50, 3, 2, MsgKind::Request, 2);
    });
    eq.run_all();
    // DemandData is not preemptible, so the in-flight item finishes.
    EXPECT_EQ(log.slots(), (std::vector<uint32_t>{1, 2}));
}

TEST(Preemption, RepeatedPreemptionResumesCorrectly)
{
    EventQueue eq;
    obs::Tracer tracer(16);
    test::StageLog log;
    StageResource res(eq, log, Component::Wire, 0, true, &tracer);
    res.submit(0, 1000, 0, 1, MsgKind::BackgroundData, 1);
    for (Tick t : {100, 300, 500}) {
        eq.schedule(t, [&, t] {
            res.submit(t, 50, 2, 10 + t, MsgKind::DemandData,
                       static_cast<uint32_t>(10 + t));
        });
    }
    eq.run_all();
    // Background did 100+150+150 before/between demands; total work
    // 1000 plus 150 of demand-induced delay => ends at 1150.
    EXPECT_EQ(log.ends(), (std::vector<std::pair<uint32_t, Tick>>{
                              {110, 150}, {310, 350}, {510, 550},
                              {1, 1150}}));
    EXPECT_EQ(recorded_busy(tracer), res.total_busy());
}

TEST(Preemption, StaleCompletionOnALiveTick)
{
    // A preempted item's completion event stays in the queue. Here it
    // falls on the very tick another item completes: only the
    // generation it carries, not its time, may tell the two apart.
    EventQueue eq;
    test::StageLog log;
    StageResource res(eq, log, Component::Wire, 0, true);
    // Background [0, 1000): its completion is scheduled for t=1000.
    res.submit(0, 1000, 0, 1, MsgKind::BackgroundData, 1);
    // Scheduled after that completion, for the same tick.
    size_t done_at_closure = 0;
    eq.schedule(1000, [&] { done_at_closure = log.done.size(); });
    // A 50-tick demand preempts the background at t=100; an 850-tick
    // demand queued at t=120 then runs [150, 1000), ending on the
    // tick of the background's stale completion.
    eq.schedule(100, [&] {
        res.submit(100, 50, 2, 2, MsgKind::DemandData, 2);
    });
    eq.schedule(120, [&] {
        res.submit(120, 850, 2, 3, MsgKind::DemandData, 3);
    });
    eq.run_all();
    // At t=1000 the stale completion fires first and is ignored, the
    // closure sees only the 50-tick demand done, and the 850-tick
    // demand completes after it, in its own event.
    EXPECT_EQ(done_at_closure, 1u);
    EXPECT_EQ(log.ends(), (std::vector<std::pair<uint32_t, Tick>>{
                              {2, 150}, {3, 1000}, {1, 1900}}));
    EXPECT_EQ(res.total_busy(), 1900);
}

TEST(Preemption, QueuedBackgroundResumeOrderStable)
{
    EventQueue eq;
    test::StageLog log;
    StageResource res(eq, log, Component::Wire, 0, true);
    res.submit(0, 100, 0, 1, MsgKind::BackgroundData, 1);
    res.submit(0, 100, 0, 2, MsgKind::BackgroundData, 2);
    eq.schedule(50, [&] {
        res.submit(50, 10, 2, 3, MsgKind::DemandData, 3);
    });
    eq.run_all();
    // Demand at 50 preempts item 1; item 1's remainder must resume
    // BEFORE item 2 (original arrival order).
    EXPECT_EQ(log.slots(), (std::vector<uint32_t>{3, 1, 2}));
}

} // namespace
} // namespace sgms
