/**
 * @file
 * Tests for the staged network model, including the calibration
 * against the paper's Table 2 (page-fault latencies on the Alpha/AN2
 * prototype) — the central fidelity check of the whole reproduction.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/params.h"
#include "net/resource.h"
#include "net/timeline.h"
#include "sim/event_queue.h"
#include "stage_log.h"

namespace sgms
{
namespace
{

TEST(MsgKinds, EveryEnumeratorHasAName)
{
    // kMsgKindCount is derived from kLastMsgKind; anyone extending
    // the enum must extend msg_kind_name (and priority_of) with it.
    static_assert(kMsgKindCount ==
                  static_cast<size_t>(MsgKind::PutPage) + 1);
    std::set<std::string> names;
    for (size_t k = 0; k < kMsgKindCount; ++k) {
        const char *n = msg_kind_name(static_cast<MsgKind>(k));
        ASSERT_NE(n, nullptr);
        EXPECT_STRNE(n, "?") << "MsgKind " << k << " lacks a name";
        names.insert(n);
    }
    // Names are distinct (a copy-pasted duplicate would alias
    // per-kind metrics).
    EXPECT_EQ(names.size(), kMsgKindCount);
}

TEST(EventQueue, OrdersByTime)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreak)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(3); });
    eq.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, [&] { ++ran; });
    eq.schedule(20, [&] { ++ran; });
    eq.schedule(30, [&] { ++ran; });
    eq.run_until(20);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.next_time(), 30);
    eq.run_until(100);
    EXPECT_EQ(ran, 3);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.next_time(), TICK_MAX);
}

TEST(EventQueue, CallbackCanSchedule)
{
    EventQueue eq;
    std::vector<Tick> times;
    eq.schedule(1, [&] {
        times.push_back(1);
        eq.schedule(2, [&] { times.push_back(2); });
    });
    eq.run_all();
    EXPECT_EQ(times, (std::vector<Tick>{1, 2}));
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(StageResource, SerializesWork)
{
    EventQueue eq;
    test::StageLog log;
    StageResource res(eq, log, Component::Wire, 0, nullptr);
    res.submit(0, 100, 0, 1, MsgKind::DemandData, 1);
    res.submit(0, 50, 0, 2, MsgKind::DemandData, 2);
    eq.run_all();
    ASSERT_EQ(log.done.size(), 2u);
    EXPECT_EQ(log.done[0].start, 0);
    EXPECT_EQ(log.done[0].end, 100);
    EXPECT_EQ(log.done[1].start, 100);
    EXPECT_EQ(log.done[1].end, 150);
    EXPECT_EQ(res.completed(), 2u);
    EXPECT_EQ(res.total_busy(), 150);
}

TEST(StageResource, PriorityAmongQueued)
{
    EventQueue eq;
    test::StageLog log;
    StageResource res(eq, log, Component::Wire, 0, nullptr);
    res.submit(0, 100, 0, 1, MsgKind::BackgroundData, 1);
    // Both queued while item 1 runs; the high-priority one (3) must
    // be served before the earlier-submitted low-priority one (2).
    res.submit(0, 10, 0, 2, MsgKind::BackgroundData, 2);
    res.submit(0, 10, 5, 3, MsgKind::DemandData, 3);
    eq.run_all();
    EXPECT_EQ(log.slots(), (std::vector<uint32_t>{1, 3, 2}));
}

TEST(StageResource, RecordsTimeline)
{
    EventQueue eq;
    TimelineRecorder rec;
    test::StageLog log;
    StageResource res(eq, log, Component::SrvDma, 7, &rec);
    res.submit(5, 20, 0, 42, MsgKind::DemandData, /*slot=*/3,
               /*stage=*/1);
    eq.run_all();
    ASSERT_EQ(rec.entries().size(), 1u);
    const auto &e = rec.entries()[0];
    EXPECT_EQ(e.comp, Component::SrvDma);
    EXPECT_EQ(e.node, 7u);
    EXPECT_EQ(e.msg_id, 42u);
    EXPECT_EQ(e.start, 5);
    EXPECT_EQ(e.end, 25);
    // The completion hands back the slot and stage it was given.
    ASSERT_EQ(log.done.size(), 1u);
    EXPECT_EQ(log.done[0].slot, 3u);
    EXPECT_EQ(log.done[0].stage, 1u);
}

class NetworkFixture : public ::testing::Test
{
  protected:
    EventQueue eq;
    NetParams params = NetParams::an2();

    /**
     * Model a complete demand fetch of @p demand_bytes with an
     * optional background remainder of @p rest_bytes, as the
     * simulator performs it: fault-handle on the requester, request
     * message to the server, then the server responds with the
     * demand message (and immediately queues the rest).
     * Returns {demand arrival, rest arrival}.
     */
    std::pair<Tick, Tick>
    run_fetch(uint32_t demand_bytes, uint32_t rest_bytes)
    {
        EventQueue eq; // fresh queue: each fetch starts at time zero
        Network net(eq, params, /*requester=*/0);
        Tick demand_at = TICK_NONE, rest_at = TICK_NONE;
        Tick t0 = params.fault_handle;
        net.send(t0, {0, 1, params.request_bytes, MsgKind::Request,
                      false, [&](Tick when, Tick) {
                          // Server now sends the demand subpage and,
                          // for eager fullpage fetch, the remainder
                          // right behind it.
                          net.send(when,
                                   {1, 0, demand_bytes,
                                    MsgKind::DemandData, false,
                                    [&](Tick d, Tick) { demand_at = d; }});
                          if (rest_bytes) {
                              net.send(when,
                                       {1, 0, rest_bytes,
                                        MsgKind::BackgroundData, false,
                                        [&](Tick d, Tick) {
                                            rest_at = d;
                                        }});
                          }
                      }});
        eq.run_all();
        return {demand_at, rest_at};
    }
};

TEST_F(NetworkFixture, FullPageFetchMatchesPaper)
{
    // Paper Table 2: a full 8K page fault takes 1.48 ms.
    auto [arrival, rest] = run_fetch(8192, 0);
    EXPECT_NEAR(ticks::to_ms(arrival), 1.48, 0.10);
    EXPECT_EQ(rest, TICK_NONE);
}

/**
 * Paper Table 2 rows: size -> (subpage latency, rest-of-page).
 * `size` is 64-bit so the struct has no padding: each case is named
 * after the raw bytes of its row, and padding bytes are indeterminate.
 */
struct Table2Row
{
    uint64_t size;
    double subpage_ms;
    double rest_ms;
};

class Table2Calibration : public NetworkFixture,
                          public ::testing::WithParamInterface<Table2Row>
{};

TEST_P(Table2Calibration, MatchesWithin8Percent)
{
    const auto &row = GetParam();
    auto [sp, rest] = run_fetch(row.size, 8192 - row.size);
    EXPECT_NEAR(ticks::to_ms(sp), row.subpage_ms,
                row.subpage_ms * 0.08)
        << "subpage latency for " << row.size;
    EXPECT_NEAR(ticks::to_ms(rest), row.rest_ms, row.rest_ms * 0.08)
        << "rest-of-page latency for " << row.size;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, Table2Calibration,
    ::testing::Values(Table2Row{256, 0.45, 1.49},
                      Table2Row{512, 0.47, 1.46},
                      Table2Row{1024, 0.52, 1.38},
                      Table2Row{2048, 0.66, 1.25},
                      Table2Row{4096, 0.94, 1.23}));

TEST_F(NetworkFixture, SubpageLatencyMonotonicInSize)
{
    Tick prev = 0;
    for (uint32_t s : {256, 512, 1024, 2048, 4096, 8192}) {
        auto [sp, rest] = run_fetch(s, 0);
        EXPECT_GT(sp, prev) << "size " << s;
        prev = sp;
    }
}

TEST_F(NetworkFixture, SenderPipeliningBeatsSingleMessage)
{
    // Two 4K messages complete before one 8K message (Table 2:
    // rest-of-page 1.23 ms < fullpage 1.48 ms) because their stages
    // overlap.
    auto [sp_full, r0] = run_fetch(8192, 0);
    auto [sp4, rest4] = run_fetch(4096, 4096);
    (void)r0;
    (void)sp4;
    EXPECT_LT(rest4, sp_full);
}

TEST_F(NetworkFixture, OneKRestSlowerThanTwoK)
{
    // The paper's surprising result: with 1K subpages the *total*
    // page arrival is later than with 2K, because the small first
    // message leaves a "space on the wire".
    auto [sp1, rest1] = run_fetch(1024, 7168);
    auto [sp2, rest2] = run_fetch(2048, 6144);
    EXPECT_LT(sp1, sp2);
    EXPECT_GT(rest1, rest2);
}

TEST_F(NetworkFixture, AnalyticLatencyMatchesSimulatedIdle)
{
    // demand_fetch_latency() is the closed-form version of the idle
    // network path; the staged simulation must agree exactly.
    for (uint32_t s : {256u, 1024u, 8192u}) {
        auto [sp, rest] = run_fetch(s, 0);
        EXPECT_EQ(sp, params.demand_fetch_latency(s)) << s;
    }
}

TEST_F(NetworkFixture, StatsTrackKindsAndBytes)
{
    Network net(eq, params);
    net.send(0, {0, 1, 64, MsgKind::Request, false, nullptr});
    net.send(0, {1, 0, 1024, MsgKind::DemandData, false, nullptr});
    net.send(0, {1, 0, 7168, MsgKind::BackgroundData, false, nullptr});
    eq.run_all();
    const auto &st = net.stats();
    EXPECT_EQ(st.messages, 3u);
    EXPECT_EQ(st.bytes, 64u + 1024u + 7168u);
    EXPECT_EQ(st.messages_by_kind[static_cast<int>(MsgKind::Request)],
              1u);
    EXPECT_EQ(st.bytes_by_kind[static_cast<int>(MsgKind::DemandData)],
              1024u);
}

TEST_F(NetworkFixture, CongestionDelaysSecondFetch)
{
    // Two concurrent demand fetches from the same server contend on
    // every shared stage; the second must arrive later.
    Network net(eq, params);
    Tick a1 = 0, a2 = 0;
    net.send(0, {1, 0, 8192, MsgKind::DemandData, false,
                 [&](Tick d, Tick) { a1 = d; }});
    net.send(0, {1, 0, 8192, MsgKind::DemandData, false,
                 [&](Tick d, Tick) { a2 = d; }});
    eq.run_all();
    EXPECT_GT(a2, a1);
    // But thanks to pipelining it is much better than 2x serial.
    Tick serial = 2 * params.data_message_latency(8192);
    EXPECT_LT(a2, serial);
}

TEST_F(NetworkFixture, PipelinedRecvCostIsZeroByDefault)
{
    Network net(eq, params);
    Tick cost = -1;
    net.send(0, {1, 0, 1024, MsgKind::BackgroundData, true,
                 [&](Tick, Tick c) { cost = c; }});
    eq.run_all();
    EXPECT_EQ(cost, 0);
}

TEST_F(NetworkFixture, PrototypePipelinedRecvCostMatchesPaper)
{
    // Prototype AN2 controller: 68 us for a 256-byte pipelined
    // subpage, 91 us for 1K (section 4.3).
    params.pipelined_recv_fixed = ticks::from_us(60);
    params.pipelined_recv_per_byte = ticks::from_ns(31);
    Network net(eq, params);
    Tick c256 = 0, c1k = 0;
    net.send(0, {1, 0, 256, MsgKind::BackgroundData, true,
                 [&](Tick, Tick c) { c256 = c; }});
    net.send(0, {1, 0, 1024, MsgKind::BackgroundData, true,
                 [&](Tick, Tick c) { c1k = c; }});
    eq.run_all();
    EXPECT_NEAR(ticks::to_us(c256), 68, 2);
    EXPECT_NEAR(ticks::to_us(c1k), 91, 3);
}

TEST_F(NetworkFixture, TimelineCapturesAllComponents)
{
    TimelineRecorder rec;
    Network net(eq, params, 0, &rec);
    net.send(0, {1, 0, 8192, MsgKind::DemandData, false, nullptr});
    eq.run_all();
    bool seen[5] = {};
    for (const auto &e : rec.entries())
        seen[static_cast<int>(e.comp)] = true;
    EXPECT_TRUE(seen[static_cast<int>(Component::SrvCpu)]);
    EXPECT_TRUE(seen[static_cast<int>(Component::SrvDma)]);
    EXPECT_TRUE(seen[static_cast<int>(Component::Wire)]);
    EXPECT_TRUE(seen[static_cast<int>(Component::ReqDma)]);
    EXPECT_TRUE(seen[static_cast<int>(Component::ReqCpu)]);
}

TEST(NetParams, EthernetSlowerThanAtm)
{
    auto atm = NetParams::an2();
    auto eth = NetParams::ethernet();
    auto loaded = NetParams::loaded_ethernet();
    for (uint32_t s : {256u, 8192u}) {
        EXPECT_GT(eth.demand_fetch_latency(s),
                  atm.demand_fetch_latency(s));
        EXPECT_GT(loaded.demand_fetch_latency(s),
                  eth.demand_fetch_latency(s));
    }
}

TEST(NetParams, Figure1Crossover)
{
    // Figure 1: even Ethernet beats disk for very small transfers,
    // while loaded Ethernet is worse than disk for full pages.
    auto eth = NetParams::ethernet();
    auto loaded = NetParams::loaded_ethernet();
    auto disk = DiskParams::default_local();
    EXPECT_LT(eth.demand_fetch_latency(256), disk.access_latency(256));
    EXPECT_GT(loaded.demand_fetch_latency(8192),
              disk.access_latency(8192));
}

TEST(DiskParams, PaperLatencyRange)
{
    // "an average local disk access takes 4 to 14 ms on the same
    // system, depending on the nature of the access".
    EXPECT_NEAR(ticks::to_ms(DiskParams::sequential().access_latency(8192)),
                4.0, 0.5);
    EXPECT_NEAR(
        ticks::to_ms(DiskParams::random_access().access_latency(8192)),
        14.0, 0.5);
}

} // namespace
} // namespace sgms
