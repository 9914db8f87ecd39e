/**
 * @file
 * Tests for the staged network model, including the calibration
 * against the paper's Table 2 (page-fault latencies on the Alpha/AN2
 * prototype) — the central fidelity check of the whole reproduction —
 * and a closed-form single-fault oracle: plain stage arithmetic over
 * NetParams, with no event queue, checked against the Network, the
 * kernel's FaultRecord and Table 2.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/sim_config.h"
#include "net/network.h"
#include "net/params.h"
#include "net/resource.h"
#include "obs/tracer.h"
#include "policy/fetch_policy.h"
#include "sim/event_queue.h"
#include "sim/kernel.h"
#include "stage_log.h"
#include "trace/trace.h"

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
    StageResource res(eq, log, Component::Wire, 0);
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
    StageResource res(eq, log, Component::Wire, 0);
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
    obs::Tracer tracer(16);
    test::StageLog log;
    StageResource res(eq, log, Component::SrvDma, 7,
                      /*preemption=*/false, &tracer);
    res.submit(5, 20, 0, 42, MsgKind::DemandData, /*slot=*/3,
               /*stage=*/1);
    eq.run_all();
    // One Net span: track = component, arg0 = node, id = message,
    // name and arg1 = message kind.
    const std::vector<obs::Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    const obs::Span &e = spans[0];
    EXPECT_EQ(e.cat, obs::SpanCategory::Net);
    EXPECT_STREQ(e.track, component_name(Component::SrvDma));
    EXPECT_EQ(e.arg0, 7);
    EXPECT_EQ(e.id, 42u);
    EXPECT_STREQ(e.name, msg_kind_name(MsgKind::DemandData));
    EXPECT_EQ(e.arg1, static_cast<int64_t>(MsgKind::DemandData));
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
     * Model one fault's fetch as the simulator performs it:
     * fault-handle on the requester, request message to the server,
     * then the server sends every segment of @p segments
     * back-to-back (the first is the demand segment the program
     * blocks on). Returns each segment's arrival.
     */
    std::vector<Tick>
    run_plan(const SegmentList &segments)
    {
        EventQueue eq; // fresh queue: each fetch starts at time zero
        Network net(eq, params, /*requester=*/0);
        std::vector<Tick> at(segments.size(), TICK_NONE);
        Tick t0 = params.fault_handle;
        net.send(t0, {0, 1, params.request_bytes, MsgKind::Request,
                      false, [&](Tick when, Tick) {
                          for (size_t i = 0; i < segments.size(); ++i) {
                              const TransferSegment &seg = segments[i];
                              net.send(when,
                                       {1, 0, seg.bytes,
                                        seg.demand
                                            ? MsgKind::DemandData
                                            : MsgKind::BackgroundData,
                                        seg.pipelined_recv,
                                        [&at, i](Tick d, Tick) {
                                            at[i] = d;
                                        }});
                          }
                      }});
        eq.run_all();
        return at;
    }

    /**
     * A demand fetch of @p demand_bytes with an optional background
     * remainder of @p rest_bytes (eager fullpage fetch) right behind
     * it. Returns {demand arrival, rest arrival}.
     */
    std::pair<Tick, Tick>
    run_fetch(uint32_t demand_bytes, uint32_t rest_bytes)
    {
        SegmentList segments;
        segments.push_back({0, demand_bytes, true, false});
        if (rest_bytes)
            segments.push_back({0, rest_bytes, false, false});
        std::vector<Tick> at = run_plan(segments);
        return {at[0], rest_bytes ? at[1] : TICK_NONE};
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

const Table2Row kTable2[] = {
    {256, 0.45, 1.49},  {512, 0.47, 1.46},  {1024, 0.52, 1.38},
    {2048, 0.66, 1.25}, {4096, 0.94, 1.23},
};

INSTANTIATE_TEST_SUITE_P(PaperTable2, Table2Calibration,
                         ::testing::ValuesIn(kTable2));

// ---------------------------------------------------------------
// Closed-form single-fault oracle
// ---------------------------------------------------------------

/**
 * The five stage costs of a message, in pipeline order, restated
 * from NetParams alone: send CPU, DMA, wire, DMA, receive CPU.
 */
std::array<Tick, 5>
oracle_stages(const NetParams &p, MsgKind kind, uint32_t bytes,
              bool pipelined_recv)
{
    const Tick dma = p.dma_fixed + p.dma_per_byte * bytes;
    const Tick wire = p.wire_fixed + p.wire_per_byte * bytes;
    if (kind == MsgKind::Request)
        return {p.send_cpu_request, dma, wire, dma, p.request_proc};
    const Tick recv =
        pipelined_recv
            ? p.pipelined_recv_fixed + p.pipelined_recv_per_byte * bytes
            : p.recv_fixed + p.recv_per_byte * bytes;
    return {p.send_cpu_data, dma, wire, dma, recv};
}

/** When the server has the request: fault handling plus its stages. */
Tick
oracle_request_done(const NetParams &p)
{
    Tick t = p.fault_handle;
    for (Tick c :
         oracle_stages(p, MsgKind::Request, p.request_bytes, false))
        t += c;
    return t;
}

/**
 * Arrival of every segment of @p plan on an idle network, sent
 * back-to-back when the request lands. Segments keep their send order
 * at every stage (the demand segment leads and the rest share one
 * priority), so this is a permutation flow shop: segment j leaves
 * stage k at C[j][k] = max(C[j-1][k], C[j][k-1]) + cost[j][k].
 */
std::vector<Tick>
oracle_arrivals(const NetParams &p, const FetchPlan &plan)
{
    std::array<Tick, 5> free_at{};
    free_at.fill(oracle_request_done(p));
    std::vector<Tick> arrivals;
    for (const TransferSegment &seg : plan.segments) {
        const auto cost =
            oracle_stages(p,
                          seg.demand ? MsgKind::DemandData
                                     : MsgKind::BackgroundData,
                          seg.bytes, seg.pipelined_recv);
        Tick t = 0;
        for (size_t k = 0; k < 5; ++k) {
            t = std::max(t, free_at[k]) + cost[k];
            free_at[k] = t;
        }
        arrivals.push_back(t);
    }
    return arrivals;
}

/**
 * Idle-network demand latency of @p plan: fault handling, the
 * request's five stages, then the demand segment's five.
 */
Tick
oracle_demand_latency(const NetParams &p, const FetchPlan &plan)
{
    const TransferSegment &demand = plan.segments[0];
    Tick t = oracle_request_done(p);
    for (Tick c : oracle_stages(p, MsgKind::DemandData, demand.bytes,
                                demand.pipelined_recv))
        t += c;
    return t;
}

struct OracleCase
{
    const char *policy;
    Table2Row row;
};

/** Names each case, e.g. "eager_1024", in place of its raw bytes. */
void
PrintTo(const OracleCase &c, std::ostream *os)
{
    *os << c.policy << "_" << c.row.size;
}

class SingleFaultOracle : public NetworkFixture,
                          public ::testing::WithParamInterface<OracleCase>
{};

TEST_P(SingleFaultOracle, MatchesKernelNetworkAndTable2)
{
    const OracleCase &c = GetParam();
    const uint32_t size = static_cast<uint32_t>(c.row.size);
    const PageGeometry geo(8192, size);
    const uint32_t n = geo.subpages_per_page();
    const uint64_t all = n >= 64 ? ~0ULL : (1ULL << n) - 1;
    // The fault of a one-reference trace at address 0: subpage 0.
    const FetchPlan plan =
        make_fetch_policy(c.policy)->plan(geo, 0, 0, all);
    ASSERT_FALSE(plan.from_disk);
    const Tick demand = oracle_demand_latency(params, plan);
    const std::vector<Tick> arrivals = oracle_arrivals(params, plan);
    EXPECT_EQ(arrivals.front(), demand);

    // The kernel's stall on the demand segment, tick for tick.
    SimConfig cfg;
    cfg.policy = c.policy;
    cfg.subpage_size = size;
    cfg.net = params;
    VectorTrace trace;
    trace.push(0, false);
    SimResult r = Simulator(cfg).run(trace);
    ASSERT_EQ(r.faults.size(), 1u);
    EXPECT_EQ(r.faults[0].sp_wait, demand);

    // The event-driven Network, driven as Table2Calibration drives
    // it, tick for tick for every segment; the last is the
    // rest-of-page arrival.
    EXPECT_EQ(run_plan(plan.segments), arrivals);
    if (std::string(c.policy) == "eager") {
        // Eager's plan is Table 2's shape: subpage, then the rest.
        ASSERT_EQ(plan.segments.size(), 2u);
        auto [sp, rest] = run_fetch(size, 8192 - size);
        EXPECT_EQ(sp, demand);
        EXPECT_EQ(rest, arrivals.back());
    }

    // The paper's Table 2: a full page takes 1.48 ms, a subpage its
    // row's latency, within the calibration's 8%.
    const double paper_ms = std::string(c.policy) == "fullpage"
                                ? 1.48
                                : c.row.subpage_ms;
    EXPECT_NEAR(ticks::to_ms(demand), paper_ms, paper_ms * 0.08);
}

std::vector<OracleCase>
oracle_cases()
{
    std::vector<OracleCase> cases;
    for (const char *policy : {"fullpage", "eager", "pipelining"}) {
        for (const Table2Row &row : kTable2)
            cases.push_back({policy, row});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(PoliciesBySubpage, SingleFaultOracle,
                         ::testing::ValuesIn(oracle_cases()));

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
    obs::Tracer tracer(16);
    Network net(eq, params, 0, &tracer);
    net.send(0, {1, 0, 8192, MsgKind::DemandData, false, nullptr});
    eq.run_all();
    bool seen[5] = {};
    for (const obs::Span &e : tracer.spans()) {
        for (int c = 0; c < 5; ++c) {
            if (std::string(e.track) ==
                component_name(static_cast<Component>(c)))
                seen[c] = true;
        }
    }
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
