/**
 * @file
 * Golden snapshot tests: exact deterministic outputs of two fixed
 * configurations. These pin the simulator's end-to-end behaviour:
 * any change to the trace generators, the network model, the memory
 * system or the policies that alters results will trip them. If a
 * change is *intentional* (e.g. recalibration), update the numbers
 * and note it in the commit.
 */

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace sgms
{
namespace
{

TEST(Golden, GdbEager1KHalfMem)
{
    Experiment ex;
    ex.app = "gdb";
    ex.scale = 1.0;
    ex.seed = 7;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;
    SimResult r = ex.run();
    EXPECT_EQ(r.refs, 500000u);
    EXPECT_EQ(r.page_faults, 533u);
    // Regenerated 2026-08: the old golden (1909 messages / 6939968
    // bytes) predates dirty-page tracking on the write fast path and
    // was short exactly 35 putpage messages (35 * 8192 bytes = 286720;
    // per-kind counts are Request 533, DemandData 533, BackgroundData
    // 533, PutPage 345). refs/page_faults/runtime were unaffected.
    EXPECT_EQ(r.net_stats.messages, 1944u);
    EXPECT_EQ(r.net_stats.bytes, 7226688u);
    EXPECT_NEAR(ticks::to_ms(r.runtime), 562.12, 0.01);
}

TEST(Golden, Modula3Pipelining2KQuarterMem)
{
    Experiment ex;
    ex.app = "modula3";
    ex.scale = 0.1;
    ex.seed = 3;
    ex.policy = "pipelining";
    ex.subpage_size = 2048;
    ex.mem = MemConfig::Quarter;
    SimResult r = ex.run();
    EXPECT_EQ(r.refs, 8700000u);
    EXPECT_EQ(r.page_faults, 510u);
    EXPECT_EQ(r.net_stats.messages, 2659u);
    EXPECT_EQ(r.net_stats.bytes, 6791040u);
    EXPECT_NEAR(ticks::to_ms(r.runtime), 480.79, 0.01);
}

TEST(Golden, SingleFaultLatenciesExact)
{
    // The calibrated demand-fetch latencies, in exact ticks.
    NetParams p = NetParams::an2();
    EXPECT_EQ(p.demand_fetch_latency(1024), 546268800);  // 0.5463 ms
    EXPECT_EQ(p.demand_fetch_latency(8192), 1460905600); // 1.4609 ms
    EXPECT_EQ(p.demand_fetch_latency(256), 448272000);   // 0.4483 ms
}

} // namespace
} // namespace sgms
