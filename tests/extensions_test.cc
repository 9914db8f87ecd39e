/**
 * @file
 * Tests for the extension features: adaptive pipelining (the paper's
 * future-work sequencing-by-likelihood) and the busy-cluster load
 * injector.
 */

#include <gtest/gtest.h>

#include "gms/cluster_load.h"
#include "policy/fetch_policy.h"
#include "sim/kernel.h"
#include "trace/trace.h"

namespace sgms
{
namespace
{

const PageGeometry GEO(8192, 1024);

TEST(AdaptivePolicy, FallsBackToDistanceOrderBeforeWarmup)
{
    AdaptivePipeliningPolicy pol(/*warmup=*/8);
    FetchPlan p = pol.plan(GEO, 3, 0, 0xff);
    ASSERT_EQ(p.segments.size(), 8u);
    // Same order as AllSubpages: 3, 4, 2, 5, 1, 6, 0, 7.
    std::vector<uint64_t> expect = {3, 4, 2, 5, 1, 6, 0, 7};
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(p.segments[i].subpage_mask, 1ULL << expect[i]);
}

TEST(AdaptivePolicy, LearnsDominantDistance)
{
    AdaptivePipeliningPolicy pol(/*warmup=*/8);
    // Workload in which the next touched subpage is faulted-2.
    for (int i = 0; i < 20; ++i)
        pol.observe_distance(-2);
    for (int i = 0; i < 3; ++i)
        pol.observe_distance(1);
    EXPECT_EQ(pol.observations(), 23u);
    EXPECT_EQ(pol.distance_count(-2), 20u);

    FetchPlan p = pol.plan(GEO, 4, 0, 0xff);
    // First pipelined segment must now be distance -2 (subpage 2),
    // second the +1 neighbour (subpage 5).
    ASSERT_GE(p.segments.size(), 3u);
    EXPECT_EQ(p.segments[0].subpage_mask, 1ULL << 4);
    EXPECT_EQ(p.segments[1].subpage_mask, 1ULL << 2);
    EXPECT_EQ(p.segments[2].subpage_mask, 1ULL << 5);
}

TEST(AdaptivePolicy, IgnoresOutOfRangeAndZeroDistances)
{
    AdaptivePipeliningPolicy pol;
    pol.observe_distance(0);
    pol.observe_distance(1000);
    pol.observe_distance(-1000);
    EXPECT_EQ(pol.observations(), 0u);
}

TEST(AdaptivePolicy, CoversAllMissingSubpages)
{
    AdaptivePipeliningPolicy pol(0);
    for (int i = 0; i < 10; ++i)
        pol.observe_distance(3);
    for (SubpageIndex f = 0; f < 8; ++f) {
        FetchPlan p = pol.plan(GEO, f, 0, 0xff);
        uint64_t covered = 0;
        for (const auto &seg : p.segments)
            covered |= seg.subpage_mask;
        EXPECT_EQ(covered, 0xffULL);
    }
}

TEST(AdaptivePolicy, SimulatorFeedsObservations)
{
    // Drive a simulator run whose next-subpage accesses are always
    // +2; the policy must see those observations.
    SimConfig cfg;
    cfg.policy = "pipelining-adaptive";
    cfg.subpage_size = 1024;
    VectorTrace t;
    for (int i = 0; i < 12; ++i) {
        t.push(i * 8192 + 1024);     // fault subpage 1
        t.push(i * 8192 + 3 * 1024); // then touch subpage 3 (+2)
    }
    Simulator sim(cfg);
    SimResult r = sim.run(t);
    EXPECT_EQ(r.page_faults, 12u);
    EXPECT_EQ(r.next_subpage_distance.count(2), 12u);
    // With learning, later faults pipeline +2 right after the demand
    // subpage, so late-fault page_waits shrink relative to eager.
    SimConfig eager = cfg;
    eager.policy = "eager";
    auto t2 = t;
    SimResult re = Simulator(eager).run(t2);
    EXPECT_LT(r.page_wait, re.page_wait);
}

TEST(ClusterLoad, DisabledInjectsNothing)
{
    EventQueue eq;
    Network net(eq, NetParams::an2());
    ClusterLoad load(eq, net, ClusterLoadConfig{}, 4, 0);
    eq.run_until(ticks::from_ms(100));
    EXPECT_EQ(load.injected(), 0u);
    EXPECT_EQ(net.stats().messages, 0u);
}

TEST(ClusterLoad, InjectsAtConfiguredRate)
{
    EventQueue eq;
    Network net(eq, NetParams::an2());
    ClusterLoadConfig cfg;
    cfg.server_utilization = 0.5;
    ClusterLoad load(eq, net, cfg, 2, 0);
    // Run 100 ms of simulated time.
    eq.run_until(ticks::from_ms(100));
    // DMA work per fetch ~ 0.167 ms at 8K; at 50% utilization each
    // of 2 servers does ~0.1 s * 0.5 / 0.167 ms ~ 300 fetches.
    EXPECT_GT(load.injected(), 400u);
    EXPECT_LT(load.injected(), 800u);
    // Two messages per fetch (subpage + rest).
    EXPECT_EQ(net.stats().messages, 2 * load.injected());
}

TEST(ClusterLoad, SaturationRejected)
{
    EventQueue eq;
    Network net(eq, NetParams::an2());
    ClusterLoadConfig cfg;
    cfg.server_utilization = 0.99;
    EXPECT_DEATH({ ClusterLoad load(eq, net, cfg, 2, 0); },
                 "saturate");
}

TEST(ClusterLoad, SlowsRemoteFaultsInSimulator)
{
    VectorTrace t;
    for (int i = 0; i < 50; ++i)
        t.push(i * 8192);
    SimConfig idle;
    idle.policy = "eager";
    idle.subpage_size = 1024;
    SimConfig busy = idle;
    busy.cluster_load.server_utilization = 0.6;
    auto t2 = t;
    SimResult ri = Simulator(idle).run(t);
    SimResult rb = Simulator(busy).run(t2);
    EXPECT_GT(rb.runtime, ri.runtime);
    EXPECT_GT(rb.sp_latency, ri.sp_latency);
}

TEST(ClusterLoad, DeterministicForSeed)
{
    auto run = [](uint64_t seed) {
        VectorTrace t;
        for (int i = 0; i < 30; ++i)
            t.push(i * 8192);
        SimConfig cfg;
        cfg.policy = "eager";
        cfg.subpage_size = 1024;
        cfg.cluster_load.server_utilization = 0.4;
        cfg.cluster_load.seed = seed;
        Simulator sim(cfg);
        return sim.run(t).runtime;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

} // namespace
} // namespace sgms
