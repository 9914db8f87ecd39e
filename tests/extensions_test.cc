/**
 * @file
 * Tests for the extension features: adaptive pipelining (the paper's
 * future-work sequencing-by-likelihood).
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace sgms
