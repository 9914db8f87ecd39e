/**
 * @file
 * Tests for fetch policies (section 2.1's design space).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "policy/fetch_policy.h"

namespace sgms
{
namespace
{

const PageGeometry GEO_1K(8192, 1024);  // 8 subpages
const PageGeometry GEO_2K(8192, 2048);  // 4 subpages
const PageGeometry GEO_FULL(8192, 8192); // 1 subpage

uint64_t
all_mask(const PageGeometry &geo)
{
    return (1ULL << geo.subpages_per_page()) - 1;
}

/** Sum of subpage masks across segments. */
uint64_t
covered(const FetchPlan &p)
{
    uint64_t m = 0;
    for (const auto &seg : p.segments)
        m |= seg.subpage_mask;
    return m;
}

TEST(DiskPolicy, WholePageFromDisk)
{
    DiskPolicy pol;
    FetchPlan p = pol.plan(GEO_1K, 3, 0, all_mask(GEO_1K));
    EXPECT_TRUE(p.from_disk);
    ASSERT_EQ(p.segments.size(), 1u);
    EXPECT_TRUE(p.segments[0].demand);
    EXPECT_EQ(p.segments[0].subpage_mask, all_mask(GEO_1K));
    EXPECT_EQ(p.total_bytes(), 8192u);
}

TEST(FullPagePolicy, SingleDemandTransfer)
{
    FullPagePolicy pol;
    FetchPlan p = pol.plan(GEO_1K, 5, 100, all_mask(GEO_1K));
    EXPECT_FALSE(p.from_disk);
    ASSERT_EQ(p.segments.size(), 1u);
    EXPECT_TRUE(p.segments[0].demand);
    EXPECT_EQ(p.total_bytes(), 8192u);
}

TEST(LazyPolicy, OnlyFaultedSubpage)
{
    LazySubpagePolicy pol;
    FetchPlan p = pol.plan(GEO_1K, 5, 0, all_mask(GEO_1K));
    ASSERT_EQ(p.segments.size(), 1u);
    EXPECT_EQ(p.segments[0].subpage_mask, 1ULL << 5);
    EXPECT_EQ(p.segments[0].bytes, 1024u);
    EXPECT_TRUE(p.segments[0].demand);
}

TEST(LazyPolicy, PartialMissingMask)
{
    LazySubpagePolicy pol;
    // Page already has subpages 0-3; faulting on 6.
    FetchPlan p = pol.plan(GEO_1K, 6, 0, 0xf0);
    ASSERT_EQ(p.segments.size(), 1u);
    EXPECT_EQ(p.segments[0].subpage_mask, 1ULL << 6);
}

TEST(EagerPolicy, DemandPlusRest)
{
    EagerFullpagePolicy pol;
    FetchPlan p = pol.plan(GEO_1K, 2, 0, all_mask(GEO_1K));
    ASSERT_EQ(p.segments.size(), 2u);
    EXPECT_TRUE(p.segments[0].demand);
    EXPECT_EQ(p.segments[0].subpage_mask, 1ULL << 2);
    EXPECT_EQ(p.segments[0].bytes, 1024u);
    EXPECT_FALSE(p.segments[1].demand);
    EXPECT_FALSE(p.segments[1].pipelined_recv);
    EXPECT_EQ(p.segments[1].subpage_mask,
              all_mask(GEO_1K) & ~(1ULL << 2));
    EXPECT_EQ(p.segments[1].bytes, 7 * 1024u);
    EXPECT_EQ(covered(p), all_mask(GEO_1K));
}

TEST(EagerPolicy, WholePageWhenSubpageEqualsPage)
{
    EagerFullpagePolicy pol;
    FetchPlan p = pol.plan(GEO_FULL, 0, 0, all_mask(GEO_FULL));
    ASSERT_EQ(p.segments.size(), 1u);
    EXPECT_EQ(p.total_bytes(), 8192u);
}

TEST(EagerPolicy, PartialMissingOnlyFetchesMissing)
{
    EagerFullpagePolicy pol;
    FetchPlan p = pol.plan(GEO_1K, 1, 0, 0x0f);
    EXPECT_EQ(covered(p), 0x0fULL);
    EXPECT_EQ(p.total_bytes(), 4 * 1024u);
}

TEST(PipeliningBasic, NeighborsThenRest)
{
    PipeliningPolicy pol(PipelineStrategy::NeighborsThenRest);
    FetchPlan p = pol.plan(GEO_1K, 3, 0, all_mask(GEO_1K));
    // demand(3), +1 -> 4, -1 -> 2, rest
    ASSERT_EQ(p.segments.size(), 4u);
    EXPECT_EQ(p.segments[0].subpage_mask, 1ULL << 3);
    EXPECT_TRUE(p.segments[0].demand);
    EXPECT_EQ(p.segments[1].subpage_mask, 1ULL << 4);
    EXPECT_TRUE(p.segments[1].pipelined_recv);
    EXPECT_EQ(p.segments[2].subpage_mask, 1ULL << 2);
    EXPECT_TRUE(p.segments[2].pipelined_recv);
    EXPECT_FALSE(p.segments[3].pipelined_recv);
    EXPECT_EQ(covered(p), all_mask(GEO_1K));
    EXPECT_EQ(p.total_bytes(), 8192u);
}

TEST(PipeliningBasic, EdgeSubpageZero)
{
    PipeliningPolicy pol(PipelineStrategy::NeighborsThenRest);
    FetchPlan p = pol.plan(GEO_1K, 0, 0, all_mask(GEO_1K));
    // No -1 neighbour; +1 only.
    ASSERT_EQ(p.segments.size(), 3u);
    EXPECT_EQ(p.segments[1].subpage_mask, 1ULL << 1);
    EXPECT_EQ(covered(p), all_mask(GEO_1K));
}

TEST(PipeliningBasic, EdgeLastSubpage)
{
    PipeliningPolicy pol(PipelineStrategy::NeighborsThenRest);
    FetchPlan p = pol.plan(GEO_1K, 7, 0, all_mask(GEO_1K));
    ASSERT_EQ(p.segments.size(), 3u);
    EXPECT_EQ(p.segments[1].subpage_mask, 1ULL << 6);
    EXPECT_EQ(covered(p), all_mask(GEO_1K));
}

TEST(PipeliningAll, EverySubpageIndividually)
{
    PipeliningPolicy pol(PipelineStrategy::AllSubpages);
    FetchPlan p = pol.plan(GEO_1K, 3, 0, all_mask(GEO_1K));
    ASSERT_EQ(p.segments.size(), 8u);
    // Order after demand(3): 4, 2, 5, 1, 6, 0, 7 (by +- distance).
    std::vector<uint64_t> expect = {3, 4, 2, 5, 1, 6, 0, 7};
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(p.segments[i].subpage_mask, 1ULL << expect[i]) << i;
    for (size_t i = 1; i < 8; ++i)
        EXPECT_TRUE(p.segments[i].pipelined_recv);
    EXPECT_EQ(covered(p), all_mask(GEO_1K));
}

TEST(PipeliningDoubled, TwoSubpageFollowOn)
{
    PipeliningPolicy pol(PipelineStrategy::DoubledFollowOn);
    FetchPlan p = pol.plan(GEO_1K, 2, 0, all_mask(GEO_1K));
    ASSERT_EQ(p.segments.size(), 3u);
    EXPECT_EQ(p.segments[0].subpage_mask, 1ULL << 2);
    // Follow-on carries the next two subpages in one message.
    EXPECT_EQ(p.segments[1].subpage_mask, (1ULL << 3) | (1ULL << 4));
    EXPECT_EQ(p.segments[1].bytes, 2048u);
    EXPECT_TRUE(p.segments[1].pipelined_recv);
    EXPECT_EQ(covered(p), all_mask(GEO_1K));
}

TEST(PipeliningInitialDouble, TakesFollowingWhenFaultInSecondHalf)
{
    PipeliningPolicy pol(PipelineStrategy::InitialDouble);
    FetchPlan p = pol.plan(GEO_1K, 3, 900, all_mask(GEO_1K));
    // Fault near the end of subpage 3: ship 3 and 4 together.
    EXPECT_EQ(p.segments[0].subpage_mask, (1ULL << 3) | (1ULL << 4));
    EXPECT_EQ(p.segments[0].bytes, 2048u);
    EXPECT_TRUE(p.segments[0].demand);
    EXPECT_EQ(covered(p), all_mask(GEO_1K));
}

TEST(PipeliningInitialDouble, TakesPrecedingWhenFaultInFirstHalf)
{
    PipeliningPolicy pol(PipelineStrategy::InitialDouble);
    FetchPlan p = pol.plan(GEO_1K, 3, 100, all_mask(GEO_1K));
    EXPECT_EQ(p.segments[0].subpage_mask, (1ULL << 2) | (1ULL << 3));
}

TEST(PipeliningInitialDouble, EdgeFallsBackToOtherSide)
{
    PipeliningPolicy pol(PipelineStrategy::InitialDouble);
    // First half of subpage 0: no preceding neighbour, takes +1.
    FetchPlan p = pol.plan(GEO_1K, 0, 10, all_mask(GEO_1K));
    EXPECT_EQ(p.segments[0].subpage_mask, (1ULL << 0) | (1ULL << 1));
    // Second half of last subpage: no following, takes -1.
    FetchPlan q = pol.plan(GEO_1K, 7, 1000, all_mask(GEO_1K));
    EXPECT_EQ(q.segments[0].subpage_mask, (1ULL << 6) | (1ULL << 7));
}

class AllPoliciesCoverMissing
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(AllPoliciesCoverMissing, PlanNeverExceedsMissing)
{
    // Property: for every faulted subpage and missing mask, the plan
    // (a) includes the faulted subpage in its demand segment,
    // (b) never ships a subpage that is not missing (except the
    //     faulted one itself), and
    // (c) bytes always match the mask popcount.
    auto pol = make_fetch_policy(GetParam());
    bool lazy = std::string(GetParam()) == "lazy";
    for (SubpageIndex f = 0; f < 8; ++f) {
        for (uint64_t missing = 1; missing < 256; ++missing) {
            if (!(missing & (1ULL << f)))
                continue;
            FetchPlan p = pol->plan(GEO_1K, f, 512, missing);
            ASSERT_FALSE(p.segments.empty());
            EXPECT_TRUE(p.segments[0].demand);
            EXPECT_TRUE(p.segments[0].subpage_mask & (1ULL << f));
            for (size_t i = 1; i < p.segments.size(); ++i)
                EXPECT_FALSE(p.segments[i].demand);
            uint64_t cov = covered(p);
            EXPECT_EQ(cov & ~missing & ~(1ULL << f), 0u)
                << "policy " << GetParam() << " f=" << f
                << " missing=" << missing;
            if (!lazy) {
                EXPECT_EQ(cov | (1ULL << f), missing | (1ULL << f));
            }
            for (const auto &seg : p.segments) {
                EXPECT_EQ(seg.bytes,
                          __builtin_popcountll(seg.subpage_mask) *
                              1024u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPoliciesCoverMissing,
                         ::testing::Values("fullpage", "lazy", "eager",
                                           "pipelining",
                                           "pipelining-all",
                                           "pipelining-doubled",
                                           "pipelining-initial2x"));

TEST(PolicyFactory, NamesAndStrategies)
{
    EXPECT_STREQ(make_fetch_policy("disk")->name(), "disk");
    EXPECT_STREQ(make_fetch_policy("eager")->name(), "eager");
    auto p = make_fetch_policy("pipelining-doubled");
    auto *pp = dynamic_cast<PipeliningPolicy *>(p.get());
    ASSERT_NE(pp, nullptr);
    EXPECT_EQ(pp->strategy(), PipelineStrategy::DoubledFollowOn);
    EXPECT_STREQ(pipeline_strategy_name(pp->strategy()),
                 "doubled-followon");
}

TEST(PolicyGeometry2K, EagerWith2KSubpages)
{
    EagerFullpagePolicy pol;
    FetchPlan p = pol.plan(GEO_2K, 1, 0, all_mask(GEO_2K));
    ASSERT_EQ(p.segments.size(), 2u);
    EXPECT_EQ(p.segments[0].bytes, 2048u);
    EXPECT_EQ(p.segments[1].bytes, 6144u);
}

TEST(SegmentList, SpillsPastInlineAndCopiesAndMoves)
{
    // pipelining-all at 1K subpages sends eight segments: four past
    // the inline capacity.
    PipeliningPolicy pol(PipelineStrategy::AllSubpages);
    FetchPlan big = pol.plan(GEO_1K, 3, 0, all_mask(GEO_1K));
    ASSERT_EQ(big.segments.size(), 8u);
    EagerFullpagePolicy eager;
    FetchPlan small = eager.plan(GEO_1K, 3, 0, all_mask(GEO_1K));
    ASSERT_EQ(small.segments.size(), 2u);

    auto masks = [](const FetchPlan &p) {
        std::vector<uint64_t> out;
        for (const TransferSegment &s : p.segments)
            out.push_back(s.subpage_mask);
        return out;
    };
    const std::vector<uint64_t> big_masks = masks(big);
    const std::vector<uint64_t> small_masks = masks(small);

    FetchPlan copy = big; // copy of a spilled list
    EXPECT_EQ(masks(copy), big_masks);
    copy = small; // a spilled list takes an inline one
    EXPECT_EQ(masks(copy), small_masks);
    copy = big;
    EXPECT_EQ(masks(copy), big_masks);
    const FetchPlan &alias = copy;
    copy = alias; // self-assignment keeps the segments
    EXPECT_EQ(masks(copy), big_masks);

    FetchPlan moved = std::move(copy); // takes the heap buffer
    EXPECT_EQ(masks(moved), big_masks);
    EXPECT_TRUE(copy.segments.empty()); // NOLINT: moved-from is empty
    copy = std::move(small); // an inline list moves by value
    EXPECT_EQ(masks(copy), small_masks);
    moved = std::move(copy);
    EXPECT_EQ(masks(moved), small_masks);
    EXPECT_EQ(moved.total_bytes(), 8 * 1024u);
}

} // namespace
} // namespace sgms
