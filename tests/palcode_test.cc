/**
 * @file
 * Tests for the PALcode emulation cost model (Table 1).
 */

#include <gtest/gtest.h>

#include "proto/palcode.h"

namespace sgms
{
namespace
{

TEST(PalCosts, Table1Values)
{
    PalCosts c = PalCosts::alpha250();
    EXPECT_EQ(c.fast_load, ticks::from_ns(195));
    EXPECT_EQ(c.slow_load, ticks::from_ns(361));
    EXPECT_EQ(c.fast_store, ticks::from_ns(241));
    EXPECT_EQ(c.slow_store, ticks::from_ns(383));
    EXPECT_EQ(c.null_pal_call, ticks::from_ns(56));
    EXPECT_EQ(c.l1_hit, ticks::from_ns(11));
    EXPECT_EQ(c.l2_hit, ticks::from_ns(30));
    EXPECT_EQ(c.l2_miss, ticks::from_ns(315));
}

TEST(PalCosts, PaperRatios)
{
    // Table 1 commentary: "a fast load is 6.5 times slower than an
    // L2 cache hit, and 1.6 times faster than an L2 miss".
    PalCosts c;
    double vs_l2_hit = static_cast<double>(c.fast_load) / c.l2_hit;
    double vs_l2_miss = static_cast<double>(c.l2_miss) / c.fast_load;
    EXPECT_NEAR(vs_l2_hit, 6.5, 0.2);
    EXPECT_NEAR(vs_l2_miss, 1.6, 0.1);
}

TEST(PalEmulator, FastWhenSamePageSlowOtherwise)
{
    PalEmulator pal;
    const PalCosts &c = pal.costs();
    EXPECT_EQ(pal.access_cost(1, false), c.slow_load); // first: slow
    EXPECT_EQ(pal.access_cost(1, false), c.fast_load);
    EXPECT_EQ(pal.access_cost(1, true), c.fast_store);
    EXPECT_EQ(pal.access_cost(2, true), c.slow_store); // page change
    EXPECT_EQ(pal.access_cost(2, false), c.fast_load);
    EXPECT_EQ(pal.emulated(), 5u);
}

TEST(PalEmulator, PageCompletionDropsAffinity)
{
    PalEmulator pal;
    pal.access_cost(1, false);
    pal.page_completed(1);
    EXPECT_EQ(pal.access_cost(1, false), pal.costs().slow_load);
    // Completing an unrelated page does not drop affinity.
    pal.page_completed(99);
    EXPECT_EQ(pal.access_cost(1, false), pal.costs().fast_load);
}

} // namespace
} // namespace sgms
