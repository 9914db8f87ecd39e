/**
 * @file
 * Unit and property tests for src/mem: geometry, bitmaps, page table,
 * replacement policies, TLB.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "mem/page.h"
#include "mem/page_table.h"
#include "mem/replacement.h"
#include "mem/tlb.h"

namespace sgms
{
namespace
{

TEST(PageGeometry, PaperConfiguration)
{
    // 8K pages with 1K subpages, the paper's headline configuration.
    PageGeometry geo(8192, 1024);
    EXPECT_EQ(geo.subpages_per_page(), 8u);
    EXPECT_EQ(geo.page_of(0), 0u);
    EXPECT_EQ(geo.page_of(8191), 0u);
    EXPECT_EQ(geo.page_of(8192), 1u);
    EXPECT_EQ(geo.subpage_of(0), 0u);
    EXPECT_EQ(geo.subpage_of(1023), 0u);
    EXPECT_EQ(geo.subpage_of(1024), 1u);
    EXPECT_EQ(geo.subpage_of(8191), 7u);
    // Subpage index is relative to the page, not global.
    EXPECT_EQ(geo.subpage_of(8192 + 2048), 2u);
    EXPECT_EQ(geo.page_base(3), 3u * 8192);
    EXPECT_EQ(geo.subpage_offset(5), 5u * 1024);
}

TEST(PageGeometry, PrototypeValidBitGranularity)
{
    // The Alpha prototype kept one valid bit per 256-byte block:
    // 32 subpages per 8K page.
    PageGeometry geo(8192, 256);
    EXPECT_EQ(geo.subpages_per_page(), 32u);
}

TEST(PageGeometry, DegenerateFullPage)
{
    PageGeometry geo(8192, 8192);
    EXPECT_EQ(geo.subpages_per_page(), 1u);
    EXPECT_EQ(geo.subpage_of(8191), 0u);
}

class PageGeometryAllSizes : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(PageGeometryAllSizes, SubpageInverseMapping)
{
    // Property: for every address, page_base + subpage_offset of its
    // (page, subpage) lands back in the same subpage.
    uint32_t sub = GetParam();
    PageGeometry geo(8192, sub);
    Rng rng(1234);
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng.below(1ULL << 40);
        Addr back = geo.page_base(geo.page_of(a)) +
                    geo.subpage_offset(geo.subpage_of(a));
        EXPECT_EQ(geo.page_of(back), geo.page_of(a));
        EXPECT_EQ(geo.subpage_of(back), geo.subpage_of(a));
        EXPECT_LE(back, a);
        EXPECT_LT(a - back, sub);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageGeometryAllSizes,
                         ::testing::Values(256, 512, 1024, 2048, 4096,
                                           8192));

TEST(SubpageBitmap, SetTestClear)
{
    SubpageBitmap b;
    EXPECT_FALSE(b.test(0));
    b.set(0);
    b.set(31);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(31));
    EXPECT_FALSE(b.test(1));
    EXPECT_EQ(b.popcount(), 2u);
    b.clear(0);
    EXPECT_FALSE(b.test(0));
    EXPECT_EQ(b.popcount(), 1u);
}

TEST(SubpageBitmap, CompleteDetection)
{
    SubpageBitmap b;
    for (uint32_t i = 0; i < 8; ++i) {
        EXPECT_FALSE(b.complete(8));
        b.set(i);
    }
    EXPECT_TRUE(b.complete(8));
    // 64-wide fill works without shifting UB.
    SubpageBitmap full;
    full.fill(64);
    EXPECT_TRUE(full.complete(64));
    EXPECT_EQ(full.popcount(), 64u);
}

TEST(SubpageBitmap, FillPartial)
{
    SubpageBitmap b;
    b.fill(8);
    EXPECT_TRUE(b.complete(8));
    EXPECT_EQ(b.raw(), 0xffu);
    b.reset();
    EXPECT_EQ(b.popcount(), 0u);
}

/**
 * A table of unlimited capacity under replacement policy @p policy.
 * The tests drive it as the simulator does: a page is installed with
 * a stamp, a use stores a newer stamp in its frame, and evict() asks
 * the policy for the victim.
 */
PageTable
stamped_table(const char *policy)
{
    return PageTable(PageGeometry(8192, 1024), 0, policy);
}

void
use(PageTable &pt, PageId page, uint64_t stamp)
{
    pt.find(page)->last_touch = stamp;
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    PageTable pt = stamped_table("lru");
    pt.install(1, 1);
    pt.install(2, 2);
    pt.install(3, 3);
    use(pt, 1, 4); // order now: 1, 3, 2 (MRU..LRU)
    EXPECT_EQ(pt.evict(), 2u);
    EXPECT_EQ(pt.evict(), 3u);
    EXPECT_EQ(pt.evict(), 1u);
    EXPECT_EQ(pt.resident(), 0u);
}

TEST(Lru, EraseRemoves)
{
    PageTable pt = stamped_table("lru");
    pt.install(1, 1);
    pt.install(2, 2);
    pt.erase(1);
    EXPECT_EQ(pt.resident(), 1u);
    EXPECT_EQ(pt.evict(), 2u);
}

TEST(Fifo, EvictsInArrivalOrder)
{
    PageTable pt = stamped_table("fifo");
    pt.install(1, 1);
    pt.install(2, 2);
    pt.install(3, 3);
    use(pt, 1, 4); // FIFO ignores stamps
    EXPECT_EQ(pt.evict(), 1u);
    EXPECT_EQ(pt.evict(), 2u);
    EXPECT_EQ(pt.evict(), 3u);
}

TEST(Clock, GivesSecondChance)
{
    PageTable pt = stamped_table("clock");
    pt.install(1, 1);
    pt.install(2, 2);
    pt.install(3, 3);
    // All have their reference bit set from insertion; a full sweep
    // clears them, so the first victim is the first inserted.
    EXPECT_EQ(pt.evict(), 1u);
    use(pt, 2, 4); // re-referenced: 2 survives the next sweep
    EXPECT_EQ(pt.evict(), 3u);
    EXPECT_EQ(pt.evict(), 2u);
}

TEST(Clock, ReusesDeadSlots)
{
    PageTable pt = stamped_table("clock");
    for (PageId i = 0; i < 8; ++i)
        pt.install(i, i);
    for (int i = 0; i < 4; ++i)
        pt.evict();
    for (PageId i = 100; i < 104; ++i)
        pt.install(i, i);
    EXPECT_EQ(pt.resident(), 8u);
    std::set<PageId> evicted;
    for (int i = 0; i < 8; ++i)
        evicted.insert(pt.evict());
    EXPECT_EQ(evicted.size(), 8u);
}

TEST(ReplacementFactory, KnownNames)
{
    EXPECT_STREQ(make_replacement_policy("lru")->name(), "lru");
    EXPECT_STREQ(make_replacement_policy("fifo")->name(), "fifo");
    EXPECT_STREQ(make_replacement_policy("clock")->name(), "clock");
}

class ReplacementProperty
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(ReplacementProperty, VictimIsAlwaysTracked)
{
    // Property: under random insert/use/evict traffic, every victim
    // was previously inserted and never double-evicted.
    PageTable pt = stamped_table(GetParam());
    Rng rng(99);
    std::set<PageId> tracked;
    PageId next = 0;
    uint64_t clock = 0;
    for (int i = 0; i < 5000; ++i) {
        double r = rng.uniform();
        if (r < 0.45 || tracked.empty()) {
            pt.install(next, ++clock);
            tracked.insert(next);
            ++next;
        } else if (r < 0.8) {
            // use a random tracked page
            auto it = tracked.begin();
            std::advance(it, rng.below(tracked.size()));
            use(pt, *it, ++clock);
        } else {
            PageId v = pt.evict();
            ASSERT_TRUE(tracked.count(v)) << "policy " << GetParam();
            tracked.erase(v);
        }
        ASSERT_EQ(pt.resident(), tracked.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, ReplacementProperty,
                         ::testing::Values("lru", "fifo", "clock"));

TEST(PageTable, InstallFindEvict)
{
    PageGeometry geo(8192, 1024);
    PageTable pt(geo, 2);
    EXPECT_EQ(pt.find(7), nullptr);
    pt.install(7, 1);
    ASSERT_NE(pt.find(7), nullptr);
    EXPECT_EQ(pt.find(7)->last_touch, 1u);
    EXPECT_FALSE(pt.full());
    pt.install(8, 2);
    EXPECT_TRUE(pt.full());
    use(pt, 7, 3); // 8 becomes LRU
    EXPECT_EQ(pt.evict(), 8u);
    EXPECT_EQ(pt.find(8), nullptr);
    EXPECT_EQ(pt.evictions(), 1u);
}

TEST(PageTable, OwnClockMakesMostRecent)
{
    // Without stamps, install() and touch() read the table's own
    // clock: each makes its page the most recently used.
    PageGeometry geo(8192, 1024);
    PageTable pt(geo, 3);
    pt.install(1);
    pt.install(2);
    pt.install(3);
    pt.touch(1);
    pt.touch(2);
    EXPECT_EQ(pt.evict(), 3u);
    pt.install(4);
    pt.touch(1);
    EXPECT_EQ(pt.evict(), 2u);
    EXPECT_EQ(pt.evict(), 4u);
}

TEST(PageTable, UnlimitedCapacity)
{
    PageGeometry geo(8192, 1024);
    PageTable pt(geo, 0);
    for (PageId p = 0; p < 10000; ++p)
        pt.install(p);
    EXPECT_FALSE(pt.full());
    EXPECT_EQ(pt.resident(), 10000u);
}

TEST(PageTable, MarkValidTracksCompletion)
{
    PageGeometry geo(8192, 1024);
    PageTable pt(geo, 4);
    auto &f = pt.install(3);
    f.inflight = 0xff;
    for (uint32_t i = 0; i < 8; ++i) {
        EXPECT_FALSE(pt.find(3)->complete);
        EXPECT_TRUE(pt.find(3)->subpage_inflight(i));
        EXPECT_TRUE(pt.mark_valid(3, i));
        EXPECT_FALSE(pt.find(3)->subpage_inflight(i));
    }
    EXPECT_TRUE(pt.find(3)->complete);
}

TEST(PageTable, MarkValidOnEvictedPageDropped)
{
    PageGeometry geo(8192, 1024);
    PageTable pt(geo, 1);
    pt.install(3);
    pt.evict();
    EXPECT_FALSE(pt.mark_valid(3, 0));
    EXPECT_FALSE(pt.mark_all_valid(3));
}

TEST(PageTable, MarkAllValid)
{
    PageGeometry geo(8192, 256);
    PageTable pt(geo, 4);
    pt.install(5);
    EXPECT_TRUE(pt.mark_all_valid(5));
    EXPECT_TRUE(pt.find(5)->complete);
    EXPECT_EQ(pt.find(5)->valid.popcount(), 32u);
}

TEST(Tlb, HitsAfterFill)
{
    Tlb tlb(4, 4, 8192);
    EXPECT_FALSE(tlb.access(0));
    EXPECT_TRUE(tlb.access(0));
    EXPECT_TRUE(tlb.access(8191));
    EXPECT_FALSE(tlb.access(8192));
    EXPECT_EQ(tlb.stats().hits, 2u);
    EXPECT_EQ(tlb.stats().misses, 2u);
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb(2, 2, 8192); // one set of two ways
    tlb.access(0 * 8192);
    tlb.access(1 * 8192);
    tlb.access(0 * 8192);     // 1 becomes LRU... no: 1 older than 0 now
    tlb.access(2 * 8192);     // evicts page 1
    EXPECT_TRUE(tlb.access(0 * 8192));
    EXPECT_FALSE(tlb.access(1 * 8192));
}

TEST(Tlb, FlushDropsEverything)
{
    Tlb tlb(8, 2, 8192);
    for (Addr a = 0; a < 4; ++a)
        tlb.access(a * 8192);
    tlb.flush();
    for (Addr a = 0; a < 4; ++a)
        EXPECT_FALSE(tlb.access(a * 8192));
}

TEST(Tlb, CoverageScalesWithPageSize)
{
    // The section 2.1 argument: a 32-entry TLB covers 256K with 8K
    // pages but only 32K with 1K pages.
    Tlb big(32, 4, 8192);
    Tlb small(32, 4, 1024);
    EXPECT_EQ(big.coverage(), 32u * 8192);
    EXPECT_EQ(small.coverage(), 32u * 1024);

    // Working set of 64K: fits the 8K-page TLB (8 pages) but
    // thrashes nothing; with 1K pages it needs 64 translations in 32
    // entries and must miss on every round.
    auto sweep = [](Tlb &tlb) {
        for (int round = 0; round < 10; ++round)
            for (Addr a = 0; a < 64 * 1024; a += 512)
                tlb.access(a);
        return tlb.stats().miss_rate();
    };
    double rate_big = sweep(big);
    double rate_small = sweep(small);
    EXPECT_LT(rate_big, 0.01);
    EXPECT_GT(rate_small, 0.2);
}

} // namespace
} // namespace sgms
