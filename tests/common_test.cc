/**
 * @file
 * Unit tests for src/common: types, units, rng, stats, tables, charts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/chart.h"
#include "common/once_map.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"
#include "common/units.h"

namespace sgms
{
namespace
{

TEST(OnceMap, ConcurrentCallersOfOneKeyShareOneMake)
{
    OnceMap<int, int> memo;
    std::atomic<int> makes{0};
    std::vector<int> got(8);
    {
        std::vector<std::jthread> threads;
        for (int t = 0; t < 8; ++t) {
            threads.emplace_back([&, t] {
                got[t] = memo.get(7, [&] {
                    ++makes;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return 49;
                });
            });
        }
    }
    EXPECT_EQ(makes.load(), 1);
    for (int v : got)
        EXPECT_EQ(v, 49);
    EXPECT_EQ(memo.get(7, [] { return 0; }), 49);
}

TEST(OnceMap, OtherKeysMakeWhileOneKeyIsBeingMade)
{
    // Key 1's make waits for key 2's: a lock held across make would
    // never let key 2 start. The wait is bounded so a regression
    // fails instead of hanging.
    OnceMap<int, int> memo;
    std::mutex mu;
    std::condition_variable cv;
    bool two_made = false;
    bool saw_two = false;
    std::jthread first([&] {
        memo.get(1, [&] {
            std::unique_lock<std::mutex> lock(mu);
            saw_two = cv.wait_for(lock, std::chrono::seconds(20),
                                  [&] { return two_made; });
            return 1;
        });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    memo.get(2, [&] {
        std::lock_guard<std::mutex> lock(mu);
        two_made = true;
        cv.notify_all();
        return 2;
    });
    first.join();
    EXPECT_TRUE(saw_two);
}

TEST(OnceMap, AMakeThatThrowsLeavesTheKeyUnset)
{
    OnceMap<int, int> memo;
    EXPECT_THROW(memo.get(3, []() -> int {
        throw std::runtime_error("make failed");
    }),
                 std::runtime_error);
    EXPECT_EQ(memo.get(3, [] { return 9; }), 9);
    memo.clear();
    EXPECT_EQ(memo.get(3, [] { return 10; }), 10);
}

TEST(Types, TickConversionsRoundTrip)
{
    EXPECT_EQ(ticks::from_us(1), 1000 * ticks::NS);
    EXPECT_EQ(ticks::from_ms(1.5), 1500 * ticks::US);
    EXPECT_DOUBLE_EQ(ticks::to_ms(ticks::from_ms(0.52)), 0.52);
    EXPECT_DOUBLE_EQ(ticks::to_us(ticks::from_us(68)), 68.0);
    EXPECT_DOUBLE_EQ(ticks::to_ns(ticks::from_ns(51.6)), 51.6);
}

TEST(Types, Pow2Helpers)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(256));
    EXPECT_TRUE(is_pow2(8192));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_FALSE(is_pow2(8191));
    EXPECT_EQ(log2_exact(1), 0u);
    EXPECT_EQ(log2_exact(256), 8u);
    EXPECT_EQ(log2_exact(8192), 13u);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(format_bytes(256), "256B");
    EXPECT_EQ(format_bytes(1024), "1K");
    EXPECT_EQ(format_bytes(8192), "8K");
    EXPECT_EQ(format_bytes(1 << 20), "1M");
    EXPECT_EQ(format_bytes(1536), "1536B");
}

TEST(Units, ParseBytes)
{
    EXPECT_EQ(parse_bytes("256"), 256u);
    EXPECT_EQ(parse_bytes("256B"), 256u);
    EXPECT_EQ(parse_bytes("1K"), 1024u);
    EXPECT_EQ(parse_bytes("8k"), 8192u);
    EXPECT_EQ(parse_bytes("2M"), 2u << 20);
}

TEST(Units, ParseFormatRoundTrip)
{
    for (uint64_t v : {256ull, 512ull, 1024ull, 2048ull, 4096ull,
                       8192ull}) {
        EXPECT_EQ(parse_bytes(format_bytes(v)), v);
    }
}

TEST(Units, FormatTime)
{
    EXPECT_EQ(format_ms(ticks::from_ms(1.48)), "1.48 ms");
    EXPECT_EQ(format_us(ticks::from_us(68)), "68 us");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(3);
    bool lo = false, hi = false;
    for (int i = 0; i < 10000; ++i) {
        uint64_t v = r.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        lo |= v == 5;
        hi |= v == 8;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ZipfSkewsLow)
{
    Rng r(11);
    uint64_t low = 0, n = 100000;
    for (uint64_t i = 0; i < n; ++i)
        if (r.zipf(1000, 0.9) < 100)
            ++low;
    // With skew 0.9, the first 10% of ranks should get well over
    // half the mass.
    EXPECT_GT(static_cast<double>(low) / n, 0.5);
}

TEST(Rng, ZipfBounds)
{
    Rng r(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.zipf(50, 0.8), 50u);
    EXPECT_EQ(r.zipf(1, 0.8), 0u);
}

TEST(Accumulator, Basics)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.add(2.0);
    a.add(4.0);
    a.add(6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
    EXPECT_DOUBLE_EQ(a.variance(), 4.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 2.0);
}

TEST(Accumulator, MergeMatchesCombined)
{
    Rng r(5);
    Accumulator a, b, all;
    for (int i = 0; i < 500; ++i) {
        double x = r.uniform() * 10;
        a.add(x);
        all.add(x);
    }
    for (int i = 0; i < 300; ++i) {
        double x = r.uniform() * 3 - 5;
        b.add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_NEAR(a.min(), all.min(), 1e-12);
    EXPECT_NEAR(a.max(), all.max(), 1e-12);
}

TEST(Histogram, CountsAndFractions)
{
    Histogram h;
    h.add(1, 3);
    h.add(2);
    h.add(-1, 6);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_EQ(h.count(1), 3u);
    EXPECT_EQ(h.count(2), 1u);
    EXPECT_EQ(h.count(-1), 6u);
    EXPECT_EQ(h.count(99), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(-1), 0.6);
    EXPECT_DOUBLE_EQ(h.fraction(7), 0.0);
}

TEST(Histogram, BinsSorted)
{
    Histogram h;
    h.add(5);
    h.add(-3);
    h.add(0);
    auto bins = h.bins();
    ASSERT_EQ(bins.size(), 3u);
    EXPECT_EQ(bins[0].first, -3);
    EXPECT_EQ(bins[1].first, 0);
    EXPECT_EQ(bins[2].first, 5);
}

TEST(Histogram, Quantile)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_EQ(h.quantile(0.5), 50);
    EXPECT_EQ(h.quantile(1.0), 100);
    EXPECT_LE(h.quantile(0.0), 1);
}

TEST(Series, Downsample)
{
    Series s;
    s.name = "t";
    for (int i = 0; i < 1000; ++i)
        s.add(i, 2 * i);
    Series d = s.downsampled(11);
    ASSERT_EQ(d.points.size(), 11u);
    EXPECT_DOUBLE_EQ(d.points.front().first, 0);
    EXPECT_DOUBLE_EQ(d.points.back().first, 999);
    // Short series pass through untouched.
    Series tiny;
    tiny.add(1, 1);
    EXPECT_EQ(tiny.downsampled(10).points.size(), 1u);
}

TEST(Table, PrintAligned)
{
    Table t({"a", "long header"});
    t.add_row({"1", "2"});
    t.add_row({"333", "4"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("| a   | long header |"), std::string::npos);
    EXPECT_NE(out.find("| 333 | 4           |"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Csv)
{
    Table t({"x", "y"});
    t.add_row({"a,b", "q\"u"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "x,y\n\"a,b\",\"q\"\"u\"\n");
}

TEST(Table, Format)
{
    EXPECT_EQ(Table::fmt(1.234, 2), "1.23");
    EXPECT_EQ(Table::fmt_int(-42), "-42");
    EXPECT_EQ(Table::fmt_pct(0.25), "25%");
    EXPECT_EQ(Table::fmt_pct(0.125, 1), "12.5%");
}

TEST(Chart, BarChartRenders)
{
    BarChart c("title", "ms");
    c.add("disk_8192", 10.0);
    c.add(Bar{"sp_1024", {{"exec", 3.0}, {"wait", 1.0}}});
    std::ostringstream os;
    c.print(os, 40);
    std::string out = os.str();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("disk_8192"), std::string::npos);
    EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(Chart, LinePlotRendersAndCsv)
{
    LinePlot p("plot", "x", "y");
    Series s;
    s.name = "curve";
    s.add(0, 0);
    s.add(1, 5);
    p.add(s);
    std::ostringstream os;
    p.print(os);
    EXPECT_NE(os.str().find("curve"), std::string::npos);
    std::ostringstream csv;
    p.print_csv(csv);
    EXPECT_NE(csv.str().find("curve,0,0"), std::string::npos);
    EXPECT_NE(csv.str().find("curve,1,5"), std::string::npos);
}

TEST(Chart, GanttRenders)
{
    GanttChart g("timeline");
    g.add_row("Wire", {{0, ticks::from_us(50), 'w'}});
    g.add_row("Req-CPU", {{ticks::from_us(50), ticks::from_us(80), 'c'}});
    std::ostringstream os;
    g.print(os, 40);
    std::string out = os.str();
    EXPECT_NE(out.find("Wire"), std::string::npos);
    EXPECT_NE(out.find('w'), std::string::npos);
    EXPECT_NE(out.find("time axis"), std::string::npos);
}

TEST(Chart, EmptyLinePlot)
{
    LinePlot p("empty", "x", "y");
    std::ostringstream os;
    p.print(os);
    EXPECT_NE(os.str().find("(no data)"), std::string::npos);
}

TEST(Histogram, QuantileEmptyIsZero)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.quantile(0.0), 0);
    EXPECT_EQ(h.quantile(0.5), 0);
    EXPECT_EQ(h.quantile(1.0), 0);
}

TEST(Histogram, QuantileExtremes)
{
    Histogram h;
    h.add(-5, 10);
    h.add(0, 10);
    h.add(7, 10);
    // q=0 is the smallest key, q=1 the largest.
    EXPECT_EQ(h.quantile(0.0), -5);
    EXPECT_EQ(h.quantile(1.0), 7);
    EXPECT_EQ(h.quantile(0.5), 0);
}

TEST(Histogram, QuantileSingleBin)
{
    Histogram h;
    h.add(42, 3);
    EXPECT_EQ(h.quantile(0.0), 42);
    EXPECT_EQ(h.quantile(0.25), 42);
    EXPECT_EQ(h.quantile(1.0), 42);
}

TEST(Series, DownsampledPreservesEndpoints)
{
    Series s;
    s.name = "long";
    for (int i = 0; i < 1000; ++i)
        s.add(i, 2.0 * i);
    Series d = s.downsampled(16);
    ASSERT_EQ(d.points.size(), 16u);
    EXPECT_EQ(d.name, "long");
    EXPECT_EQ(d.points.front(), s.points.front());
    EXPECT_EQ(d.points.back(), s.points.back());
}

TEST(Series, DownsampledSmallSeriesUnchanged)
{
    Series s;
    s.add(0, 1);
    s.add(1, 2);
    s.add(2, 3);
    Series d = s.downsampled(10);
    ASSERT_EQ(d.points.size(), 3u);
    EXPECT_EQ(d.points, s.points);
    // max_points < 2 is a no-op rather than a degenerate series.
    EXPECT_EQ(s.downsampled(1).points.size(), 3u);
}

} // namespace
} // namespace sgms
