/**
 * @file
 * Tests for the trace module: sources, file formats, synthetic
 * generation, and the application models' documented properties.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "temp_dir.h"
#include "trace/apps.h"
#include "trace/binfmt.h"
#include "trace/synthetic.h"
#include "trace/trace.h"
#include "trace/trace_file.h"

namespace sgms
{
namespace
{

std::vector<TraceEvent>
drain(TraceSource &src, uint64_t max = UINT64_MAX)
{
    std::vector<TraceEvent> out;
    TraceEvent ev;
    while (out.size() < max && src.next(ev))
        out.push_back(ev);
    return out;
}

TEST(VectorTrace, RoundTripAndReset)
{
    VectorTrace t;
    t.push(0x100);
    t.push(0x200, true);
    auto events = drain(t);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].addr, 0x100u);
    EXPECT_FALSE(events[0].write);
    EXPECT_TRUE(events[1].write);
    TraceEvent ev;
    EXPECT_FALSE(t.next(ev));
    t.reset();
    EXPECT_TRUE(t.next(ev));
    EXPECT_EQ(ev.addr, 0x100u);
}

TEST(Footprint, CountsDistinctPages)
{
    VectorTrace t;
    t.push(0);
    t.push(8191);
    t.push(8192);
    t.push(3 * 8192 + 17);
    t.push(8192); // repeat
    EXPECT_EQ(measure_footprint_pages(t, 8192), 3u);
    // And the source is rewound afterwards.
    EXPECT_EQ(drain(t).size(), 5u);
}

class TraceFileTest : public ::testing::Test
{
  protected:
    std::string
    temp_path(const char *name) const
    {
        return tmp_.file(name);
    }

    test::TempDir tmp_;
};

TEST_F(TraceFileTest, TextRoundTrip)
{
    VectorTrace t;
    t.push(0xdeadbeef);
    t.push(0x10, true);
    t.push(0xffffffffffull);
    EXPECT_EQ(write_trace_text(t, temp_path("t.txt")), 3u);
    FileTrace f(temp_path("t.txt"));
    auto b = drain(f);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b[0].addr, 0xdeadbeefu);
    EXPECT_FALSE(b[0].write);
    EXPECT_EQ(b[1].addr, 0x10u);
    EXPECT_TRUE(b[1].write);
    EXPECT_EQ(b[2].addr, 0xffffffffffull);
}

TEST_F(TraceFileTest, FileTraceReset)
{
    VectorTrace t;
    t.push(1);
    t.push(2);
    write_trace_text(t, temp_path("t.txt"));
    FileTrace f(temp_path("t.txt"));
    EXPECT_EQ(drain(f).size(), 2u);
    f.reset();
    EXPECT_EQ(drain(f).size(), 2u);
}

TEST(Synthetic, DeterministicAcrossResets)
{
    WorkloadSpec w;
    w.name = "t";
    w.hot_pages = 4;
    PhaseSpec ph;
    ph.kind = PhaseSpec::Kind::Compute;
    ph.page_lo = 4;
    ph.page_hi = 40;
    ph.refs = 5000;
    w.phases.push_back(ph);
    SyntheticTrace a(w, 77);
    auto first = drain(a);
    a.reset();
    auto second = drain(a);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].addr, second[i].addr);
        EXPECT_EQ(first[i].write, second[i].write);
    }
    EXPECT_EQ(first.size(), 5000u);
}

TEST(Synthetic, DenseScanSequentialAndWrapping)
{
    WorkloadSpec w;
    w.name = "t";
    w.hot_pages = 0;
    PhaseSpec ph;
    ph.kind = PhaseSpec::Kind::DenseScan;
    ph.page_lo = 2;
    ph.page_hi = 3;
    ph.stride = 1024;
    ph.refs = 16; // exactly two passes of the 8 subpage-strides
    ph.hot_frac = 0;
    w.phases.push_back(ph);
    SyntheticTrace t(w, 1);
    auto events = drain(t);
    ASSERT_EQ(events.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(events[i].addr, 2 * 8192 + (i % 8) * 1024u);
}

TEST(Synthetic, SweepScanAdvancesOffsetByPass)
{
    WorkloadSpec w;
    w.name = "t";
    w.hot_pages = 0;
    for (int pass = 0; pass < 3; ++pass) {
        PhaseSpec ph;
        ph.kind = PhaseSpec::Kind::SweepScan;
        ph.page_lo = 10;
        ph.page_hi = 14;
        ph.refs = 4;
        ph.hot_frac = 0;
        ph.sweep_pass = pass;
        ph.sweep_step = 1024;
        ph.sweep_jitter = 0;
        w.phases.push_back(ph);
    }
    SyntheticTrace t(w, 1);
    auto events = drain(t);
    ASSERT_EQ(events.size(), 12u);
    for (int pass = 0; pass < 3; ++pass) {
        for (int p = 0; p < 4; ++p) {
            Addr a = events[pass * 4 + p].addr;
            EXPECT_EQ(a / 8192, 10u + p);
            EXPECT_EQ(a % 8192, pass * 1024u);
        }
    }
}

TEST(Synthetic, SparseScanVisitsPagesInOrder)
{
    WorkloadSpec w;
    w.name = "t";
    w.hot_pages = 0;
    PhaseSpec ph;
    ph.kind = PhaseSpec::Kind::SparseScan;
    ph.page_lo = 5;
    ph.page_hi = 8;
    ph.touches_per_page = 2;
    ph.refs = 6;
    ph.hot_frac = 0;
    w.phases.push_back(ph);
    SyntheticTrace t(w, 3);
    auto events = drain(t);
    ASSERT_EQ(events.size(), 6u);
    EXPECT_EQ(events[0].addr / 8192, 5u);
    EXPECT_EQ(events[1].addr / 8192, 5u);
    EXPECT_EQ(events[2].addr / 8192, 6u);
    EXPECT_EQ(events[3].addr / 8192, 6u);
    EXPECT_EQ(events[4].addr / 8192, 7u);
    EXPECT_EQ(events[5].addr / 8192, 7u);
}

TEST(Synthetic, ComputeStaysInRegion)
{
    WorkloadSpec w;
    w.name = "t";
    w.hot_pages = 2;
    PhaseSpec ph;
    ph.kind = PhaseSpec::Kind::Compute;
    ph.page_lo = 10;
    ph.page_hi = 20;
    ph.refs = 10000;
    ph.hot_frac = 0.3;
    w.phases.push_back(ph);
    SyntheticTrace t(w, 5);
    TraceEvent ev;
    uint64_t hot = 0, region = 0;
    while (t.next(ev)) {
        PageId p = ev.addr / 8192;
        if (p < 2)
            ++hot;
        else if (p >= 10 && p < 20)
            ++region;
        else
            FAIL() << "address outside hot and region: " << ev.addr;
    }
    EXPECT_NEAR(static_cast<double>(hot) / 10000, 0.3, 0.03);
    EXPECT_EQ(hot + region, 10000u);
}

TEST(Synthetic, WriteFractionRespected)
{
    WorkloadSpec w;
    w.name = "t";
    w.hot_pages = 0;
    PhaseSpec ph;
    ph.kind = PhaseSpec::Kind::Compute;
    ph.page_lo = 0;
    ph.page_hi = 4;
    ph.refs = 20000;
    ph.write_frac = 0.25;
    ph.hot_frac = 0;
    w.phases.push_back(ph);
    SyntheticTrace t(w, 9);
    TraceEvent ev;
    uint64_t writes = 0;
    while (t.next(ev))
        writes += ev.write;
    EXPECT_NEAR(static_cast<double>(writes) / 20000, 0.25, 0.02);
}

TEST(Synthetic, EmptySpecProducesNothing)
{
    WorkloadSpec w;
    w.name = "empty";
    SyntheticTrace t(w, 1);
    TraceEvent ev;
    EXPECT_FALSE(t.next(ev));
}

TEST(Synthetic, SkipsZeroRefPhases)
{
    WorkloadSpec w;
    w.name = "t";
    w.hot_pages = 0;
    PhaseSpec empty;
    empty.kind = PhaseSpec::Kind::Compute;
    empty.page_lo = 0;
    empty.page_hi = 2;
    empty.refs = 0;
    PhaseSpec real = empty;
    real.refs = 5;
    w.phases.push_back(empty);
    w.phases.push_back(real);
    w.phases.push_back(empty);
    SyntheticTrace t(w, 1);
    EXPECT_EQ(drain(t).size(), 5u);
}

/**
 * FNV-1a 64 over a trace's packed words in native byte order, the
 * hash SGMB keeps of its payload.
 */
uint64_t
words_digest(TraceSource &src)
{
    uint64_t h = 14695981039346656037ull; // FNV-1a offset basis
    uint64_t scratch[256];
    const uint64_t *words;
    size_t n;
    src.reset();
    while ((n = src.next_words(words, scratch, 256)) > 0)
        h = fnv1a_bytes(words, n * sizeof(uint64_t), h);
    src.reset();
    return h;
}

/**
 * Every app model's trace, byte for byte: a generator change that
 * keeps the model must keep these words, and with them every output.
 */
TEST(Synthetic, AppTraceWordsArePinned)
{
    struct Pin
    {
        const char *app;
        uint64_t seed;
        uint64_t digest;
    };
    const Pin pins[] = {
        {"modula3", 1, 0x44a42da6ed177e2cull},
        {"modula3", 7, 0x4e1b845a393269c7ull},
        {"ld", 1, 0x3a7f822e2c4f54e2ull},
        {"ld", 7, 0xf7bf1bc9d2375108ull},
        {"atom", 1, 0x7dc96de34f170525ull},
        {"atom", 7, 0x556fd02a10e294fbull},
        {"render", 1, 0xfe6f47b53ca0cc7full},
        {"render", 7, 0xc1843080eab4d699ull},
        {"gdb", 1, 0x4c9d55e1650962b0ull},
        {"gdb", 7, 0x8fc05dd72819ffcbull},
    };
    for (const Pin &pin : pins) {
        auto trace = make_app_trace(pin.app, 0.01, pin.seed);
        EXPECT_EQ(words_digest(*trace), pin.digest)
            << pin.app << " seed " << pin.seed;
    }
}

/**
 * Hand-built specs for the generator branches the app models may not
 * reach at a test scale: a Compute phase over an empty region with
 * no hot pages (the untabled Zipf draw), a tabled Compute phase with
 * a hot region, and jittered SweepScans whose pass offset wraps the
 * page, at two page sizes.
 */
TEST(Synthetic, GeneratorBranchWordsArePinned)
{
    WorkloadSpec untabled;
    untabled.name = "untabled";
    untabled.hot_pages = 0;
    {
        PhaseSpec ph;
        ph.kind = PhaseSpec::Kind::Compute;
        ph.page_lo = 5;
        ph.page_hi = 5;
        ph.refs = 4000;
        untabled.phases.push_back(ph);
    }

    WorkloadSpec tabled;
    tabled.name = "tabled";
    tabled.hot_pages = 6;
    {
        PhaseSpec ph;
        ph.kind = PhaseSpec::Kind::Compute;
        ph.page_lo = 10;
        ph.page_hi = 1000;
        ph.refs = 8000;
        ph.hot_frac = 0.4;
        ph.zipf_skew = 0.7;
        tabled.phases.push_back(ph);
    }

    auto sweep = [](uint32_t page_size) {
        WorkloadSpec w;
        w.name = "sweep";
        w.page_size = page_size;
        w.hot_pages = 3;
        for (uint32_t pass = 0; pass < 6; ++pass) {
            PhaseSpec ph;
            ph.kind = PhaseSpec::Kind::SweepScan;
            ph.page_lo = 8;
            ph.page_hi = 200;
            ph.refs = 1500;
            ph.hot_frac = 0.2;
            ph.sweep_pass = pass;
            ph.sweep_step = page_size / 4;
            ph.sweep_jitter = 64;
            ph.sweep_touches = 2;
            ph.sweep_record_bytes = 100;
            w.phases.push_back(ph);
        }
        return w;
    };

    struct Pin
    {
        WorkloadSpec spec;
        uint64_t seed;
        uint64_t digest;
    };
    const Pin pins[] = {
        {untabled, 3, 0xbf625a2843cd2207ull},
        {tabled, 3, 0xc509d83e4c8be2fcull},
        {sweep(8192), 3, 0x63e2569ed13aa84full},
        {sweep(2048), 3, 0xef26de5975cbe072ull},
    };
    for (const Pin &pin : pins) {
        SyntheticTrace trace(pin.spec, pin.seed);
        EXPECT_EQ(words_digest(trace), pin.digest)
            << pin.spec.name << " page " << pin.spec.page_size;
    }
}

TEST(WorkloadSpec, TotalsAndSpan)
{
    WorkloadSpec w;
    w.hot_pages = 10;
    PhaseSpec a;
    a.refs = 100;
    a.page_lo = 0;
    a.page_hi = 5;
    PhaseSpec b;
    b.refs = 50;
    b.page_lo = 20;
    b.page_hi = 30;
    w.phases = {a, b};
    EXPECT_EQ(w.total_refs(), 150u);
    EXPECT_EQ(w.page_span(), 30u);
}

class AppModelTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(AppModelTest, FootprintMatchesSpanAtSmallScale)
{
    // Every page in the layout is eventually touched, so the
    // footprint equals the span (the paper's full-mem fault count is
    // exactly the footprint).
    auto trace = make_app_trace(GetParam(), 0.05, 7);
    uint64_t span = trace->spec().page_span();
    uint64_t fp = measure_footprint_pages(*trace, 8192);
    EXPECT_GT(fp, 0u);
    // Hot/Compute interleaving is probabilistic; allow a tiny slack.
    EXPECT_GE(fp, span * 9 / 10);
    EXPECT_LE(fp, span);
}

TEST_P(AppModelTest, DeterministicForSeed)
{
    auto a = make_app_trace(GetParam(), 0.02, 3);
    auto b = make_app_trace(GetParam(), 0.02, 3);
    TraceEvent ea, eb;
    for (int i = 0; i < 20000; ++i) {
        bool ra = a->next(ea);
        bool rb = b->next(eb);
        ASSERT_EQ(ra, rb);
        if (!ra)
            break;
        ASSERT_EQ(ea.addr, eb.addr);
        ASSERT_EQ(ea.write, eb.write);
    }
}

TEST_P(AppModelTest, RefCountScalesLinearly)
{
    auto small = make_app_spec(GetParam(), 0.02);
    auto big = make_app_spec(GetParam(), 0.04);
    double ratio = static_cast<double>(big.total_refs()) /
                   static_cast<double>(small.total_refs());
    EXPECT_NEAR(ratio, 2.0, 0.35);
}

INSTANTIATE_TEST_SUITE_P(Apps, AppModelTest,
                         ::testing::Values("modula3", "ld", "atom",
                                           "render", "gdb"));

TEST(AppModels, PaperTraceSizesAtFullScale)
{
    // Reference counts at scale 1 match the paper's reported trace
    // sizes (87M / 102M / 73M / 245M / 0.5M).
    EXPECT_NEAR(make_modula3_spec(1.0).total_refs() / 1e6, 87, 5);
    EXPECT_NEAR(make_ld_spec(1.0).total_refs() / 1e6, 102, 6);
    EXPECT_NEAR(make_atom_spec(1.0).total_refs() / 1e6, 73, 5);
    EXPECT_NEAR(make_render_spec(1.0).total_refs() / 1e6, 245, 13);
    EXPECT_NEAR(make_gdb_spec(1.0).total_refs() / 1e6, 0.5, 0.1);
}

TEST(AppModels, RegistryComplete)
{
    EXPECT_EQ(app_names().size(), 5u);
    for (const auto &name : app_names())
        EXPECT_EQ(make_app_spec(name, 0.1).name, name);
}

} // namespace
} // namespace sgms
