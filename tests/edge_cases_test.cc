/**
 * @file
 * Edge-case and failure-injection tests across modules: malformed
 * inputs must fail loudly (fatal/death), degenerate configurations
 * must behave sensibly, and late/stale events must be dropped.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/options.h"
#include "common/units.h"
#include "mem/page.h"
#include "mem/tlb.h"
#include "sim/kernel.h"
#include "temp_dir.h"
#include "trace/synthetic.h"
#include "trace/trace_file.h"

namespace sgms
{
namespace
{

TEST(DeathTests, BadPageGeometry)
{
    EXPECT_DEATH({ PageGeometry geo(8192, 3000); }, "power");
    EXPECT_DEATH({ PageGeometry geo(8192, 16384); }, "larger");
    EXPECT_DEATH({ PageGeometry geo(1 << 20, 4096); }, "64 subpages");
}

TEST(DeathTests, BadTlbGeometry)
{
    EXPECT_DEATH({ Tlb tlb(33, 4, 8192); }, "power");
    EXPECT_DEATH({ Tlb tlb(16, 32, 8192); }, "associativity");
}

TEST(DeathTests, BadParseBytes)
{
    EXPECT_DEATH({ parse_bytes("abc"); }, "bad size");
    EXPECT_DEATH({ parse_bytes("12Q"); }, "suffix");
    EXPECT_DEATH({ parse_bytes(""); }, "empty");
}

TEST(DeathTests, ParseBytesRejectsSignsAndSizesPast64Bits)
{
    // 18014398509481985K is 2^64 + 1024 bytes: it once wrapped to 1K.
    EXPECT_DEATH({ parse_bytes("18014398509481985K"); },
                 "does not fit 64 bits");
    EXPECT_DEATH({ parse_bytes("99999999999999999999"); },
                 "does not fit 64 bits");
    EXPECT_DEATH({ parse_bytes("-8K"); }, "bad size");
    EXPECT_DEATH({ parse_bytes("+8K"); }, "bad size");
    EXPECT_DEATH({ parse_bytes(" 8K"); }, "bad size");
    EXPECT_DEATH({ parse_bytes("8KK"); }, "suffix");
    EXPECT_EQ(parse_bytes("16777215G"), 16777215ull << 30);
    EXPECT_EQ(parse_bytes("18446744073709551615"), ~0ull);

    // Through Options the message names the flag.
    const char *argv[] = {"prog", "--page=18014398509481985K",
                          "--subpage=-8K"};
    Options o(3, const_cast<char **>(argv));
    EXPECT_DEATH({ o.get_bytes("page", 8192); },
                 "option --page: size '18014398509481985K' does not "
                 "fit 64 bits");
    EXPECT_DEATH({ o.get_bytes("subpage", 1024); },
                 "option --subpage: bad size string '-8K'");
}

TEST(DeathTests, UnknownPolicyAndReplacement)
{
    EXPECT_DEATH({ make_fetch_policy("nonsense"); }, "unknown");
    EXPECT_DEATH({ make_replacement_policy("nonsense"); }, "unknown");
}

TEST(DeathTests, MalformedOption)
{
    const char *argv[] = {"prog", "--=x"};
    EXPECT_DEATH({ Options o(2, const_cast<char **>(argv)); },
                 "malformed");
}

TEST(DeathTests, MissingTraceFile)
{
    EXPECT_DEATH({ FileTrace t("/nonexistent/path/trace.bin"); },
                 "cannot open");
}

void
read_all(const std::string &path)
{
    FileTrace t(path);
    TraceEvent ev;
    while (t.next(ev)) {
    }
}

TEST(DeathTests, CorruptTextTrace)
{
    test::TempDir tmp;
    std::string path = tmp.write("t.txt", "R 100\nX zzz\n");
    EXPECT_DEATH(read_all(path), "bad");
}

TEST(DeathTests, HostileTextTraceLines)
{
    // Each line once read as a reference (trailing text ignored, a
    // sign or overflow wrapped to 0xffffffffffffffff, the top bit
    // kept). Each must now stop the read.
    const std::pair<std::string, const char *> cases[] = {
        {"R 12 junk\n", "bad line"},
        {"W -1\n", "bad line"},
        {"R +1\n", "bad line"},
        {"R 1ffffffffffffffffff\n", "out of range"},
        {"R 8000000000000001\n", "out of range"},
        {"R 0x\n", "bad line"},
        {"R\n", "bad line"},
        {"R12\n", "bad line"},
        {std::string("R 12\0junk\n", 10), "bad line"},
    };
    test::TempDir tmp;
    for (const auto &[line, why] : cases) {
        SCOPED_TRACE(line);
        std::string path = tmp.write("t.txt", "R 1\n" + line);
        EXPECT_DEATH(read_all(path), why);
    }
}

TEST(DeathTests, OverlongTextTraceLine)
{
    // Longer than the reader's 64 KiB buffer: rejected, not grown.
    test::TempDir tmp;
    std::string path = tmp.write(
        "t.txt", "R 1\n# " + std::string(70 * 1024, 'x') + "\nR 2\n");
    EXPECT_DEATH(read_all(path), "line longer than");
}

TEST(EdgeCases, SingleReferenceTrace)
{
    VectorTrace t;
    t.push(12345);
    SimConfig cfg;
    cfg.policy = "eager";
    cfg.subpage_size = 256;
    Simulator sim(cfg);
    SimResult r = sim.run(t);
    EXPECT_EQ(r.refs, 1u);
    EXPECT_EQ(r.page_faults, 1u);
    EXPECT_GT(r.runtime, 0);
}

TEST(EdgeCases, EmptyTrace)
{
    VectorTrace t;
    SimConfig cfg;
    Simulator sim(cfg);
    SimResult r = sim.run(t);
    EXPECT_EQ(r.refs, 0u);
    EXPECT_EQ(r.page_faults, 0u);
    EXPECT_EQ(r.runtime, 0);
}

TEST(EdgeCases, SimulatorReusableAcrossRuns)
{
    Simulator sim(SimConfig{});
    for (int i = 0; i < 3; ++i) {
        VectorTrace t;
        for (Addr p = 0; p < 4; ++p)
            t.push(p * 8192);
        SimResult r = sim.run(t);
        EXPECT_EQ(r.page_faults, 4u) << "run " << i;
    }
}

TEST(EdgeCases, SmallestSubpageLargestPage)
{
    // 16K pages with 256B subpages = 64 subpages (the bitmap limit).
    SimConfig cfg;
    cfg.page_size = 16384;
    cfg.subpage_size = 256;
    cfg.policy = "pipelining-all";
    VectorTrace t;
    for (int i = 0; i < 64; ++i)
        t.push(i * 256);
    Simulator sim(cfg);
    SimResult r = sim.run(t);
    EXPECT_EQ(r.page_faults, 1u);
    EXPECT_EQ(r.refs, 64u);
}

TEST(EdgeCases, HugeSparseAddressesUseOverflowPath)
{
    // Addresses far beyond the dense page-table limit exercise the
    // overflow hash map.
    VectorTrace t;
    t.push(0);
    t.push(1ULL << 45);
    t.push((1ULL << 45) + 8192);
    t.push(1ULL << 60);          // evicts page 0 (capacity 3)
    t.push(0);                   // refault, evicting another page
    SimConfig cfg;
    cfg.policy = "eager";
    cfg.subpage_size = 1024;
    cfg.mem_pages = 3;
    Simulator sim(cfg);
    SimResult r = sim.run(t);
    EXPECT_EQ(r.page_faults, 5u);
    EXPECT_EQ(r.evictions, 2u);
}

TEST(EdgeCases, TlbChargesCoexistWithInflightTransfers)
{
    // Regression: a TLB refill advances the clock mid-iteration; if
    // pending transfer events are not drained before the subsequent
    // fault injects new messages, the stage resources see
    // submissions "in the past" (this used to trip the preemption
    // bookkeeping).
    SimConfig cfg;
    cfg.policy = "eager";
    cfg.subpage_size = 1024;
    cfg.tlb_enabled = true;
    cfg.tlb_entries = 4;
    cfg.tlb_assoc = 4;
    cfg.mem_pages = 8;
    VectorTrace t;
    for (int round = 0; round < 3; ++round)
        for (Addr p = 0; p < 32; ++p)
            t.push(p * 8192 + round * 1024);
    Simulator sim(cfg);
    SimResult r = sim.run(t); // must not panic
    EXPECT_GT(r.tlb_overhead, 0);
    EXPECT_GT(r.page_faults, 32u);
}

TEST(EdgeCases, ZeroRefPhaseBetweenScans)
{
    WorkloadSpec w;
    w.name = "t";
    w.hot_pages = 0;
    PhaseSpec a;
    a.kind = PhaseSpec::Kind::DenseScan;
    a.page_lo = 0;
    a.page_hi = 1;
    a.refs = 4;
    a.hot_frac = 0;
    PhaseSpec empty = a;
    empty.refs = 0;
    w.phases = {a, empty, a};
    SyntheticTrace t(w, 1);
    TraceEvent ev;
    int n = 0;
    while (t.next(ev))
        ++n;
    EXPECT_EQ(n, 8);
}

} // namespace
} // namespace sgms
