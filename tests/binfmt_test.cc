/**
 * @file
 * Tests for the SGMB binary trace pipeline: the format itself
 * (trace/binfmt.h), mmap replay (trace/mmap_trace.h), the trace
 * store's mapped tier (trace/trace_store.h), and the end-to-end
 * guarantee that heap, streamed, and mapped replay produce
 * byte-identical Experiment results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "exec/result_codec.h"
#include "temp_dir.h"
#include "trace/apps.h"
#include "trace/binfmt.h"
#include "trace/mmap_trace.h"
#include "trace/trace.h"
#include "trace/trace_file.h"
#include "trace/trace_store.h"

namespace sgms
{
namespace
{

std::vector<TraceEvent>
drain(TraceSource &src)
{
    std::vector<TraceEvent> out;
    TraceEvent ev;
    while (src.next(ev))
        out.push_back(ev);
    return out;
}

void
expect_same_events(const std::vector<TraceEvent> &a,
                   const std::vector<TraceEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].addr, b[i].addr) << "at index " << i;
        ASSERT_EQ(a[i].write, b[i].write) << "at index " << i;
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Overwrite @p len bytes of @p path at @p off (corruption helper). */
void
corrupt(const std::string &path, long off, const void *bytes,
        size_t len)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, off, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, len, f), len);
    std::fclose(f);
}

void
truncate_to(const std::string &path, uint64_t size)
{
    std::filesystem::resize_file(path, size);
}

/** A varied little trace exercising both flags and wide addresses. */
VectorTrace
sample_trace(uint64_t n = 1000)
{
    VectorTrace t;
    for (uint64_t i = 0; i < n; ++i)
        t.push(i * 4093 + (i << 33), i % 3 == 0);
    return t;
}

class BinFmtTest : public ::testing::Test
{
  protected:
    std::string
    path(const char *name) const
    {
        return tmp_.file(name);
    }

    /** Write a known-valid SGMB file and return its path. */
    std::string
    valid_file(const char *name = "valid.sgmb", uint64_t refs = 100)
    {
        VectorTrace t = sample_trace(refs);
        std::string p = path(name);
        write_bin_trace(t, p, "testapp", 0.5, 7);
        return p;
    }

    test::TempDir tmp_;
    std::string dir_ = tmp_.path();
};

TEST(BinFmt, PackUnpackRoundTrip)
{
    TraceEvent ev{0x123456789abcull, true};
    TraceEvent back = unpack_trace_event(pack_trace_event(ev));
    EXPECT_EQ(back.addr, ev.addr);
    EXPECT_EQ(back.write, ev.write);
    ev.write = false;
    back = unpack_trace_event(pack_trace_event(ev));
    EXPECT_EQ(back.addr, ev.addr);
    EXPECT_FALSE(back.write);
    // The top usable address bit survives.
    TraceEvent top{(1ull << 62), true};
    EXPECT_EQ(unpack_trace_event(pack_trace_event(top)).addr, top.addr);
}

TEST_F(BinFmtTest, WriteReadRoundTripWithMetadata)
{
    VectorTrace t = sample_trace();
    std::string p = path("rt.sgmb");
    uint64_t n = write_bin_trace(t, p, "modula3", 0.25, 42);
    EXPECT_EQ(n, 1000u);

    BinTraceHeader hdr;
    std::string error;
    ASSERT_TRUE(read_bin_header(p, hdr, error)) << error;
    EXPECT_EQ(hdr.version, kBinTraceVersion);
    EXPECT_EQ(hdr.ref_count, 1000u);
    EXPECT_EQ(hdr.app, "modula3");
    EXPECT_EQ(hdr.scale, 0.25);
    EXPECT_EQ(hdr.seed, 42u);

    auto file = MappedTraceFile::open(p);
    EXPECT_EQ(file->payload_hash(), hdr.payload_hash);
    ReplayTrace replay(file);
    expect_same_events(drain(t), drain(replay));
}

TEST_F(BinFmtTest, AppNameTruncatedTo15Bytes)
{
    VectorTrace t = sample_trace(4);
    std::string p = path("longname.sgmb");
    write_bin_trace(t, p, "a-very-long-application-name", 1.0, 1);
    BinTraceHeader hdr;
    std::string error;
    ASSERT_TRUE(read_bin_header(p, hdr, error)) << error;
    EXPECT_EQ(hdr.app, "a-very-long-app");
}

TEST_F(BinFmtTest, ConverterTextToBinToTextIsIdentical)
{
    VectorTrace t;
    t.push(0xdeadbeef);
    t.push(0x10, true);
    t.push(0xffffffffffull);
    std::string text1 = path("a.txt");
    std::string bin = path("a.sgmb");
    std::string text2 = path("b.txt");
    write_trace_text(t, text1);

    auto src = open_trace(text1);
    write_bin_trace(*src, bin);
    auto back = open_trace(bin);
    write_trace_text(*back, text2);

    EXPECT_EQ(slurp(text1), slurp(text2));
}

TEST_F(BinFmtTest, OpenTraceSniffsBothFormats)
{
    VectorTrace t = sample_trace(64);
    auto expected = drain(t);

    std::string text = path("t.txt");
    std::string sgmb = path("t.sgmb");
    write_trace_text(t, text);
    write_bin_trace(t, sgmb);

    for (const std::string &p : {text, sgmb}) {
        auto src = open_trace(p);
        expect_same_events(expected, drain(*src));
    }
    // SGMB specifically gets the zero-copy mmap cursor.
    auto src = open_trace(sgmb);
    EXPECT_NE(dynamic_cast<ReplayTrace *>(src.get()), nullptr);
}

TEST_F(BinFmtTest, RejectsBadMagic)
{
    std::string p = valid_file();
    corrupt(p, 0, "NOPE", 4);
    std::string error;
    EXPECT_FALSE(MappedTraceFile::try_open(p, error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(BinFmtTest, RejectsUnknownVersion)
{
    std::string p = valid_file();
    uint32_t v = 99;
    corrupt(p, 4, &v, sizeof(v));
    std::string error;
    EXPECT_FALSE(MappedTraceFile::try_open(p, error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(BinFmtTest, RejectsForeignEndianness)
{
    std::string p = valid_file();
    uint32_t swapped = 0x04030201;
    corrupt(p, 8, &swapped, sizeof(swapped));
    std::string error;
    EXPECT_FALSE(MappedTraceFile::try_open(p, error));
    EXPECT_NE(error.find("endian"), std::string::npos) << error;
}

TEST_F(BinFmtTest, RejectsUnexpectedRecordSize)
{
    std::string p = valid_file();
    uint32_t rs = 12;
    corrupt(p, 12, &rs, sizeof(rs));
    std::string error;
    EXPECT_FALSE(MappedTraceFile::try_open(p, error));
    EXPECT_NE(error.find("record size"), std::string::npos) << error;
}

TEST_F(BinFmtTest, RejectsTruncatedHeader)
{
    std::string p = valid_file();
    truncate_to(p, 32);
    std::string error;
    EXPECT_FALSE(MappedTraceFile::try_open(p, error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST_F(BinFmtTest, RejectsTruncatedPayload)
{
    std::string p = valid_file("trunc.sgmb", 100);
    truncate_to(p, kBinTraceHeaderBytes + 99 * kBinTraceRecordBytes + 3);
    std::string error;
    EXPECT_FALSE(MappedTraceFile::try_open(p, error));
    EXPECT_NE(error.find("size mismatch"), std::string::npos) << error;
}

TEST_F(BinFmtTest, RejectsTrailingGarbage)
{
    std::string p = valid_file();
    std::ofstream(p, std::ios::app | std::ios::binary) << "extra";
    std::string error;
    EXPECT_FALSE(MappedTraceFile::try_open(p, error));
    EXPECT_NE(error.find("size mismatch"), std::string::npos) << error;
}

TEST_F(BinFmtTest, RejectsImplausibleRefCount)
{
    std::string p = valid_file();
    uint64_t huge = UINT64_MAX / 2;
    corrupt(p, 16, &huge, sizeof(huge));
    std::string error;
    EXPECT_FALSE(MappedTraceFile::try_open(p, error));
    EXPECT_NE(error.find("implausible"), std::string::npos) << error;
}

TEST_F(BinFmtTest, RejectsMissingFile)
{
    BinTraceHeader hdr;
    std::string error;
    EXPECT_FALSE(read_bin_header(path("nonexistent.sgmb"), hdr, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(MappedTraceFile::try_open(path("nonexistent.sgmb"),
                                           error));
}

TEST_F(BinFmtTest, FatalPathsDieCleanly)
{
    std::string p = valid_file();
    corrupt(p, 0, "NOPE", 4);
    EXPECT_DEATH({ MappedTraceFile::open(p); }, "magic");
    EXPECT_DEATH({ make_mapped_trace(p); }, "magic");
    // FileTrace refuses SGMB files with a pointer to the right API.
    std::string good = valid_file("good.sgmb");
    EXPECT_DEATH({ FileTrace f(good); }, "open_trace");
}

TEST_F(BinFmtTest, MultiCursorConcurrentReplayIsIdentical)
{
    VectorTrace t = sample_trace(20000);
    auto expected = drain(t);
    std::string p = path("mc.sgmb");
    write_bin_trace(t, p);

    auto file = MappedTraceFile::open(p);
    constexpr int kThreads = 4;
    std::vector<std::vector<TraceEvent>> got(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&file, &got, i] {
            ReplayTrace cursor(file);
            TraceEvent batch[97]; // odd size: exercise partial tails
            size_t n;
            while ((n = cursor.next_batch(batch, 97)) > 0)
                got[i].insert(got[i].end(), batch, batch + n);
        });
    }
    for (auto &th : threads)
        th.join();
    for (int i = 0; i < kThreads; ++i)
        expect_same_events(expected, got[i]);
}

TEST_F(BinFmtTest, CursorSeekAndReset)
{
    VectorTrace t = sample_trace(100);
    auto expected = drain(t);
    std::string p = path("seek.sgmb");
    write_bin_trace(t, p);

    ReplayTrace cursor(MappedTraceFile::open(p));
    cursor.seek(40);
    EXPECT_EQ(cursor.position(), 40u);
    auto tail = drain(cursor);
    ASSERT_EQ(tail.size(), 60u);
    EXPECT_EQ(tail[0].addr, expected[40].addr);
    cursor.reset();
    EXPECT_EQ(cursor.position(), 0u);
    expect_same_events(expected, drain(cursor));
    // Seeking past the end clamps instead of reading beyond it.
    cursor.seek(1000);
    EXPECT_EQ(cursor.position(), 100u);
    TraceEvent batch[8];
    EXPECT_EQ(cursor.next_batch(batch, 8), 0u);
}

/** One cursor class replays a heap buffer and a mapping alike. */
TEST_F(BinFmtTest, HeapAndMappedCursorsReplayIdentically)
{
    VectorTrace t = sample_trace(5000);
    auto expected = drain(t);
    auto heap = std::make_shared<PackedTrace>();
    for (const TraceEvent &ev : expected)
        heap->push_back(pack_trace_event(ev));
    std::string p = path("same.sgmb");
    write_bin_trace(t, p);

    ReplayTrace from_heap{std::shared_ptr<const PackedTrace>(heap)};
    ReplayTrace from_file(MappedTraceFile::open(p));
    EXPECT_EQ(from_heap.size_hint(), from_file.size_hint());
    expect_same_events(expected, drain(from_heap));
    expect_same_events(expected, drain(from_file));
    // The cursor keeps its owner alive.
    std::weak_ptr<PackedTrace> weak = heap;
    heap.reset();
    EXPECT_FALSE(weak.expired());
}

TEST_F(BinFmtTest, TextReaderBatchesMatchPerRefReads)
{
    // Comments, blank lines, and a final line with no newline.
    std::string p = path("hand.txt");
    {
        std::ofstream f(p);
        f << "# hand-written trace\n";
        f << "R 100\n\nW 200\n";
        for (int i = 0; i < 500; ++i)
            f << (i % 2 ? "W " : "R ") << std::hex << (i * 8192) << "\n";
        f << "R deadbeef"; // no trailing newline
    }
    FileTrace per_ref(p);
    auto expected = drain(per_ref);
    ASSERT_EQ(expected.size(), 503u);
    EXPECT_EQ(expected.back().addr, 0xdeadbeefull);

    FileTrace batched(p);
    std::vector<TraceEvent> got;
    TraceEvent batch[7];
    size_t n;
    while ((n = batched.next_batch(batch, 7)) > 0)
        got.insert(got.end(), batch, batch + n);
    expect_same_events(expected, got);
}

/**
 * Trace-store fixture: every test gets a private mapped-tier
 * directory and leaves the store in the default heap configuration.
 */
class TraceStoreTierTest : public BinFmtTest
{
  protected:
    void
    SetUp() override
    {
        trace_store_set_dir("");
        trace_store_set_budget_bytes(256ull << 20);
        trace_store_clear();
    }

    void
    TearDown() override
    {
        trace_store_set_dir("");
        trace_store_set_budget_bytes(256ull << 20);
        trace_store_clear();
    }
};

TEST_F(TraceStoreTierTest, MappedTierServesAndReplaysIdentically)
{
    trace_store_set_dir(dir_);
    TraceStoreStats before = trace_store_stats();
    auto stored = make_stored_app_trace("gdb", 0.02, 3);
    TraceStoreStats after = trace_store_stats();
    EXPECT_EQ(after.baked_files - before.baked_files, 1u);
    EXPECT_EQ(after.mapped_files - before.mapped_files, 1u);
    EXPECT_GT(after.mapped_bytes, 0u);

    auto reference = make_app_trace("gdb", 0.02, 3);
    expect_same_events(drain(*reference), drain(*stored));
}

TEST_F(TraceStoreTierTest, BakedFileReusedAcrossClears)
{
    trace_store_set_dir(dir_);
    make_stored_app_trace("gdb", 0.02, 3);
    TraceStoreStats baked_once = trace_store_stats();

    // clear() drops the in-process mapping, approximating a fresh
    // process (or a forked worker starting over): the file on disk
    // must be reused, not re-baked.
    trace_store_clear();
    auto stored = make_stored_app_trace("gdb", 0.02, 3);
    TraceStoreStats again = trace_store_stats();
    EXPECT_EQ(again.baked_files, baked_once.baked_files);
    EXPECT_EQ(again.mapped_files - baked_once.mapped_files, 1u);
    EXPECT_GT(drain(*stored).size(), 0u);
}

TEST_F(TraceStoreTierTest, CorruptBakeIsRebaked)
{
    trace_store_set_dir(dir_);
    make_stored_app_trace("gdb", 0.02, 3);
    std::string p = baked_trace_path(dir_, "gdb", 0.02, 3);
    truncate_to(p, kBinTraceHeaderBytes + 8); // stale truncated copy
    trace_store_clear();

    TraceStoreStats before = trace_store_stats();
    auto stored = make_stored_app_trace("gdb", 0.02, 3);
    TraceStoreStats after = trace_store_stats();
    EXPECT_EQ(after.baked_files - before.baked_files, 1u);
    auto reference = make_app_trace("gdb", 0.02, 3);
    expect_same_events(drain(*reference), drain(*stored));
}

TEST_F(TraceStoreTierTest, BiggerThanBudgetTraceReplaysMapped)
{
    // A budget no trace fits in: the heap tier alone would stream
    // every request, but the mapped tier is file-backed and exempt.
    trace_store_set_budget_bytes(4096);
    trace_store_set_dir(dir_);

    TraceStoreStats before = trace_store_stats();
    auto stored = make_stored_app_trace("gdb", 0.02, 3);
    TraceStoreStats after = trace_store_stats();
    EXPECT_EQ(after.fallbacks, before.fallbacks);
    EXPECT_EQ(after.mapped_files - before.mapped_files, 1u);
    EXPECT_EQ(after.bytes, 0u); // nothing on the heap, nothing budgeted

    auto reference = make_app_trace("gdb", 0.02, 3);
    expect_same_events(drain(*reference), drain(*stored));

    // Same request without the mapped tier falls back to streaming.
    trace_store_set_dir("");
    trace_store_clear();
    auto streamed = make_stored_app_trace("gdb", 0.02, 3);
    TraceStoreStats fb = trace_store_stats();
    EXPECT_GT(fb.fallbacks, after.fallbacks);
    reference->reset();
    expect_same_events(drain(*reference), drain(*streamed));
}

TEST_F(TraceStoreTierTest, MappedRequestsHitTheCachedMapping)
{
    trace_store_set_dir(dir_);
    make_stored_app_trace("gdb", 0.02, 3);
    TraceStoreStats first = trace_store_stats();
    auto again = make_stored_app_trace("gdb", 0.02, 3);
    TraceStoreStats second = trace_store_stats();
    EXPECT_EQ(second.hits - first.hits, 1u);
    EXPECT_EQ(second.mapped_files, first.mapped_files);
    EXPECT_EQ(second.mapped_bytes, first.mapped_bytes);
    EXPECT_GT(drain(*again).size(), 0u);
}

/**
 * The pipeline's central promise: full Experiment::run results are
 * byte-identical whether the trace came from the heap store, a
 * streaming generator, or an mmap'd bake — for every app model.
 */
TEST_F(TraceStoreTierTest, ExperimentResultsByteIdenticalAcrossTiers)
{
    for (const std::string &app : app_names()) {
        Experiment ex;
        ex.app = app;
        ex.scale = 0.02;
        ex.seed = 1;
        ex.policy = "eager";
        ex.subpage_size = 1024;
        ex.mem = MemConfig::Half;

        // Heap tier (default store).
        trace_store_set_dir("");
        trace_store_set_budget_bytes(256ull << 20);
        trace_store_clear();
        std::string heap_blob = exec::result_blob(ex.run());

        // Streaming fallback (budget forces it).
        trace_store_set_budget_bytes(0);
        trace_store_clear();
        std::string stream_blob = exec::result_blob(ex.run());

        // Mapped tier.
        trace_store_set_budget_bytes(256ull << 20);
        trace_store_set_dir(dir_);
        trace_store_clear();
        std::string mmap_blob = exec::result_blob(ex.run());

        EXPECT_EQ(heap_blob, stream_blob) << app;
        EXPECT_EQ(heap_blob, mmap_blob) << app;
        trace_store_set_dir("");
    }
}

/** --trace-bin end to end: an experiment replaying an SGMB file. */
TEST_F(TraceStoreTierTest, ExperimentTraceBinMatchesMappedReplay)
{
    std::string p = bake_app_trace("gdb", 0.02, 3, dir_);

    Experiment file_ex;
    file_ex.app = "gdb-file"; // label only; the file is the trace
    file_ex.scale = 0.02;
    file_ex.seed = 3;
    file_ex.policy = "eager";
    file_ex.subpage_size = 1024;
    file_ex.mem = MemConfig::Half;
    file_ex.trace_bin = p;
    SimResult from_file = file_ex.run();

    Experiment synth_ex = file_ex;
    synth_ex.app = "gdb";
    synth_ex.trace_bin.clear();
    trace_store_set_dir("");
    trace_store_clear();
    SimResult from_synth = synth_ex.run();

    // Identity fields differ (the app label), but every measurement
    // must match: the file holds exactly the generator's references.
    EXPECT_EQ(from_file.refs, from_synth.refs);
    EXPECT_EQ(from_file.page_faults, from_synth.page_faults);
    EXPECT_EQ(from_file.runtime, from_synth.runtime);
    EXPECT_EQ(from_file.exec_time, from_synth.exec_time);
    EXPECT_EQ(from_file.mem_pages, from_synth.mem_pages);
}

/**
 * A path baked again with another trace holds another trace: the
 * footprint memo, and with it mem_pages, must follow the file's
 * content, not its name.
 */
TEST_F(BinFmtTest, TraceBinFootprintFollowsTheFileNotThePath)
{
    const std::string p = path("rebaked.sgmb");
    Experiment ex;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;
    ex.trace_bin = p;

    // sample_trace(n) touches n distinct 8K pages.
    VectorTrace first = sample_trace(100);
    write_bin_trace(first, p);
    SimConfig a = ex.config();
    EXPECT_EQ(a.footprint_pages_hint, 100u);
    EXPECT_EQ(a.mem_pages, 50u);

    VectorTrace second = sample_trace(300);
    write_bin_trace(second, p);
    SimConfig b = ex.config();
    EXPECT_EQ(b.footprint_pages_hint, 300u);
    EXPECT_EQ(b.mem_pages, 150u);
}

} // namespace
} // namespace sgms
