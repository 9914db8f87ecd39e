/**
 * @file
 * Tests for the parallel execution engine (src/exec/): option
 * parsing, result-blob codec fidelity, cache keying and blob
 * robustness, and the engine's determinism, progress and exception
 * contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <condition_variable>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/json_report.h"
#include "core/sweep.h"
#include "exec/parallel_runner.h"
#include "exec/result_cache.h"
#include "exec/result_codec.h"
#include "obs/tracer.h"
#include "temp_dir.h"
#include "trace/binfmt.h"
#include "trace/trace_store.h"

namespace sgms
{
namespace
{

using exec::CacheKey;
using exec::Engine;
using exec::ExecOptions;
using exec::ResultCache;

/** Fresh, empty per-test cache directory under the gtest temp dir. */
std::string
scratch_dir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "sgms_exec_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
blobs_of(const std::vector<SimResult> &results)
{
    std::string out;
    for (const auto &r : results)
        out += exec::result_blob(r);
    return out;
}

std::string
report_of(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    write_results_json(os, results, /*include_faults=*/true);
    return os.str();
}

// ------------------------------------------------------------- options

Options
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return Options(static_cast<int>(args.size()),
                   const_cast<char **>(args.data()));
}

TEST(ExecOptionsDeathTest, CountsThatDoNotFitUnsignedAreFatal)
{
    // Each of these once wrapped around silently: 2^32 + 1 jobs ran
    // serially and 2^32 workers stayed in-process. Parsing only; no
    // engine is ever built at these widths.
    EXPECT_DEATH(ExecOptions::from_options(parse({"--jobs=4294967297"})),
                 "--jobs=4294967297 does not fit");
    EXPECT_DEATH(
        ExecOptions::from_options(parse({"--workers=4294967296"})),
        "--workers=4294967296 does not fit");
    EXPECT_DEATH(
        {
            ::setenv("SGMS_JOBS", "4294967297", 1);
            ExecOptions::from_env();
        },
        "SGMS_JOBS=4294967297 does not fit");
    EXPECT_DEATH(
        {
            ::setenv("SGMS_WORKERS", "4294967296", 1);
            ExecOptions::from_env();
        },
        "SGMS_WORKERS=4294967296 does not fit");
    EXPECT_EQ(
        ExecOptions::from_options(parse({"--jobs=4294967295"})).jobs,
        4294967295u);
}

// --------------------------------------------------------------- codec

/**
 * A SimResult with every field (and nested array) populated, and
 * extreme values: quotes, control and non-ASCII bytes in a string,
 * INT64_MIN and UINT64_MAX.
 */
SimResult
rich_result()
{
    SimResult r;
    r.app = "app \"quoted\"\n\t\\ \x01\r caf\xc3\xa9";
    r.policy = "pipelining";
    r.page_size = 8192;
    r.subpage_size = 512;
    r.mem_pages = 321;
    r.refs = 123456789;
    r.page_faults = 1021;
    r.lazy_subpage_faults = 77;
    r.evictions = 5;
    r.putpages = 6;
    r.emulated_accesses = 7;
    r.runtime = 9007199254740993ll; // needs exact 64-bit decode
    r.exec_time = 123;
    r.sp_latency = 456;
    r.page_wait = 789;
    r.recv_overhead = 10;
    r.emulation_overhead = 11;
    r.tlb_overhead = 12;
    r.io_overlap = 13;
    r.comp_overlap = std::numeric_limits<Tick>::min();
    r.faults.push_back({42, 9, 1000, 2000, 3000, true});
    r.faults.push_back({43, 10, 1001, 2001, 0, false});
    r.clustering.name = "clustering";
    r.clustering.add(0.1, 1); // 0.1 is not exact in binary
    r.clustering.add(2e6, 3.25);
    r.next_subpage_distance.add(-3, 2);
    r.next_subpage_distance.add(1, 9);
    r.net_stats.messages = 100;
    r.net_stats.bytes = 200;
    for (size_t k = 0; k < kMsgKindCount; ++k) {
        r.net_stats.messages_by_kind[k] = 10 + k;
        r.net_stats.bytes_by_kind[k] = 20 + k;
    }
    r.net_stats.dropped = 1;
    r.net_stats.corrupted = 2;
    r.net_stats.duplicated = 3;
    r.tlb_stats.hits = std::numeric_limits<uint64_t>::max();
    r.tlb_stats.misses = 60;
    r.global_discards = 4;
    r.retries = 3;
    r.timeouts = 2;
    r.degraded_fetches = 1;
    r.duplicate_deliveries = 8;
    r.server_failures = 1;
    r.metrics.push_back(
        {"a.counter", obs::MetricKind::Counter, 4.0, 0, 0, 0, 0});
    r.metrics.push_back(
        {"b.gauge", obs::MetricKind::Gauge, 0.125, 0, 0, 0, 0});
    r.metrics.push_back({"c.dist", obs::MetricKind::Distribution,
                         6.6e6, 3, 2.2e6, 1.0e6, 3.0e6});
    r.requester_wire_busy = 15;
    r.requester_dma_busy = 16;
    r.requester_cpu_busy = 17;
    return r;
}

TEST(ResultCodec, RoundTripsEveryFieldExactly)
{
    SimResult r = rich_result();
    std::string blob = exec::result_blob(r);
    SimResult back;
    ASSERT_TRUE(exec::read_result_blob(blob, back));
    // Byte-identical re-encode is the strongest equality we have
    // (SimResult has no operator==) and exactly what the cache needs.
    EXPECT_EQ(exec::result_blob(back), blob);
    // Spot-check the trickiest representations anyway.
    EXPECT_EQ(back.app, r.app);
    EXPECT_EQ(back.runtime, 9007199254740993ll);
    ASSERT_EQ(back.faults.size(), 2u);
    EXPECT_EQ(back.faults[0].page, 42u);
    EXPECT_TRUE(back.faults[0].from_disk);
    EXPECT_FALSE(back.faults[1].from_disk);
    ASSERT_EQ(back.clustering.points.size(), 2u);
    EXPECT_EQ(back.clustering.points[0].first, 0.1);
    EXPECT_EQ(back.next_subpage_distance.count(-3), 2u);
    EXPECT_EQ(back.net_stats.messages_by_kind[kMsgKindCount - 1],
              10 + kMsgKindCount - 1);
    ASSERT_EQ(back.metrics.size(), 3u);
    EXPECT_EQ(back.metrics[2].kind, obs::MetricKind::Distribution);
    EXPECT_EQ(back.metrics[2].count, 3u);
}

TEST(ResultCodec, EmptyResultRoundTrips)
{
    SimResult r;
    std::string blob = exec::result_blob(r);
    SimResult back;
    ASSERT_TRUE(exec::read_result_blob(blob, back));
    EXPECT_EQ(exec::result_blob(back), blob);
}

/** The offset of the first copy of @p v's bytes in @p blob. */
template <class T>
size_t
find_raw(const std::string &blob, T v)
{
    std::string bytes(sizeof(T), '\0');
    std::memcpy(bytes.data(), &v, sizeof(T));
    return blob.find(bytes);
}

/** @p blob with the bytes of @p v written over those at @p at. */
template <class T>
std::string
with_raw(std::string blob, size_t at, T v)
{
    std::memcpy(blob.data() + at, &v, sizeof(T));
    return blob;
}

TEST(ResultCodec, RejectsDamagedBlobs)
{
    const std::string good = exec::result_blob(rich_result());
    SimResult out;
    ASSERT_TRUE(exec::read_result_blob(good, out));
    EXPECT_FALSE(exec::read_result_blob("", out));
    for (size_t n = 0; n < good.size(); ++n)
        ASSERT_FALSE(exec::read_result_blob(good.substr(0, n), out)) << n;
    EXPECT_FALSE(exec::read_result_blob(good + '\0', out));

    // The u32 schema word opens the blob: the JSON era's 1, and this
    // version as a host of the other byte order writes it.
    EXPECT_FALSE(exec::read_result_blob(with_raw<uint32_t>(good, 0, 1), out));
    EXPECT_FALSE(exec::read_result_blob(
        with_raw(good, 0, __builtin_bswap32(exec::kResultBlobSchema)), out));

    // The first fault's from_disk byte follows its page_wait (3000).
    size_t from_disk = find_raw<Tick>(good, 3000) + sizeof(Tick);
    ASSERT_EQ(good.at(from_disk), 1);
    EXPECT_TRUE(exec::read_result_blob(with_raw<uint8_t>(good, from_disk, 0),
                                       out));
    EXPECT_FALSE(exec::read_result_blob(
        with_raw<uint8_t>(good, from_disk, 2), out));

    // The kind byte follows a metric's name; 2 is Distribution.
    size_t kind = good.find("c.dist") + 6;
    ASSERT_EQ(good.at(kind), 2);
    EXPECT_FALSE(exec::read_result_blob(with_raw<uint8_t>(good, kind, 3),
                                        out));

    // The histogram's two (bin, count) pairs, (-3, 2) then (1, 9),
    // swapped; and the second bin equal to the first.
    size_t bins = find_raw<int64_t>(good, -3);
    ASSERT_NE(bins, std::string::npos);
    std::string swapped = good;
    swapped.replace(bins, 16, good, bins + 16, 16);
    swapped.replace(bins + 16, 16, good, bins, 16);
    EXPECT_FALSE(exec::read_result_blob(swapped, out));
    EXPECT_FALSE(exec::read_result_blob(
        with_raw<int64_t>(good, bins + 16, -3), out));

    // The metrics count (3) precedes the first name's length: one
    // more element than the blob holds, and a count past any blob.
    size_t metrics = good.find("a.counter") - 2 * sizeof(uint64_t);
    uint64_t n = 0;
    std::memcpy(&n, good.data() + metrics, sizeof(n));
    ASSERT_EQ(n, 3u);
    EXPECT_FALSE(exec::read_result_blob(with_raw<uint64_t>(good, metrics, 4),
                                        out));
    EXPECT_FALSE(exec::read_result_blob(
        with_raw(good, metrics, std::numeric_limits<uint64_t>::max()), out));
}

TEST(ResultCodec, WriterBytesArePinned)
{
    // A layout change shows here first, on a blob small enough to
    // read by hand. 747 bytes: the schema (4), app and policy
    // (8 + 24, 8 + 10), page and subpage size (4 + 4), 16 numbers
    // (128), 2 faults (8 + 82), the clustering name (8 + 10), 2 points
    // and 2 bins (40 + 40), 21 net, TLB and reliability numbers (168),
    // 3 metrics (8 + 169) and 3 ticks (24).
    const std::string blob = exec::result_blob(rich_result());
    EXPECT_EQ(blob.size(), 747u);
    EXPECT_EQ(fnv1a_bytes(blob.data(), blob.size()), 0x0ff1f823d294d0adull);
}

TEST(ResultCodec, PaddingBytesNeverReachABlob)
{
    // FaultRecord ends in a bool, so it has padding. Fill the storage
    // of two equal fault lists with different bytes, then set every
    // field: only the padding differs, and the blobs must not.
    auto filled = [](unsigned char fill) {
        SimResult r = rich_result();
        const std::vector<FaultRecord> want = r.faults;
        std::memset(static_cast<void *>(r.faults.data()), fill,
                    r.faults.size() * sizeof(FaultRecord));
        for (size_t i = 0; i < want.size(); ++i) {
            FaultRecord &f = r.faults[i];
            f.page = want[i].page;
            f.ref_index = want[i].ref_index;
            f.at = want[i].at;
            f.sp_wait = want[i].sp_wait;
            f.page_wait = want[i].page_wait;
            f.from_disk = want[i].from_disk;
        }
        return r;
    };
    SimResult a = filled(0x00);
    SimResult b = filled(0xa5);
    ASSERT_NE(std::memcmp(static_cast<const void *>(a.faults.data()),
                          static_cast<const void *>(b.faults.data()),
                          a.faults.size() * sizeof(FaultRecord)),
              0);
    EXPECT_EQ(exec::result_blob(a), exec::result_blob(b));
}

/**
 * Seeded finite doubles: random bit patterns, integers up to 2^63
 * (and around 1e15), subnormals, short decimals, and the named
 * extremes.
 */
std::vector<double>
tricky_doubles()
{
    std::vector<double> v = {
        0.0, -0.0, 0.1, -0.1, 0.5, 1e15, -1e15, 1e15 - 1, 1e16, 1e17,
        1e-4, 1e-5, 9007199254740992.0, 9223372036854775808.0, DBL_MAX,
        -DBL_MAX, DBL_MIN, -DBL_MIN,
        std::numeric_limits<double>::denorm_min()};
    Rng rng(17);
    auto from_bits = [](uint64_t bits) {
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    };
    auto sign = [&rng](double d) { return rng.chance(0.5) ? -d : d; };
    while (v.size() < 120000) {
        double d = 0;
        switch (v.size() % 5) {
          case 0:
            d = from_bits(rng.next());
            break;
          case 1:
            d = sign(static_cast<double>(rng.next() >> (1 + rng.below(63))));
            break;
          case 2:
            d = sign(1e15 + static_cast<double>(rng.below(2001)) - 1000);
            break;
          case 3:
            d = from_bits(rng.next() & ((1ULL << 52) - 1));
            d = sign(d);
            break;
          default:
            d = sign(static_cast<double>(rng.below(100000)) *
                     std::pow(10.0, static_cast<int>(rng.below(40)) - 20));
        }
        if (std::isfinite(d))
            v.push_back(d);
    }
    return v;
}

TEST(ResultCodec, DoublesRoundTripBitExactly)
{
    std::vector<double> values = tricky_doubles();
    SimResult r;
    for (size_t i = 0; i + 1 < values.size(); i += 2)
        r.clustering.add(values[i], values[i + 1]);
    std::string blob = exec::result_blob(r);

    // Bit-exact decode, -0.0 and subnormals included.
    SimResult back;
    ASSERT_TRUE(exec::read_result_blob(blob, back));
    const auto &got = back.clustering.points;
    ASSERT_EQ(got.size(), r.clustering.points.size());
    EXPECT_EQ(std::memcmp(got.data(), r.clustering.points.data(),
                          got.size() * sizeof(got[0])),
              0);
}

TEST(ResultCodec, HostileBytesDecodeOnlyToCanonicalBlobs)
{
    // A real blob: 206 faults and the full metric snapshot, ~16 KB.
    // Every prefix costs a decode, so the test grows with its square.
    Experiment ex;
    ex.app = "ld";
    ex.scale = 0.02;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;
    SimResult real = ex.run();
    ASSERT_GE(real.faults.size(), 200u);
    const std::string good = exec::result_blob(real);

    // Every mutant either fails to decode, or decodes to a result
    // that encodes back to exactly the mutant's bytes.
    SimResult out;
    size_t accepted = 0;
    auto probe = [&](const std::string &m, const char *how) {
        if (exec::read_result_blob(m, out)) {
            ++accepted;
            EXPECT_EQ(exec::result_blob(out), m) << how;
        }
    };

    // Every strict prefix, cut in place from the longest down.
    std::string cut = good;
    while (!cut.empty()) {
        cut.pop_back();
        ASSERT_FALSE(exec::read_result_blob(cut, out)) << cut.size();
    }

    Rng rng(2024);
    auto below = [&rng](size_t n) {
        return static_cast<size_t>(rng.below(n));
    };
    for (int i = 0; i < 2000; ++i) {
        std::string m = good;
        m[below(m.size())] ^= static_cast<char>(1 << below(8));
        probe(m, "flip");
    }
    for (int i = 0; i < 1000; ++i) {
        std::string m = good;
        m.insert(below(m.size() + 1), 1, static_cast<char>(below(256)));
        probe(m, "insert");
    }
    for (int i = 0; i < 1000; ++i) {
        std::string m = good;
        m.erase(below(m.size()), 1 + below(8));
        probe(m, "delete");
    }
    for (int i = 0; i < 500; ++i) {
        std::string m = good;
        size_t from = below(m.size());
        std::string span = m.substr(from, 1 + below(200));
        m.insert(below(m.size() + 1), span);
        probe(m, "splice");
    }

    // Edits of the u64 counts: every 8-byte window that holds the
    // length of a string or an array of this blob, the real count
    // fields among them, set to a nearby, empty, huge or
    // end-of-blob count.
    std::set<uint64_t> counts = {
        real.app.size(),
        real.policy.size(),
        real.faults.size(),
        real.clustering.name.size(),
        real.clustering.points.size(),
        real.next_subpage_distance.bins().size(),
        real.metrics.size()};
    for (const obs::MetricSample &m : real.metrics)
        counts.insert(m.name.size());
    size_t windows = 0;
    for (size_t at = 0; at + sizeof(uint64_t) <= good.size(); ++at) {
        uint64_t n = 0;
        std::memcpy(&n, good.data() + at, sizeof(n));
        if (!counts.count(n))
            continue;
        ++windows;
        for (uint64_t edit :
             {n - 1, n + 1, uint64_t{0}, 2 * n, uint64_t{good.size() - at},
              std::numeric_limits<uint64_t>::max(), (uint64_t{1} << 32) + n})
            probe(with_raw(good, at, edit), "count");
    }
    EXPECT_GE(windows, counts.size());
    // Flips inside numbers leave canonical blobs behind, so the
    // accepting path is exercised too.
    EXPECT_GT(accepted, 0u);
}

// --------------------------------------------------------------- cache

TEST(ResultCache, KeyIsStableAcrossIdenticalExperiments)
{
    Experiment a;
    a.app = "modula3";
    a.scale = 0.1;
    Experiment b = a;
    EXPECT_EQ(exec::cache_key_of(a), exec::cache_key_of(b));
    EXPECT_EQ(exec::cache_key_of(a).hex(),
              exec::cache_key_of(b).hex());
    EXPECT_EQ(exec::cache_key_of(a).hex().size(), 32u);
    EXPECT_EQ(exec::experiment_fingerprint(a),
              exec::experiment_fingerprint(b));
}

TEST(ResultCache, KeyChangesWhenAnyInputChanges)
{
    Experiment base;
    base.app = "modula3";
    base.scale = 0.1;
    base.policy = "eager";

    std::vector<Experiment> variants;
    auto vary = [&](auto &&mutate) {
        Experiment ex = base;
        mutate(ex);
        variants.push_back(ex);
    };
    vary([](Experiment &e) { e.app = "gdb"; });
    vary([](Experiment &e) { e.scale = 0.2; });
    vary([](Experiment &e) { e.seed = 2; });
    vary([](Experiment &e) { e.policy = "pipelining"; });
    vary([](Experiment &e) { e.subpage_size = 2048; });
    vary([](Experiment &e) { e.mem = MemConfig::Quarter; });
    vary([](Experiment &e) { e.base.net.wire_per_byte *= 2; });
    vary([](Experiment &e) { e.base.gms.servers += 1; });
    vary([](Experiment &e) { e.base.disk.base += 1; });
    vary([](Experiment &e) { e.base.faults.duplicate_prob = 0.5; });
    vary([](Experiment &e) { e.base.faults.seed += 1; });
    vary([](Experiment &e) { e.base.retry.max_attempts += 1; });
    vary([](Experiment &e) { e.base.tlb_entries += 1; });
    vary([](Experiment &e) { e.base.record_faults = false; });

    std::set<std::string> keys;
    keys.insert(exec::cache_key_of(base).hex());
    for (const Experiment &ex : variants)
        keys.insert(exec::cache_key_of(ex).hex());
    // Every variant — and the base — must land on its own key.
    EXPECT_EQ(keys.size(), variants.size() + 1);
}

TEST(ResultCache, StoreThenLoadRoundTrips)
{
    ResultCache cache(scratch_dir("roundtrip"));
    CacheKey key{0x1234, 0x5678};
    EXPECT_FALSE(cache.load(key).has_value()); // cold miss
    SimResult r = rich_result();
    cache.store(key, r);
    auto back = cache.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(exec::result_blob(*back), exec::result_blob(r));
    exec::CacheStats s = cache.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.decode_failures, 0u);
    // A different key is a different blob: no accidental aliasing.
    EXPECT_FALSE(cache.load(CacheKey{0x1234, 0x5679}).has_value());
}

TEST(ResultCache, CorruptedBlobReadsAsMissNotFatal)
{
    ResultCache cache(scratch_dir("corrupt"));
    CacheKey key{1, 2};
    cache.store(key, rich_result());
    {
        std::ofstream f(cache.blob_path(key),
                        std::ios::binary | std::ios::trunc);
        f << "{\"schema\":1, \x01\x02 definitely not json";
    }
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().decode_failures, 1u);
}

TEST(ResultCache, TruncatedBlobReadsAsMissNotFatal)
{
    ResultCache cache(scratch_dir("truncated"));
    CacheKey key{3, 4};
    SimResult r = rich_result();
    cache.store(key, r);
    std::string blob = exec::result_blob(r);
    {
        // Simulate a torn write: the first half of a valid blob.
        std::ofstream f(cache.blob_path(key),
                        std::ios::binary | std::ios::trunc);
        f << blob.substr(0, blob.size() / 2);
    }
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().decode_failures, 1u);
    // Re-store repairs it.
    cache.store(key, r);
    EXPECT_TRUE(cache.load(key).has_value());
}

// -------------------------------------------------------------- engine

/** The determinism grid: small but multi-policy, multi-size. */
SweepSpec
engine_spec()
{
    SweepSpec spec;
    spec.apps = {"gdb"};
    spec.policies = {"fullpage", "eager", "pipelining"};
    spec.subpage_sizes = {1024, 2048};
    spec.mems = {MemConfig::Half};
    spec.scale = 0.3;
    return spec;
}

TEST(Engine, ExpandSweepMatchesPointCountAndOrder)
{
    SweepSpec spec = engine_spec();
    std::vector<Experiment> points = exec::expand_sweep(spec);
    ASSERT_EQ(points.size(), spec.point_count());
    EXPECT_EQ(points[0].policy, "fullpage");
    EXPECT_EQ(points[1].policy, "eager");
    EXPECT_EQ(points[1].subpage_size, 1024u);
    EXPECT_EQ(points[2].subpage_size, 2048u);
    EXPECT_EQ(points[3].policy, "pipelining");
}

TEST(Engine, ParallelResultsAreByteIdenticalToSerial)
{
    SweepSpec spec = engine_spec();

    ExecOptions serial_eo;
    serial_eo.jobs = 1;
    Engine serial(serial_eo);
    std::vector<SimResult> s = serial.run_sweep(spec);

    ExecOptions par_eo;
    par_eo.jobs = 8; // more workers than points is fine
    Engine par(par_eo);
    std::vector<SimResult> p = par.run_sweep(spec);

    ASSERT_EQ(s.size(), spec.point_count());
    ASSERT_EQ(p.size(), s.size());
    // Bytes, not fields: the lossless blob covers every field, and
    // the report is what downstream tooling actually diffs.
    EXPECT_EQ(blobs_of(p), blobs_of(s));
    EXPECT_EQ(report_of(p), report_of(s));

    exec::ExecStats ps = par.stats();
    EXPECT_EQ(ps.points_run, s.size());
    EXPECT_EQ(ps.points_cached, 0u);
    EXPECT_EQ(ps.workers, 8u);
}

TEST(Engine, ThrowingPointReachesTheCallerAfterEveryWorkerStops)
{
    SweepSpec spec;
    spec.apps = {"modula3"};
    spec.policies = {"eager", "pipelining"};
    spec.subpage_sizes = {1024, 2048};
    spec.mems = {MemConfig::Half, MemConfig::Quarter};
    spec.scale = 0.05;
    std::vector<Experiment> points = exec::expand_sweep(spec);
    ASSERT_EQ(points.size(), 8u);

    ExecOptions eo;
    eo.jobs = 4;
    Engine engine(eo);
    // Point 0's progress callback throws once every worker has
    // claimed a point, so the exception leaves while the other
    // workers still simulate the points they claimed, writing into
    // run_all's result slots.
    const std::string thrower = exec::experiment_fingerprint(points[0]);
    std::atomic<uint64_t> claimed{0};
    auto progress = [&](const Experiment &ex) {
        claimed.fetch_add(1);
        if (exec::experiment_fingerprint(ex) != thrower)
            return;
        while (claimed.load() < eo.jobs)
            std::this_thread::yield();
        throw std::runtime_error("progress callback failed");
    };
    EXPECT_THROW(engine.run_all(points, progress), std::runtime_error);
    EXPECT_GT(claimed.load(), 1u);
    // Every claimed point but the thrower finished before the throw.
    EXPECT_EQ(engine.stats().points_run, claimed.load() - 1);

    std::vector<SimResult> again = engine.run_all(points);
    Engine serial(ExecOptions{});
    EXPECT_EQ(blobs_of(again), blobs_of(serial.run_all(points)));
}

TEST(Engine, SerialProgressRunsOnCallerThreadInOrder)
{
    std::vector<Experiment> points =
        exec::expand_sweep(engine_spec());
    Engine engine(ExecOptions{}); // jobs = 1
    std::vector<std::string> seen;
    std::thread::id caller = std::this_thread::get_id();
    bool all_on_caller = true;
    engine.run_all(points, [&](const Experiment &ex) {
        seen.push_back(ex.label());
        all_on_caller &= std::this_thread::get_id() == caller;
    });
    ASSERT_EQ(seen.size(), points.size());
    EXPECT_TRUE(all_on_caller);
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(seen[i], points[i].label()) << i;
}

TEST(Engine, ParallelProgressFiresOncePerPointFromWorkerThreads)
{
    std::vector<Experiment> points =
        exec::expand_sweep(engine_spec());
    ExecOptions eo;
    eo.jobs = 4;
    Engine engine(eo);
    std::mutex mu;
    std::multiset<std::string> seen;
    std::set<std::thread::id> threads;
    std::thread::id caller = std::this_thread::get_id();
    engine.run_all(points, [&](const Experiment &ex) {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(ex.label());
        threads.insert(std::this_thread::get_id());
    });
    // Exactly once per point (multiset catches duplicates) ...
    ASSERT_EQ(seen.size(), points.size());
    for (const Experiment &ex : points)
        EXPECT_EQ(seen.count(ex.label()),
                  static_cast<size_t>(
                      std::count_if(points.begin(), points.end(),
                                    [&](const Experiment &p) {
                                        return p.label() == ex.label();
                                    })))
            << ex.label();
    // ... and never on the calling thread: the documented contract is
    // that jobs>1 callbacks arrive on worker threads.
    EXPECT_EQ(threads.count(caller), 0u);
    EXPECT_GE(threads.size(), 1u);
}

/**
 * The benchmark's fault_storm grid in miniature: one baked trace under
 * disk, fullpage, eager and pipelining at 1/2 and 1/4 memory, in
 * input order.
 */
std::vector<Experiment>
storm_points(const std::string &trace_bin)
{
    std::vector<Experiment> points;
    for (MemConfig mem : {MemConfig::Half, MemConfig::Quarter}) {
        for (const char *policy :
             {"disk", "fullpage", "eager", "pipelining"}) {
            Experiment ex;
            ex.app = "storm";
            ex.trace_bin = trace_bin;
            ex.policy = policy;
            ex.subpage_size = 1024;
            ex.mem = mem;
            points.push_back(ex);
        }
    }
    return points;
}

TEST(Engine, ClaimOrderIsLongestFirstAndNeverFails)
{
    test::TempDir dir;
    std::vector<Experiment> points =
        storm_points(bake_app_trace("gdb", 0.05, 1, dir.path()));
    // A fault sends 5 messages under pipelining (request, demand, two
    // neighbours, rest), 3 under eager, 2 under fullpage and none
    // under disk; ties keep input order.
    EXPECT_EQ(exec::claim_order(points),
              (std::vector<size_t>{3, 7, 2, 6, 1, 5, 0, 4}));

    // Clients multiply the cost.
    points[4].clients = 8;
    EXPECT_EQ(exec::claim_order(points).front(), 4u);

    // What the estimate cannot name costs 0; the point fails later,
    // where it runs.
    points[4].clients = 1;
    points[3].policy = "no-such-policy";
    points[7].trace_bin = dir.path() + "/missing.sgmb";
    points[2].subpage_size = 3000;
    points[6].app = "no-such-app";
    points[6].trace_bin.clear();
    EXPECT_EQ(exec::claim_order(points),
              (std::vector<size_t>{1, 5, 0, 4, 2, 3, 6, 7}));
}

TEST(Engine, ThreadsClaimTheLongestPointsFirst)
{
    test::TempDir dir;
    std::vector<Experiment> points =
        storm_points(bake_app_trace("gdb", 0.05, 1, dir.path()));
    ExecOptions eo;
    eo.jobs = 2;
    Engine engine(eo);
    // A worker's callback waits until every worker has made its first
    // claim, so the first eo.jobs callbacks are the first claims.
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::string> seen;
    std::vector<SimResult> got =
        engine.run_all(points, [&](const Experiment &ex) {
            std::unique_lock<std::mutex> lock(mu);
            seen.push_back(ex.policy);
            cv.notify_all();
            cv.wait(lock, [&] { return seen.size() >= eo.jobs; });
        });
    ASSERT_EQ(seen.size(), points.size());
    EXPECT_EQ(seen[0], "pipelining");
    EXPECT_EQ(seen[1], "pipelining");
    Engine serial(ExecOptions{});
    EXPECT_EQ(blobs_of(got), blobs_of(serial.run_all(points)));
}

TEST(Engine, FleetDispatchesTheLongestPointsFirst)
{
    test::TempDir dir;
    std::vector<Experiment> points =
        storm_points(bake_app_trace("gdb", 0.05, 1, dir.path()));
    ExecOptions eo;
    eo.workers = 2;
    Engine engine(eo);
    std::vector<std::string> seen;
    std::vector<SimResult> got = engine.run_all(
        points, [&](const Experiment &ex) { seen.push_back(ex.policy); });
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "pipelining", "pipelining", "eager", "eager",
                        "fullpage", "fullpage", "disk", "disk"}));
    Engine serial(ExecOptions{});
    EXPECT_EQ(blobs_of(got), blobs_of(serial.run_all(points)));
}

TEST(Engine, WarmCacheServesEveryPointWithoutSimulating)
{
    std::string dir = scratch_dir("engine_warm");
    std::vector<Experiment> points =
        exec::expand_sweep(engine_spec());

    ExecOptions eo;
    eo.jobs = 2;
    eo.cache_enabled = true;
    eo.cache_dir = dir;

    Engine cold(eo);
    std::vector<SimResult> first = cold.run_all(points);
    exec::ExecStats cs = cold.stats();
    EXPECT_EQ(cs.points_run, points.size());
    EXPECT_EQ(cs.points_cached, 0u);
    EXPECT_EQ(cs.cache.stores, points.size());

    Engine warm(eo);
    std::vector<SimResult> second = warm.run_all(points);
    exec::ExecStats ws = warm.stats();
    EXPECT_EQ(ws.points_run, 0u);
    EXPECT_EQ(ws.points_cached, points.size());
    EXPECT_EQ(ws.cache.hits, points.size());

    // Cache hits are indistinguishable from re-simulation.
    EXPECT_EQ(blobs_of(second), blobs_of(first));
    EXPECT_EQ(report_of(second), report_of(first));
}

TEST(Engine, CacheMissesWhenSeedChanges)
{
    std::string dir = scratch_dir("engine_seed");
    Experiment ex;
    ex.app = "modula3";
    ex.scale = 0.1;

    ExecOptions eo;
    eo.cache_enabled = true;
    eo.cache_dir = dir;
    Engine engine(eo);

    engine.run(ex); // miss + store
    engine.run(ex); // hit
    Experiment other = ex;
    other.seed = 99;
    engine.run(other); // different key: miss, simulate again

    exec::ExecStats s = engine.stats();
    EXPECT_EQ(s.points_run, 2u);
    EXPECT_EQ(s.points_cached, 1u);
    EXPECT_EQ(s.cache.stores, 2u);
}

TEST(Engine, ObservedRunsBypassTheCache)
{
    std::string dir = scratch_dir("engine_observed");
    Experiment ex;
    ex.app = "modula3";
    ex.scale = 0.1;

    ExecOptions eo;
    eo.cache_enabled = true;
    eo.cache_dir = dir;
    Engine engine(eo);
    engine.run(ex); // populates the cache for the plain config

    // Attach an observer: the cached result cannot replay its side
    // effects, so the engine must simulate — and must not store.
    obs::Tracer tracer(1 << 12);
    Experiment observed = ex;
    observed.base.tracer = &tracer;
    engine.run(observed);
    EXPECT_GT(tracer.recorded(obs::SpanCategory::Net), 0u);

    exec::ExecStats s = engine.stats();
    EXPECT_EQ(s.points_run, 2u);
    EXPECT_EQ(s.points_cached, 0u);
    EXPECT_EQ(s.cache.stores, 1u);
}

} // namespace
} // namespace sgms
