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
 * A SimResult with every field (and nested array) populated, and the
 * extremes of each encoding: every kind of string escape, a raw
 * control byte, non-ASCII bytes, INT64_MIN and UINT64_MAX.
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
    r.clustering.add(0.1, 1); // 0.1 is not exact in binary: %.17g path
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

TEST(ResultCodec, RejectsDamagedBlobs)
{
    std::string good = exec::result_blob(rich_result());
    SimResult out;
    EXPECT_FALSE(exec::read_result_blob("", out));
    EXPECT_FALSE(exec::read_result_blob("not json at all", out));
    // Truncation at any of a few depths: parse fails, reader says no.
    EXPECT_FALSE(
        exec::read_result_blob(good.substr(0, good.size() / 2), out));
    EXPECT_FALSE(exec::read_result_blob(good.substr(0, 10), out));
    // Valid JSON, wrong schema version.
    std::string bumped = good;
    size_t pos = bumped.find("\"schema\":");
    ASSERT_NE(pos, std::string::npos);
    bumped.replace(pos, 10, "\"schema\":9");
    EXPECT_FALSE(exec::read_result_blob(bumped, out));
    // Valid JSON, not a result blob.
    EXPECT_FALSE(exec::read_result_blob("{\"schema\":1}", out));
    EXPECT_FALSE(exec::read_result_blob("[1,2,3]", out));
    // Valid JSON, same values, not the writer's bytes.
    EXPECT_FALSE(exec::read_result_blob(" " + good, out));
    EXPECT_FALSE(exec::read_result_blob(good + "\n", out));
    std::string padded = good;
    padded.replace(pos, 10, "\"schema\":01");
    EXPECT_FALSE(exec::read_result_blob(padded, out));
}

/** result_blob(rich_result()): the bytes every cached blob rests on. */
const char *const kRichBlob =
    "{\"schema\":1,\"app\":\"app \\\"quoted\\\"\\n\\t\\\\ \\u0001\\u000"
    "d caf\303\251\",\"policy\":\"pipelining\",\"page_size\":8192,"
    "\"subpage_size\":512,\"mem_pages\":321,\"refs\":123456789,"
    "\"page_faults\":1021,\"lazy_subpage_faults\":77,"
    "\"evictions\":5,\"putpages\":6,\"emulated_accesses\":7,"
    "\"runtime\":9007199254740993,\"exec_time\":123,"
    "\"sp_latency\":456,\"page_wait\":789,\"recv_overhead\":10,"
    "\"emulation_overhead\":11,\"tlb_overhead\":12,"
    "\"io_overlap\":13,\"comp_overlap\":-9223372036854775808,"
    "\"faults\":[{\"page\":42,\"ref_index\":9,\"at\":1000,"
    "\"sp_wait\":2000,\"page_wait\":3000,\"from_disk\":true},"
    "{\"page\":43,\"ref_index\":10,\"at\":1001,\"sp_wait\":2001,"
    "\"page_wait\":0,\"from_disk\":false}],\"clustering\":{\"name\":\"c"
    "lustering\",\"points\":[[0.10000000000000001,"
    "1],[2000000,3.25]]},\"distance_bins\":[[-3,2],"
    "[1,9]],\"net\":{\"messages\":100,\"bytes\":200,"
    "\"messages_by_kind\":[10,11,12,13],\"bytes_by_kind\":[20,"
    "21,22,23],\"dropped\":1,\"corrupted\":2,\"duplicated\":3},"
    "\"tlb\":{\"hits\":18446744073709551615,\"misses\":60},"
    "\"global_discards\":4,\"retries\":3,\"timeouts\":2,"
    "\"degraded_fetches\":1,\"duplicate_deliveries\":8,"
    "\"server_failures\":1,\"metrics\":[{\"name\":\"a.counter\","
    "\"kind\":0,\"value\":4,\"count\":0,\"mean\":0,"
    "\"min\":0,\"max\":0},{\"name\":\"b.gauge\",\"kind\":1,"
    "\"value\":0.125,\"count\":0,\"mean\":0,\"min\":0,"
    "\"max\":0},{\"name\":\"c.dist\",\"kind\":2,\"value\":6600000,"
    "\"count\":3,\"mean\":2200000,\"min\":1000000,"
    "\"max\":3000000}],\"requester_wire_busy\":15,"
    "\"requester_dma_busy\":16,\"requester_cpu_busy\":17}";

TEST(ResultCodec, WriterBytesArePinned)
{
    // A formatting drift shows here as a byte diff; the simulator
    // digests would report it only as a changed hash.
    EXPECT_EQ(exec::result_blob(rich_result()), kRichBlob);
}

/**
 * Seeded finite doubles for every branch of %.17g: random bit
 * patterns, integers up to 2^63 (and around the 1e15 edge of the
 * writer's integer path), subnormals, short decimals, and the named
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

TEST(ResultCodec, DoublesPrintAsPrintf17gAndReadBackExactly)
{
    std::vector<double> values = tricky_doubles();
    SimResult r;
    for (size_t i = 0; i + 1 < values.size(); i += 2)
        r.clustering.add(values[i], values[i + 1]);
    std::string blob = exec::result_blob(r);

    auto printf17 = [](double d) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        return std::string(buf);
    };
    const std::string head = "\"points\":[";
    size_t at = blob.find(head);
    ASSERT_NE(at, std::string::npos);
    at += head.size();
    for (size_t i = 0; i < r.clustering.points.size(); ++i) {
        const auto &[x, y] = r.clustering.points[i];
        std::string want = (i ? ",[" : "[") + printf17(x) + "," +
                           printf17(y) + "]";
        ASSERT_EQ(blob.compare(at, want.size(), want), 0)
            << "point " << i << ": want " << want << ", blob has "
            << blob.substr(at, want.size());
        at += want.size();
    }
    EXPECT_EQ(blob.compare(at, 2, "]}"), 0);

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
    // A real blob: 206 faults and the full metric snapshot, ~28 KB.
    // Every prefix costs a parse, so the test grows with its square.
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
    // that prints back to exactly the mutant's bytes.
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
    const std::string alphabet =
        std::string("0123456789-+.e,:\"\\{}[]tu \x7f\xff") + '\0' + '\x01';
    for (int i = 0; i < 2000; ++i) {
        std::string m = good;
        m[below(m.size())] ^= static_cast<char>(1 << below(8));
        probe(m, "flip");
    }
    for (int i = 0; i < 1000; ++i) {
        std::string m = good;
        m.insert(below(m.size() + 1), 1, alphabet[below(alphabet.size())]);
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
        probe(m, "duplicate");
    }
    for (int i = 0; i < 500; ++i) {
        // Lengthen a number to 20+ digits: past UINT64_MAX, INT64_MAX
        // and the 17 significant digits of a double.
        std::string m = good;
        size_t at = m.find_first_of("0123456789", below(m.size()));
        if (at == std::string::npos)
            continue;
        std::string run(1, static_cast<char>('1' + below(9)));
        for (size_t k = 19 + below(8); k > 0; --k)
            run += static_cast<char>('0' + below(10));
        m.insert(at, run);
        probe(m, "digits");
    }
    // Flips inside digits leave canonical blobs behind, so the
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
