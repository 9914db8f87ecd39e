/**
 * @file
 * Tests for the simulator's event kernel (sim/kernel.h) and its
 * multi-client trace plumbing: rotated/seekable cursors and the word
 * windows they hand the reference loop, N=1 result bytes pinned by
 * digest, dense and overflow page ids, same-seed determinism at larger
 * client counts (including through the exec engine at any --jobs /
 * --workers), emergent contention, the requester and server tracks
 * of every node's Net spans, fault-injection interaction (result
 * bytes pinned at N=1, 8, 16 and 32, and every span at N=1), the
 * metric snapshot pinned apart from the blob (PAL, TLB, per-client
 * gauges and a cold, capacity-bound cache, with and without faults),
 * and zero steady-state allocations: fast-path hits at N=256 and
 * fault-bound runs at N=1, with and without a fault plan.
 *
 * This binary installs the allocation probe (common/alloc_probe.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_probe.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "exec/parallel_runner.h"
#include "exec/result_cache.h"
#include "exec/result_codec.h"
#include "fault/fault_plan.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/kernel.h"
#include "trace/apps.h"
#include "trace/binfmt.h"
#include "trace/mmap_trace.h"
#include "trace/synthetic.h"
#include "trace/trace.h"

SGMS_INSTALL_ALLOC_PROBE();

namespace sgms
{
namespace
{

using exec::result_blob;

// ---------------------------------------------------------------
// Trace cursors: skip() and RotatedTrace
// ---------------------------------------------------------------

VectorTrace
counting_trace(uint64_t n)
{
    VectorTrace t;
    for (uint64_t i = 0; i < n; ++i)
        t.push(i * 64, /*write=*/false);
    return t;
}

std::vector<Addr>
drain(TraceSource &t)
{
    std::vector<Addr> out;
    TraceEvent ev;
    while (t.next(ev))
        out.push_back(ev.addr);
    return out;
}

TEST(TraceSkip, VectorTraceSkipsInO1)
{
    VectorTrace t = counting_trace(10);
    t.skip(3);
    TraceEvent ev;
    ASSERT_TRUE(t.next(ev));
    EXPECT_EQ(ev.addr, 3u * 64);
    t.skip(100); // past the end clamps
    EXPECT_FALSE(t.next(ev));
}

TEST(TraceSkip, DefaultImplementationDiscardsEvents)
{
    // SyntheticTrace has no skip override; the base-class default
    // must read-and-discard to the same position.
    auto a = make_app_trace("gdb", 0.1, 7);
    auto b = make_app_trace("gdb", 0.1, 7);
    TraceEvent ev;
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(a->next(ev));
    b->skip(1000);
    std::vector<Addr> rest_a = drain(*a);
    std::vector<Addr> rest_b = drain(*b);
    EXPECT_EQ(rest_a, rest_b);
}

TEST(RotatedTraceTest, OffsetZeroIsIdentity)
{
    auto base = std::make_unique<VectorTrace>(counting_trace(8));
    RotatedTrace rot(std::move(base), 0);
    EXPECT_EQ(rot.offset(), 0u);
    std::vector<Addr> got = drain(rot);
    ASSERT_EQ(got.size(), 8u);
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(got[i], i * 64);
}

TEST(RotatedTraceTest, RotatesAndWraps)
{
    auto base = std::make_unique<VectorTrace>(counting_trace(8));
    RotatedTrace rot(std::move(base), 3);
    std::vector<Addr> got = drain(rot);
    ASSERT_EQ(got.size(), 8u); // same length, rotated
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(got[i], ((3 + i) % 8) * 64);
    // reset() replays the same rotation.
    rot.reset();
    EXPECT_EQ(drain(rot), got);
}

TEST(RotatedTraceTest, OffsetReducesModuloLength)
{
    auto base = std::make_unique<VectorTrace>(counting_trace(8));
    RotatedTrace rot(std::move(base), 8 * 5 + 2);
    EXPECT_EQ(rot.offset(), 2u);
    EXPECT_EQ(rot.size_hint(), 8u);
}

/** Every word next_words hands out, @p n at most per call. */
std::vector<uint64_t>
drain_words(TraceSource &t, size_t n, bool expect_in_place)
{
    std::vector<uint64_t> out, scratch(n);
    const uint64_t *words = nullptr;
    while (size_t got = t.next_words(words, scratch.data(), n)) {
        EXPECT_LE(got, n);
        EXPECT_EQ(words != scratch.data(), expect_in_place);
        out.insert(out.end(), words, words + got);
    }
    return out;
}

TEST(RotatedTraceTest, WordsMatchBatchesAcrossTheWrap)
{
    // An 11-word trace read 4 words at a time: every offset below
    // cuts a window at the wrap. The stored base is read in place,
    // the vector base through the packing default; both must hand
    // out exactly the words of the events next_batch yields, again
    // after reset().
    constexpr uint64_t L = 11;
    VectorTrace vec;
    auto stored = std::make_shared<PackedTrace>();
    for (uint64_t i = 0; i < L; ++i) {
        vec.push(i * 64, /*write=*/i % 3 == 0);
        stored->push_back(pack_trace_event(vec.events().back()));
    }

    for (uint64_t offset : {uint64_t{0}, uint64_t{3}, L - 1}) {
        SCOPED_TRACE(offset);
        RotatedTrace batched(std::make_unique<VectorTrace>(vec), offset);
        std::vector<uint64_t> want;
        TraceEvent batch[5];
        while (size_t got = batched.next_batch(batch, 5))
            for (size_t i = 0; i < got; ++i)
                want.push_back(pack_trace_event(batch[i]));
        ASSERT_EQ(want.size(), L);
        EXPECT_EQ(unpack_trace_event(want[0]).addr, offset * 64);

        RotatedTrace in_place(std::make_unique<ReplayTrace>(stored),
                              offset);
        RotatedTrace packed(std::make_unique<VectorTrace>(vec), offset);
        for (int pass = 0; pass < 2; ++pass) {
            SCOPED_TRACE(pass);
            EXPECT_EQ(drain_words(in_place, 4, true), want);
            EXPECT_EQ(drain_words(packed, 4, false), want);
            in_place.reset();
            packed.reset();
        }
    }
}

// ---------------------------------------------------------------
// Event heap at 10k+ concurrent in-flight events
// ---------------------------------------------------------------

TEST(EventKernel, TenThousandInFlightStaysAllocationFree)
{
    EventQueue eq;
    uint64_t sink = 0;
    Tick t = 0;
    auto wave = [&](uint32_t width) {
        for (uint32_t i = 0; i < width; ++i)
            eq.schedule(t + 1 + (i % 97), [&sink] { ++sink; });
        t += 200;
        eq.run_until(t);
    };
    wave(12000); // grows heap + pool to steady size
    uint64_t before = alloc_probe_count();
    for (int round = 0; round < 8; ++round)
        wave(12000);
    EXPECT_EQ(alloc_probe_count(), before);
    EXPECT_EQ(sink, 12000u * 9);
}

// ---------------------------------------------------------------
// N=1 result bytes, pinned
// ---------------------------------------------------------------

/** Fault-heavy workload with evictions (obs/fault smoke shape). */
WorkloadSpec
mc_workload()
{
    WorkloadSpec spec;
    spec.name = "mc-smoke";
    spec.hot_pages = 8;

    PhaseSpec sweep;
    sweep.kind = PhaseSpec::Kind::SweepScan;
    sweep.page_lo = 8;
    sweep.page_hi = 72;
    sweep.refs = 64 * 4000;
    sweep.hot_frac = 1.0 - 1.0 / 4000;
    spec.phases.push_back(sweep);

    PhaseSpec dense;
    dense.kind = PhaseSpec::Kind::DenseScan;
    dense.page_lo = 72;
    dense.page_hi = 88;
    dense.stride = 64;
    dense.hot_frac = 0.9;
    dense.refs = 16 * 128 * 10;
    spec.phases.push_back(dense);
    return spec;
}

SimResult
run_multi(SimConfig cfg, uint32_t n, uint64_t seed = 42)
{
    cfg.clients = n;
    std::vector<SyntheticTrace> traces;
    traces.reserve(n);
    for (uint32_t c = 0; c < n; ++c)
        traces.emplace_back(mc_workload(), seed);
    std::vector<TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(&t);
    Simulator sim(cfg);
    return sim.run(ptrs);
}

SimConfig
mc_config(const std::string &policy, uint32_t subpage = 1024)
{
    SimConfig cfg;
    cfg.policy = policy;
    cfg.subpage_size =
        (policy == "fullpage" || policy == "disk") ? 8192 : subpage;
    cfg.mem_pages = 44;
    return cfg;
}

/**
 * FNV-1a 64 of the lossless result blob, which covers every field
 * including per-fault records and the metric snapshot. The pinned
 * values are result schema 4's: schema 3's results (exact LRU, and
 * the kernel gauges at every client count) without the stored fault
 * curve, which SimResult::fault_curve() now reads from the fault
 * records. A change to any field changes simulated results and must
 * bump exec::kResultBlobSchema.
 */
uint64_t
blob_digest(const SimResult &r)
{
    std::string b = result_blob(r);
    return fnv1a_bytes(b.data(), b.size());
}

/**
 * FNV-1a 64 over the metric snapshot alone, sample by sample: the
 * name with its NUL, the kind byte, value, mean, min and max, then
 * count. Unlike blob_digest it does not move with the blob layout,
 * so it pins the registry across a schema bump.
 */
uint64_t
metrics_digest(const SimResult &r)
{
    uint64_t h = fnv1a_bytes(nullptr, 0);
    auto mix = [&h](const auto &v) { h = fnv1a_bytes(&v, sizeof(v), h); };
    for (const obs::MetricSample &m : r.metrics) {
        h = fnv1a_bytes(m.name.c_str(), m.name.size() + 1, h);
        mix(static_cast<uint8_t>(m.kind));
        mix(m.value);
        mix(m.mean);
        mix(m.min);
        mix(m.max);
        mix(m.count);
    }
    return h;
}

double
gauge_of(const SimResult &r, const std::string &name)
{
    for (const auto &m : r.metrics)
        if (m.name == name)
            return m.value;
    return -1.0;
}

TEST(MultiClientMetrics, PalTlbAndPerClientGaugesAtNFour)
{
    SimConfig cfg = mc_config("pipelining");
    cfg.protection = ProtectionMode::SoftwarePal;
    cfg.tlb_enabled = true;
    cfg.tlb_entries = 16;
    cfg.tlb_assoc = 4;
    cfg.metrics_per_client = true;
    SimResult r = run_multi(cfg, 4);
    EXPECT_EQ(r.metrics.size(), 59u);
    EXPECT_EQ(gauge_of(r, "tlb.emulation_hits"), 1898.0);
    EXPECT_EQ(metrics_digest(r), 0x494fb124211c7bb7ull);
}

/** A cold global cache that holds 8 pages per server. */
SimConfig
bounded_cache_config()
{
    SimConfig cfg = mc_config("eager");
    cfg.gms.warm = false;
    cfg.gms.server_capacity_pages = 8;
    return cfg;
}

TEST(MultiClientMetrics, ColdBoundedCacheAtNOne)
{
    SimResult r = run_multi(bounded_cache_config(), 1);
    EXPECT_EQ(r.metrics.size(), 33u);
    EXPECT_EQ(gauge_of(r, "gms.global_discards"), 21.0);
    EXPECT_EQ(metrics_digest(r), 0xddea7e34f01b844full);
}

TEST(MultiClientMetrics, ColdBoundedCacheUnderFaultsAtNFour)
{
    // Servers are nodes 4..7 at N=4: two of them go down, one for
    // longer than the other.
    SimConfig cfg = bounded_cache_config();
    cfg.metrics_per_client = true;
    cfg.faults.seed = 3;
    cfg.faults.set_loss(0.02);
    cfg.faults.outages.push_back(
        {4, ticks::from_ms(5), ticks::from_ms(30)});
    cfg.faults.outages.push_back(
        {5, ticks::from_ms(8), ticks::from_ms(12)});
    SimResult r = run_multi(cfg, 4);
    EXPECT_EQ(r.metrics.size(), 67u);
    EXPECT_EQ(metrics_digest(r), 0x06cef8c3254128d6ull);
}

TEST(MultiClientIdentity, ByteIdenticalAtNOneAcrossPolicies)
{
    const std::pair<const char *, uint64_t> pinned[] = {
        {"fullpage", 0x402cf3cc2754e2eeull},
        {"eager", 0xa0c8f6612a10ece7ull},
        {"pipelining", 0xc96f3b4dc81716d0ull},
        {"pipelining-all", 0xd96b6ef0d24f1069ull},
        {"lazy", 0xef8fea02db51ce3aull},
        {"disk", 0x270338bc8ae39475ull},
    };
    for (const auto &[policy, digest] : pinned) {
        SCOPED_TRACE(policy);
        EXPECT_EQ(blob_digest(run_multi(mc_config(policy), 1)), digest);
    }
}

TEST(MultiClientIdentity, ByteIdenticalWithTlbAndSoftwarePal)
{
    SimConfig cfg = mc_config("eager");
    cfg.tlb_enabled = true;
    cfg.tlb_entries = 16;
    cfg.tlb_assoc = 4;
    EXPECT_EQ(blob_digest(run_multi(cfg, 1)), 0xaef27bb080d3052aull);

    SimConfig pal = mc_config("pipelining");
    pal.protection = ProtectionMode::SoftwarePal;
    EXPECT_EQ(blob_digest(run_multi(pal, 1)), 0x562dbaa776bcbaeaull);
}

/**
 * FNV-1a 64 over every recorded span, field by field (names and
 * tracks by their text): the order, timing and arguments of each
 * fault, retry, timeout and Net stage span.
 */
uint64_t
span_digest(const obs::Tracer &tracer)
{
    uint64_t h = fnv1a_bytes(nullptr, 0);
    auto mix = [&h](const auto &v) { h = fnv1a_bytes(&v, sizeof(v), h); };
    for (const obs::Span &s : tracer.spans()) {
        h = fnv1a_bytes(s.name, std::char_traits<char>::length(s.name) + 1,
                        h);
        h = fnv1a_bytes(s.track,
                        std::char_traits<char>::length(s.track) + 1, h);
        mix(s.start);
        mix(s.end);
        mix(s.id);
        mix(s.arg0);
        mix(s.arg1);
        mix(static_cast<uint8_t>(s.cat));
        mix(s.node);
    }
    return h;
}

TEST(MultiClientIdentity, ByteIdenticalUnderFaultInjection)
{
    fault::FaultPlan plan;
    plan.seed = 5;
    plan.set_loss(0.08);
    plan.duplicate_prob = 0.02;
    plan.outages.push_back(
        {1, ticks::from_ms(5), ticks::from_ms(60)});
    const struct
    {
        const char *policy;
        uint64_t blob;
        size_t spans;
        uint64_t span_digest;
    } pinned[] = {
        {"eager", 0x3cb5306f5ec554f6ull, 2456, 0x381319a1b05ab8fdull},
        {"pipelining", 0x39476433a2c83367ull, 2949, 0xf4d9cc546d68f0f0ull},
        {"fullpage", 0x9a58bb92ee87266full, 1631, 0x9f510d07f4692fbbull},
    };
    for (const auto &pin : pinned) {
        SCOPED_TRACE(pin.policy);
        obs::Tracer tracer(1 << 14);
        SimConfig cfg = mc_config(pin.policy);
        cfg.faults = plan;
        cfg.tracer = &tracer;
        EXPECT_EQ(blob_digest(run_multi(cfg, 1)), pin.blob);
        EXPECT_EQ(tracer.dropped(), 0u);
        EXPECT_EQ(tracer.size(), pin.spans);
        EXPECT_EQ(span_digest(tracer), pin.span_digest);
    }
}

TEST(MultiClientIdentity, ExperimentRouteIsByteIdenticalAtNOne)
{
    // Experiment::run() at the default single client, and the kernel
    // driven directly with the experiment's one trace cursor.
    Experiment ex;
    ex.app = "gdb";
    ex.scale = 0.3;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;
    EXPECT_EQ(blob_digest(ex.run()), 0x6dda57a16c597330ull);

    auto trace = ex.trace();
    SimResult direct = Simulator(ex.config()).run(*trace);
    direct.app = ex.app;
    EXPECT_EQ(blob_digest(direct), 0x6dda57a16c597330ull);
}

// ---------------------------------------------------------------
// Reference loop (DESIGN.md §13)
// ---------------------------------------------------------------

TEST(ReferenceLoop, StealPendingAtReentryLandsOnNextReference)
{
    // One pipelined fault on subpage 3 of page 0, then hits on that
    // subpage. With the prototype controller's receive cost
    // (--proto-controller) the two pipelined neighbours land 91.744
    // us apart on the busy receive CPU, so charging the first one's
    // steal carries the clock past the second delivery: the client
    // parks at RefTlb, that delivery adds a steal, and the client
    // re-enters with it pending. It must land on the next reference.
    // The trace ends before the rest-of-page delivery, so a loop that
    // ran ahead past the pending steal would never charge it.
    SimConfig cfg;
    cfg.policy = "pipelining";
    cfg.subpage_size = 1024;
    cfg.net.pipelined_recv_fixed = ticks::from_us(60);
    cfg.net.pipelined_recv_per_byte = ticks::from_ns(31);
    VectorTrace trace;
    for (int i = 0; i < 15000; ++i)
        trace.push(3 * 1024 + 8, /*write=*/false);
    SimResult r = Simulator(cfg).run(trace);
    const Tick steal = ticks::from_us(60) + 1024 * ticks::from_ns(31);
    EXPECT_EQ(r.page_faults, 1u);
    EXPECT_EQ(r.recv_overhead, 2 * steal);
    EXPECT_EQ(r.runtime, r.exec_time + r.sp_latency + 2 * steal);
    EXPECT_EQ(r.runtime, 909'756'800); // ps: 909.7568 us
}

/**
 * A seeded walk over 16 pages starting at @p first_page: it mostly
 * switches among three hot pages, as the synthetic apps do, and
 * every 40th reference or so goes to a cold page.
 */
VectorTrace
page_walk(PageId first_page, uint64_t refs)
{
    VectorTrace t;
    uint64_t x = 12345;
    PageId page = 0;
    for (uint64_t i = 0; i < refs; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t r = x >> 24;
        if (r % 40 == 0)
            page = 3 + (r >> 8) % 13;
        else if (r % 2 == 0)
            page = (r >> 8) % 3;
        Addr offset = ((r >> 16) % 1024) * 8;
        t.push((first_page + page) * 8192 + offset, (r >> 32) % 4 == 0);
    }
    return t;
}

TEST(ReferenceLoop, OverflowPageIdsMatchDensePageIds)
{
    // The same walk with its page ids near 0 (dense frames, one test
    // per reference) and shifted past the page table's dense limit
    // (hash-mapped frames, the last-page shortcut). One server, so
    // placement cannot tell the two apart.
    constexpr PageId kShift = PageId{1} << 17;
    constexpr uint64_t kRefs = 40000;
    VectorTrace dense = page_walk(0, kRefs);
    VectorTrace overflow = page_walk(kShift, kRefs);
    for (const char *policy : {"eager", "pipelining", "lazy"}) {
        SCOPED_TRACE(policy);
        SimConfig cfg;
        cfg.policy = policy;
        cfg.subpage_size = 1024;
        cfg.mem_pages = 4;
        cfg.gms.servers = 1;
        SimResult a = Simulator(cfg).run(dense);
        SimResult b = Simulator(cfg).run(overflow);
        EXPECT_EQ(a.refs, kRefs);
        EXPECT_GT(a.page_faults, 100u);
        EXPECT_GT(a.evictions, 100u);
        if (std::string(policy) == "lazy") {
            EXPECT_GT(a.lazy_subpage_faults, 100u);
        }
        EXPECT_EQ(b.refs, a.refs);
        EXPECT_EQ(b.page_faults, a.page_faults);
        EXPECT_EQ(b.lazy_subpage_faults, a.lazy_subpage_faults);
        EXPECT_EQ(b.evictions, a.evictions);
        EXPECT_EQ(b.runtime, a.runtime);
        ASSERT_EQ(b.faults.size(), a.faults.size());
        for (size_t i = 0; i < a.faults.size(); ++i) {
            SCOPED_TRACE(i);
            const FaultRecord &fa = a.faults[i], &fb = b.faults[i];
            EXPECT_EQ(fb.page, fa.page + kShift);
            EXPECT_EQ(fb.ref_index, fa.ref_index);
            EXPECT_EQ(fb.at, fa.at);
            EXPECT_EQ(fb.sp_wait, fa.sp_wait);
            EXPECT_EQ(fb.page_wait, fa.page_wait);
            EXPECT_EQ(fb.from_disk, fa.from_disk);
        }
    }
}

TEST(ReferenceLoop, HitRunBoundKeepsItsBytes)
{
    // The hit loop runs up to the event horizon in one go, so its
    // bound is a division by the step. A zero step (--ns-per-ref=0)
    // must not divide, and a 1 ns step lands the clock exactly on
    // event times, where an off-by-one in the bound would run one
    // reference too many or too few before the client parks. Pinned
    // from the per-reference loop the bound replaced.
    const struct
    {
        Tick step;
        uint32_t clients;
        uint64_t digest;
    } cases[] = {
        {0, 1, 0xf4cadb6845cf349dull},
        {0, 4, 0xffd4cc28c1262ea4ull},
        {ticks::from_ns(1), 1, 0x3e27a1433882f658ull},
        {ticks::from_ns(1), 4, 0x13a82d2d53cbbc54ull},
    };
    for (const auto &tc : cases) {
        SCOPED_TRACE(testing::Message() << "step " << tc.step << " ps, "
                                        << tc.clients << " clients");
        SimConfig cfg = mc_config("pipelining");
        cfg.ns_per_ref = tc.step;
        SimResult r = run_multi(cfg, tc.clients);
        EXPECT_GT(r.page_faults, 0u);
        EXPECT_EQ(blob_digest(r), tc.digest);
    }
}

// ---------------------------------------------------------------
// Multi-client determinism and aggregation
// ---------------------------------------------------------------

TEST(MultiClient, SameSeedIsByteIdenticalAtManyClientCounts)
{
    for (uint32_t n : {2u, 16u, 256u}) {
        SCOPED_TRACE(n);
        SimConfig cfg = mc_config("eager");
        SimResult a = run_multi(cfg, n);
        SimResult b = run_multi(cfg, n);
        EXPECT_EQ(result_blob(a), result_blob(b));
    }
}

TEST(MultiClient, ZeroCopyAndPackedReplayAreByteIdentical)
{
    // One 4-client point over the store's traces, whose words the
    // kernel reads in place, and over VectorTrace copies of the same
    // references, which it reads through the packing default. The
    // trace length is not a multiple of the kernel's 1024-word
    // batch, so rotated windows are cut at the wrap.
    Experiment ex;
    ex.app = "gdb";
    ex.scale = 0.3;
    ex.policy = "pipelining";
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;
    ex.clients = 4;
    auto stored = ex.client_traces(ex.clients);
    ASSERT_EQ(stored.size(), 4u);
    ASSERT_NE(dynamic_cast<ReplayTrace *>(stored[0].get()), nullptr);
    const VectorTrace copy(*stored[0]);
    const uint64_t len = copy.size_hint();
    ASSERT_NE(len % 1024, 0u);

    std::vector<std::unique_ptr<TraceSource>> packed;
    packed.push_back(std::make_unique<VectorTrace>(copy));
    for (uint32_t c = 1; c < 4; ++c) {
        uint64_t offset = len * c / 4;
        ASSERT_NE((len - offset) % 1024, 0u);
        packed.push_back(std::make_unique<RotatedTrace>(
            std::make_unique<VectorTrace>(copy), offset));
    }

    auto run = [&](std::vector<std::unique_ptr<TraceSource>> &traces,
                   bool in_place) {
        std::vector<TraceSource *> ptrs;
        for (auto &t : traces) {
            const uint64_t *words = nullptr;
            uint64_t scratch[1];
            EXPECT_EQ(t->next_words(words, scratch, 1), 1u);
            EXPECT_EQ(words != scratch, in_place);
            ptrs.push_back(t.get());
        }
        return result_blob(Simulator(ex.config()).run(ptrs));
    };
    std::string zero_copy = run(stored, true);
    EXPECT_EQ(run(packed, false), zero_copy);
}

TEST(MultiClient, AggregatesPerClientTalliesInClientOrder)
{
    SimConfig cfg = mc_config("eager");
    SimResult one = run_multi(cfg, 1);
    SimResult two = run_multi(cfg, 2);
    // Both clients replay the full trace: refs double, faults at
    // least double (contention can only add work), runtime grows.
    EXPECT_EQ(two.refs, 2 * one.refs);
    EXPECT_GE(two.page_faults, 2 * one.page_faults);
    EXPECT_GE(two.runtime, one.runtime);
}

TEST(MultiClient, PublishesKernelGaugesAtEveryClientCount)
{
    SimConfig cfg = mc_config("eager");
    for (uint32_t n : {1u, 4u}) {
        SCOPED_TRACE(n);
        SimResult r = run_multi(cfg, n);
        EXPECT_EQ(gauge_of(r, "sim.clients"), static_cast<double>(n));
        EXPECT_GT(gauge_of(r, "sim.kernel_events"), 0.0);
        for (const char *util :
             {"gms.server_cpu_util_max", "gms.server_dma_util_max",
              "gms.server_wire_util_max"}) {
            SCOPED_TRACE(util);
            EXPECT_GE(gauge_of(r, util), 0.0);
            EXPECT_LE(gauge_of(r, util), 1.0);
        }
    }
}

TEST(MultiClient, PerClientMetricsAreOptIn)
{
    SimConfig cfg = mc_config("eager");
    SimResult agg = run_multi(cfg, 4);
    EXPECT_EQ(gauge_of(agg, "client.0.refs"), -1.0);

    cfg.metrics_per_client = true;
    SimResult per = run_multi(cfg, 4);
    EXPECT_GT(gauge_of(per, "client.0.refs"), 0.0);
    EXPECT_GT(gauge_of(per, "client.3.refs"), 0.0);
    EXPECT_GT(gauge_of(per, "client.2.runtime_ns"), 0.0);
    // The aggregate counters are still the shared ones.
    EXPECT_EQ(per.refs, agg.refs);
}

TEST(MultiClient, ContentionIsEmergent)
{
    // More clients on the same servers: per-client fault service
    // time can only grow (queueing), so the makespan grows faster
    // than the single-client runtime.
    SimConfig cfg = mc_config("eager");
    SimResult one = run_multi(cfg, 1);
    SimResult sixteen = run_multi(cfg, 16);
    EXPECT_GT(sixteen.runtime, one.runtime);
    // Shared-wire accounting shows cross-client traffic.
    EXPECT_GE(sixteen.net_stats.messages,
              16 * one.net_stats.messages);
}

TEST(MultiClient, EveryClientTracesOnRequesterStages)
{
    // Clients sit at nodes 0..N-1 and servers from node N, so every
    // client's CPU and DMA spans belong on the requester tracks and
    // every server's on the server tracks.
    SimConfig cfg = mc_config("eager");
    obs::Tracer tracer(1 << 16);
    cfg.tracer = &tracer;
    run_multi(cfg, 2);
    const std::set<std::string> client_tracks = {"Req-CPU", "Req-DMA",
                                                 "Wire"};
    const std::set<std::string> server_tracks = {"Srv-CPU", "Srv-DMA",
                                                 "Wire"};
    uint64_t wrong = 0;
    std::set<std::pair<int64_t, std::string>> seen;
    for (const obs::Span &s : tracer.spans()) {
        if (s.cat != obs::SpanCategory::Net)
            continue;
        seen.insert({s.arg0, s.track});
        const auto &allowed = s.arg0 < 2 ? client_tracks : server_tracks;
        wrong += allowed.count(s.track) == 0;
    }
    EXPECT_EQ(wrong, 0u);
    for (int64_t node : {0, 1}) {
        EXPECT_TRUE(seen.count({node, "Req-CPU"})) << node;
        EXPECT_TRUE(seen.count({node, "Req-DMA"})) << node;
    }
    EXPECT_TRUE(seen.count({2, "Srv-CPU"}));
}

// ---------------------------------------------------------------
// Fault injection at N>1: outage while many clients are in flight
// ---------------------------------------------------------------

TEST(MultiClientFaults, ServerOutageWhileManyClientsInFlight)
{
    // Servers start at node N: take down the first server from the
    // start so early faults from every client hit the outage.
    SimConfig cfg = mc_config("eager");
    cfg.faults.seed = 9;
    cfg.faults.outages.push_back(
        {8, 0, ticks::from_ms(40)});
    SimResult r = run_multi(cfg, 8);
    SimResult one = run_multi(mc_config("eager"), 1);
    EXPECT_EQ(r.refs, 8 * one.refs); // every client completed
    EXPECT_GT(r.server_failures, 0u);
    EXPECT_GT(r.retries + r.degraded_fetches, 0u);

    // Same seed reproduces the same interleaving, bit for bit.
    SimResult again = run_multi(cfg, 8);
    EXPECT_EQ(result_blob(again), result_blob(r));
    EXPECT_EQ(blob_digest(r), 0x573e308631630a91ull);
}

TEST(MultiClientFaults, LossAndDuplicatesCompleteAtN16)
{
    SimConfig cfg = mc_config("pipelining");
    cfg.faults.seed = 5;
    cfg.faults.set_loss(0.05);
    cfg.faults.duplicate_prob = 0.02;
    SimResult r = run_multi(cfg, 16);
    SimResult one = run_multi(mc_config("pipelining"), 1);
    EXPECT_EQ(r.refs, 16 * one.refs);
    EXPECT_GT(r.net_stats.dropped, 0u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_EQ(blob_digest(r), 0xd79fae55cb128d02ull);
}

TEST(MultiClientFaults, LateRequestsOfSupersededAttemptsAtN32)
{
    // Contention at N=32 delays requests past their attempt's
    // timeout, so a superseded attempt's request is still served
    // (with that attempt's plan), and requests and retries find
    // their fetch already finished. Only contention gets there, so
    // these bytes pin paths that no N=1 run takes.
    const std::pair<const char *, uint64_t> pinned[] = {
        {"eager", 0x6b88c3fe9f1db616ull},
        {"pipelining", 0xbbc304bc5b42e6eaull},
    };
    for (const auto &[policy, digest] : pinned) {
        SCOPED_TRACE(policy);
        SimConfig cfg = mc_config(policy);
        cfg.faults.seed = 5;
        cfg.faults.set_loss(0.05);
        cfg.faults.duplicate_prob = 0.05;
        SimResult r = run_multi(cfg, 32);
        EXPECT_GT(r.retries, 0u);
        EXPECT_GT(r.duplicate_deliveries, 0u);
        EXPECT_EQ(blob_digest(r), digest);
    }
}

// ---------------------------------------------------------------
// Exec engine: --clients axis, any --jobs / --workers
// ---------------------------------------------------------------

std::vector<std::string>
blobs_of(const std::vector<SimResult> &rs)
{
    std::vector<std::string> out;
    for (const auto &r : rs)
        out.push_back(result_blob(r));
    return out;
}

SweepSpec
clients_spec()
{
    SweepSpec spec;
    spec.apps = {"gdb"};
    spec.policies = {"eager"};
    spec.subpage_sizes = {1024};
    spec.mems = {MemConfig::Half};
    spec.clients = {1, 4};
    spec.scale = 0.3;
    return spec;
}

TEST(MultiClientEngine, ExpandSweepAddsClientsAxisInnermost)
{
    SweepSpec spec = clients_spec();
    std::vector<Experiment> points = exec::expand_sweep(spec);
    ASSERT_EQ(points.size(), spec.point_count());
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].clients, 1u);
    EXPECT_EQ(points[1].clients, 4u);
}

TEST(MultiClientEngine, JobsAndWorkersAreByteIdenticalToSerial)
{
    SweepSpec spec = clients_spec();

    exec::ExecOptions serial_eo;
    serial_eo.jobs = 1;
    serial_eo.cache_enabled = false;
    exec::Engine serial(serial_eo);
    std::vector<SimResult> s = serial.run_sweep(spec);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_GT(s[1].refs, s[0].refs); // the clients axis did run

    exec::ExecOptions par_eo;
    par_eo.jobs = 4;
    par_eo.cache_enabled = false;
    exec::Engine par(par_eo);
    EXPECT_EQ(blobs_of(par.run_sweep(spec)), blobs_of(s));

    exec::ExecOptions w_eo;
    w_eo.workers = 2;
    w_eo.cache_enabled = false;
    exec::Engine workers(w_eo);
    EXPECT_EQ(blobs_of(workers.run_sweep(spec)), blobs_of(s));
}

TEST(MultiClientEngine, FingerprintSeparatesClientCounts)
{
    Experiment a;
    a.app = "gdb";
    a.scale = 0.3;
    Experiment b = a;
    b.clients = 4;
    EXPECT_NE(exec::experiment_fingerprint(a),
              exec::experiment_fingerprint(b));
    Experiment c = b;
    c.base.metrics_per_client = true;
    EXPECT_NE(exec::experiment_fingerprint(b),
              exec::experiment_fingerprint(c));
}

// ---------------------------------------------------------------
// Zero steady-state allocations at N=256
// ---------------------------------------------------------------

TEST(MultiClientAlloc, SteadyStateIsAllocationFreeAt256Clients)
{
    // Per-client trace: a warm prefix touching 64 distinct pages
    // (all faults, event traffic, page-table growth), then a long
    // steady tail cycling over the now-resident set. Full memory, so
    // the tail is pure fast-path hits interleaved by the scheduler.
    constexpr uint32_t N = 256;
    constexpr uint64_t PAGES = 64;
    constexpr uint64_t CYCLES = 40; // > 2 batch refills per client
    std::vector<VectorTrace> traces(N);
    for (uint32_t c = 0; c < N; ++c) {
        for (uint64_t p = 0; p < PAGES; ++p)
            traces[c].push(p * 8192, false);
        for (uint64_t k = 0; k < CYCLES; ++k)
            for (uint64_t p = 0; p < PAGES; ++p)
                traces[c].push(p * 8192 + (k % 8) * 512, false);
    }
    std::vector<TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(&t);

    SimConfig cfg;
    cfg.policy = "eager";
    cfg.subpage_size = 1024;
    cfg.mem_pages = 0; // full-mem: faults only in the warm prefix
    cfg.record_faults = false;
    cfg.clients = N;
    cfg.footprint_pages_hint = PAGES;

    Simulator sim(cfg);
    sim.begin(ptrs);
    // Warm: drive until every client is past its faulting prefix and
    // the event queue has fully drained.
    // One dispatch at a time: a coarser chunk could cross from the
    // warm phase straight to completion (a finished fault leaves a
    // client's whole remaining tail runnable in one dispatch).
    const uint64_t warm_refs = N * (PAGES + PAGES * 4);
    while (sim.refs_executed() < warm_refs ||
           sim.events_pending() > 0) {
        ASSERT_TRUE(sim.drive(1));
    }
    uint64_t fallbacks_before = inline_function_heap_fallbacks();
    uint64_t before = alloc_probe_count();
    while (sim.drive(8192)) {
    }
    EXPECT_EQ(alloc_probe_count(), before);
    EXPECT_EQ(inline_function_heap_fallbacks(), fallbacks_before);

    SimResult r = sim.finish();
    EXPECT_EQ(r.refs, N * (PAGES + CYCLES * PAGES));
    EXPECT_EQ(r.page_faults, N * PAGES);
}

TEST(MultiClientAlloc, SteadyStateFaultsAreAllocationFree)
{
    // One client at half memory cycling over 64 pages: every visit
    // is a page fault, and its three write references (demand
    // subpage, neighbour, far subpage) also drive in-flight waits and
    // pipelined follow-ons. Every eviction is dirty, so each fault
    // also sends PutPage traffic. Each policy runs without a fault
    // plan and with one that is on but never fires, so every fetch
    // also arms (and outlives) its timeout.
    constexpr uint64_t PAGES = 64;
    constexpr uint64_t WARM_CYCLES = 4;
    constexpr uint64_t CYCLES = WARM_CYCLES + 160;
    constexpr uint64_t MEASURED_FAULTS = 10000;
    VectorTrace trace;
    for (uint64_t k = 0; k < CYCLES; ++k) {
        for (uint64_t p = 0; p < PAGES; ++p) {
            uint64_t sp = (k + p) % 8;
            trace.push(p * 8192 + sp * 1024, true);
            trace.push(p * 8192 + ((sp + 1) % 8) * 1024 + 8, true);
            trace.push(p * 8192 + ((sp + 5) % 8) * 1024 + 16, true);
        }
    }

    fault::FaultPlan never;
    never.duplicate_prob = 1e-15;
    ASSERT_TRUE(never.enabled());
    for (const auto &[policy, faults] :
         {std::pair{"eager", fault::FaultPlan{}},
          std::pair{"pipelining", fault::FaultPlan{}},
          std::pair{"eager", never}, std::pair{"pipelining", never}}) {
        SCOPED_TRACE(policy);
        SCOPED_TRACE(faults.enabled() ? "never-firing fault plan"
                                      : "no fault plan");
        SimConfig cfg;
        cfg.policy = policy;
        cfg.subpage_size = 1024;
        cfg.mem_pages = PAGES / 2;
        cfg.record_faults = false;
        cfg.footprint_pages_hint = PAGES;
        cfg.faults = faults;

        Simulator sim(cfg);
        sim.begin({&trace});
        // Warm: every page faulted and evicted at least once, so the
        // directory, the page table, the event pool, the message
        // slab, the stage queues and the plan store are at size.
        while (sim.refs_executed() < WARM_CYCLES * PAGES * 3)
            ASSERT_TRUE(sim.drive(1));
        uint64_t fallbacks_before = inline_function_heap_fallbacks();
        uint64_t before = alloc_probe_count();
        while (sim.drive(8192)) {
        }
        EXPECT_EQ(alloc_probe_count(), before);
        EXPECT_EQ(inline_function_heap_fallbacks(), fallbacks_before);

        SimResult r = sim.finish();
        EXPECT_EQ(r.retries, 0u);
        // At most one page fault per visit fell in the warm window.
        EXPECT_GE(r.page_faults, WARM_CYCLES * PAGES + MEASURED_FAULTS);
        EXPECT_GT(r.net_stats.messages_by_kind[static_cast<int>(
                      MsgKind::PutPage)],
                  MEASURED_FAULTS);
    }
}

} // namespace
} // namespace sgms
