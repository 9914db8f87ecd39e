/**
 * @file
 * Tests for the hot-path overhaul: the allocation-free event kernel
 * (FIFO tie-break, pool reuse, inline callbacks), the replacement
 * policies over recency stamps (property-checked against reference
 * implementations), batched trace replay, the shared trace store
 * (stored replay is byte-identical to streaming generation, safe to
 * replay concurrently).
 *
 * This binary installs the allocation probe, so it can also assert
 * that steady-state event scheduling and replacement churn perform
 * zero heap allocations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/alloc_probe.h"
#include "common/inline_function.h"
#include "core/experiment.h"
#include "exec/result_codec.h"
#include "mem/page_table.h"
#include "mem/replacement.h"
#include "sim/event_queue.h"
#include "sim/kernel.h"
#include "trace/apps.h"
#include "trace/trace.h"
#include "trace/trace_store.h"

SGMS_INSTALL_ALLOC_PROBE();

namespace sgms
{
namespace
{

/** Deterministic 64-bit generator (splitmix64). */
struct Rng
{
    uint64_t state;
    uint64_t
    next()
    {
        uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }
};

// ---------------------------------------------------------------
// Event kernel
// ---------------------------------------------------------------

TEST(EventKernel, FifoTieBreakAtOneTick)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run_all();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventKernel, StableAcrossInterleavedTicks)
{
    // Mixed ticks scheduled out of order: execution must sort by
    // time and, within a tick, by schedule order.
    EventQueue eq;
    std::vector<std::pair<Tick, int>> order;
    int seq = 0;
    for (Tick t : {7, 3, 7, 3, 5, 7, 3}) {
        int s = seq++;
        eq.schedule(t, [&order, t, s] { order.push_back({t, s}); });
    }
    eq.run_all();
    ASSERT_EQ(order.size(), 7u);
    // Sorted by tick; same-tick runs keep ascending schedule seq.
    for (size_t i = 1; i < order.size(); ++i) {
        EXPECT_LE(order[i - 1].first, order[i].first);
        if (order[i - 1].first == order[i].first) {
            EXPECT_LT(order[i - 1].second, order[i].second);
        }
    }
}

TEST(EventKernel, CallbackMayScheduleAtCurrentTick)
{
    // An event at tick T scheduling another at T runs it after the
    // already-queued same-tick events (FIFO by schedule order).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        eq.schedule(10, [&] { order.push_back(2); });
    });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

/** A typed-event target that logs (when, arg) as events fire. */
struct LogTarget final : EventTarget
{
    explicit LogTarget(std::vector<std::pair<Tick, int>> &out) : got(out)
    {}

    void
    on_event(Tick when, uint64_t arg) override
    {
        got.push_back({when, static_cast<int>(arg)});
    }

    std::vector<std::pair<Tick, int>> &got;
};

TEST(EventKernel, PropertyMatchesReferenceOrdering)
{
    // Random schedule/run churn over both event kinds: dispatch order
    // must match a stable sort of (tick, schedule-seq) computed by a
    // reference model, with typed events and closures interleaved at
    // equal ticks.
    Rng rng{42};
    EventQueue eq;
    std::vector<std::pair<Tick, int>> expected;
    std::vector<std::pair<Tick, int>> got;
    LogTarget target(got);
    std::vector<bool> typed;
    int seq = 0;
    Tick floor = 0;
    for (int round = 0; round < 50; ++round) {
        int n = 1 + static_cast<int>(rng.next() % 20);
        for (int i = 0; i < n; ++i) {
            Tick when = floor + static_cast<Tick>(rng.next() % 100);
            int s = seq++;
            expected.push_back({when, s});
            typed.push_back((rng.next() & 1) != 0);
            if (typed.back()) {
                eq.schedule(when, target, static_cast<uint64_t>(s));
            } else {
                eq.schedule(when,
                            [&got, when, s] { got.push_back({when, s}); });
            }
        }
        floor += static_cast<Tick>(rng.next() % 50);
        eq.run_until(floor);
    }
    eq.run_all();
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first ||
                                (a.first == b.first &&
                                 a.second < b.second);
                     });
    EXPECT_EQ(got, expected);
    EXPECT_EQ(eq.executed(), expected.size());
    // The schedule really interleaves the kinds within a tick (48
    // adjacent typed/closure pairs at one tick with this seed).
    int mixed_ties = 0;
    for (size_t i = 1; i < expected.size(); ++i) {
        mixed_ties += expected[i].first == expected[i - 1].first &&
                      typed[expected[i].second] !=
                          typed[expected[i - 1].second];
    }
    EXPECT_GE(mixed_ties, 40);
}

TEST(EventKernel, PoolSlotsAreRecycled)
{
    // Steady churn at bounded concurrency must not grow the pool
    // beyond the high-water mark of outstanding events.
    EventQueue eq;
    uint64_t sink = 0;
    Tick t = 0;
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 8; ++i)
            eq.schedule(t + i, [&sink] { ++sink; });
        t += 8;
        eq.run_until(t);
    }
    EXPECT_EQ(sink, 8000u);
    EXPECT_LE(eq.pool_capacity(), 16u);
}

TEST(EventKernel, SteadyStateSchedulesWithoutAllocating)
{
    EventQueue eq;
    uint64_t sink = 0;
    std::vector<std::pair<Tick, int>> fired;
    fired.reserve(16u * 260u);
    LogTarget target(fired);
    Tick t = 0;
    auto wave = [&] {
        for (int i = 0; i < 32; ++i) {
            if (i & 1)
                eq.schedule(t + (i & 3), target, static_cast<uint64_t>(i));
            else
                eq.schedule(t + (i & 3), [&sink] { ++sink; });
        }
        t += 4;
        eq.run_until(t);
    };
    // Warm up: grows the heap, both pools and free lists to steady
    // size.
    for (int i = 0; i < 4; ++i)
        wave();
    uint64_t before = alloc_probe_count();
    for (int i = 0; i < 256; ++i)
        wave();
    EXPECT_EQ(alloc_probe_count(), before);
    EXPECT_EQ(sink, 16u * 260u);
    EXPECT_EQ(fired.size(), 16u * 260u);
    EXPECT_EQ(eq.executed(), 32u * 260u);
}

TEST(EventKernel, InlineCallbacksSkipTheHeap)
{
    // A capture that fits the inline buffer must not take the heap
    // fallback; an oversized one must (and still work).
    uint64_t small_before = inline_function_heap_fallbacks();
    EventQueue eq;
    uint64_t sink = 0;
    std::array<uint64_t, 8> a{};
    a[7] = 7;
    eq.schedule(1, [&sink, a] { sink += a[7]; });
    eq.run_all();
    EXPECT_EQ(sink, 7u);
    EXPECT_EQ(inline_function_heap_fallbacks(), small_before);

    std::array<uint64_t, 64> big{};
    big[63] = 9;
    InlineFunction<void(), 120> f([&sink, big] { sink += big[63]; });
    EXPECT_EQ(inline_function_heap_fallbacks(), small_before + 1);
    f();
    EXPECT_EQ(sink, 16u);
}

// ---------------------------------------------------------------
// Replacement policies over recency stamps
// ---------------------------------------------------------------

/**
 * Reference LRU and FIFO over std::list + map, and a reference Clock
 * over a ring of reference bits: the shapes from before recency
 * stamps, in which every use of a page calls touch().
 */
class ReferencePolicy
{
  public:
    explicit ReferencePolicy(const std::string &name)
        : lru_(name == "lru"), clock_(name == "clock")
    {}

    void
    insert(PageId page)
    {
        if (clock_) {
            // Reuse the first dead slot from the hand, else grow.
            size_t slot = ring_.size();
            for (size_t probe = 0; probe < ring_.size(); ++probe) {
                size_t i = (hand_ + probe) % ring_.size();
                if (!ring_[i].valid) {
                    slot = i;
                    break;
                }
            }
            if (slot == ring_.size())
                ring_.push_back({});
            ring_[slot] = {page, true, true};
            slot_[page] = slot;
        } else if (lru_) {
            order_.push_front(page);
            pos_[page] = order_.begin();
        } else {
            order_.push_back(page);
            pos_[page] = std::prev(order_.end());
        }
    }

    void
    touch(PageId page)
    {
        if (clock_)
            ring_[slot_[page]].referenced = true;
        else if (lru_)
            order_.splice(order_.begin(), order_, pos_[page]);
    }

    void
    erase(PageId page)
    {
        if (clock_) {
            ring_[slot_[page]].valid = false;
            slot_.erase(page);
        } else {
            order_.erase(pos_[page]);
            pos_.erase(page);
        }
    }

    PageId
    victim()
    {
        if (!clock_) {
            PageId page = lru_ ? order_.back() : order_.front();
            erase(page);
            return page;
        }
        for (;;) {
            Slot &s = ring_[hand_];
            hand_ = (hand_ + 1) % ring_.size();
            if (!s.valid)
                continue;
            if (s.referenced) {
                s.referenced = false;
                continue;
            }
            erase(s.page);
            return s.page;
        }
    }

    size_t size() const { return clock_ ? slot_.size() : pos_.size(); }

  private:
    struct Slot
    {
        PageId page = 0;
        bool referenced = false;
        bool valid = false;
    };

    bool lru_;
    bool clock_;
    std::list<PageId> order_;
    std::unordered_map<PageId, std::list<PageId>::iterator> pos_;
    std::vector<Slot> ring_;
    size_t hand_ = 0;
    std::unordered_map<PageId, size_t> slot_;
};

/**
 * Random install / use / erase / evict traffic through a PageTable
 * under policy @p name, against the reference model. A use stores a
 * newer stamp in the page's frame, as the simulator does, and touches
 * the reference. Some erased pages come straight back, so LRU holds
 * an entry from the page's earlier residency.
 */
void
order_property_check(const char *name, uint64_t page_base)
{
    PageTable pt(PageGeometry(8192, 1024), /*capacity=*/0, name);
    ReferencePolicy ref(name);
    Rng rng{1234};
    std::vector<PageId> resident;
    PageId next_page = page_base;
    uint64_t clock = 0;
    for (int step = 0; step < 20000; ++step) {
        uint64_t op = rng.next() % 100;
        if (resident.empty() || op < 40) {
            PageId p = next_page++;
            pt.install(p, ++clock);
            ref.insert(p);
            resident.push_back(p);
        } else if (op < 70) {
            PageId p = resident[rng.next() % resident.size()];
            pt.find(p)->last_touch = ++clock;
            ref.touch(p);
        } else if (op < 85) {
            size_t i = rng.next() % resident.size();
            PageId p = resident[i];
            pt.erase(p);
            ref.erase(p);
            if (op < 75) {
                pt.install(p, ++clock); // erase, then reinstall
                ref.insert(p);
            } else {
                resident[i] = resident.back();
                resident.pop_back();
            }
        } else {
            PageId v = pt.evict();
            ASSERT_EQ(v, ref.victim());
            auto it = std::find(resident.begin(), resident.end(), v);
            ASSERT_NE(it, resident.end());
            *it = resident.back();
            resident.pop_back();
        }
        ASSERT_EQ(pt.resident(), ref.size());
    }
    // Drain both completely: full eviction order must agree.
    while (ref.size() > 0)
        ASSERT_EQ(pt.evict(), ref.victim());
}

TEST(OrderList, LruMatchesReferenceModel)
{
    order_property_check("lru", /*page_base=*/0);
}

TEST(OrderList, FifoMatchesReferenceModel)
{
    order_property_check("fifo", /*page_base=*/0);
}

TEST(OrderList, ClockMatchesReferenceModel)
{
    order_property_check("clock", /*page_base=*/0);
}

TEST(OrderList, OverflowPagesBeyondDenseLimit)
{
    // Page ids above the page table's dense limit (1<<17) exercise
    // its hash path under every policy.
    for (const char *name : {"lru", "fifo", "clock"}) {
        SCOPED_TRACE(name);
        order_property_check(name, /*page_base=*/1ULL << 40);
    }
}

TEST(OrderList, SteadyChurnDoesNotAllocate)
{
    // Reserving the table reserves LRU's queue and heap, and FIFO's
    // queue, with it.
    for (const char *name : {"lru", "fifo"}) {
        SCOPED_TRACE(name);
        PageTable pt(PageGeometry(8192, 1024), /*capacity=*/1024, name);
        pt.reserve(1024);
        uint64_t clock = 0;
        for (PageId p = 0; p < 1024; ++p)
            pt.install(p, ++clock);
        Rng rng{7};
        uint64_t before = alloc_probe_count();
        for (int i = 0; i < 50000; ++i) {
            if (PageTable::Frame *f = pt.find(rng.next() % 1024))
                f->last_touch = ++clock;
            if (i % 16 == 0) {
                PageId v = pt.evict();
                pt.install(v, ++clock); // reuses the freed slots
            }
        }
        EXPECT_EQ(alloc_probe_count(), before);
    }
}

// ---------------------------------------------------------------
// Batched replay + shared trace store
// ---------------------------------------------------------------

TEST(BatchedReplay, NextBatchMatchesNextForAllSources)
{
    auto streamed = make_app_trace("gdb", 0.01, /*seed=*/3);
    auto batched = make_app_trace("gdb", 0.01, /*seed=*/3);
    TraceEvent ev;
    TraceEvent batch[97]; // deliberately not a divisor of the length
    uint64_t refs = 0;
    for (;;) {
        size_t n = batched->next_batch(batch, 97);
        for (size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(streamed->next(ev));
            ASSERT_EQ(ev.addr, batch[i].addr);
            ASSERT_EQ(ev.write, batch[i].write);
        }
        refs += n;
        if (n == 0)
            break;
    }
    EXPECT_FALSE(streamed->next(ev));
    EXPECT_GT(refs, 0u);
}

TEST(TraceStore, StoredReplayIsIdenticalToStreaming)
{
    auto streamed = make_app_trace("atom", 0.01, /*seed=*/2);
    auto stored = make_stored_app_trace("atom", 0.01, /*seed=*/2);
    EXPECT_EQ(stored->size_hint(), streamed->size_hint());
    TraceEvent a, b;
    uint64_t n = 0;
    for (;;) {
        bool ga = streamed->next(a);
        bool gb = stored->next(b);
        ASSERT_EQ(ga, gb);
        if (!ga)
            break;
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.write, b.write);
        ++n;
    }
    EXPECT_EQ(n, streamed->size_hint());
}

TEST(TraceStore, RepeatRequestsShareOneBuffer)
{
    TraceStoreStats before = trace_store_stats();
    auto first = make_stored_app_trace("ld", 0.01, /*seed=*/9);
    auto second = make_stored_app_trace("ld", 0.01, /*seed=*/9);
    TraceStoreStats after = trace_store_stats();
    // At most one materialization for the pair; the second request
    // (and possibly both, if another test warmed this key) hits.
    EXPECT_GE(after.hits, before.hits + 1);
    EXPECT_LE(after.misses, before.misses + 1);
    // Same immutable buffer behind both cursors.
    auto *ra = dynamic_cast<ReplayTrace *>(first.get());
    auto *rb = dynamic_cast<ReplayTrace *>(second.get());
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(ra->buffer().get(), rb->buffer().get());
}

TEST(TraceStore, ConcurrentReplayIsSafeAndComplete)
{
    // Two threads materialize-or-hit the same key and replay the
    // shared buffer through private cursors. Under TSan this also
    // checks the store's locking discipline.
    constexpr int THREADS = 4;
    std::vector<uint64_t> sums(THREADS, 0);
    std::vector<uint64_t> counts(THREADS, 0);
    std::vector<std::thread> ts;
    for (int i = 0; i < THREADS; ++i) {
        ts.emplace_back([i, &sums, &counts] {
            auto t = make_stored_app_trace("render", 0.01, /*seed=*/5);
            TraceEvent batch[128];
            for (;;) {
                size_t n = t->next_batch(batch, 128);
                if (n == 0)
                    break;
                counts[i] += n;
                for (size_t k = 0; k < n; ++k)
                    sums[i] += batch[k].addr + batch[k].write;
            }
        });
    }
    for (auto &t : ts)
        t.join();
    for (int i = 1; i < THREADS; ++i) {
        EXPECT_EQ(counts[i], counts[0]);
        EXPECT_EQ(sums[i], sums[0]);
    }
    EXPECT_GT(counts[0], 0u);
}

TEST(TraceStore, ExperimentViaStoreMatchesStreamedSimulation)
{
    // End to end: Experiment::run (stored trace) must be
    // byte-identical to simulating the streaming generator directly.
    Experiment ex;
    ex.app = "modula3";
    ex.scale = 0.01;
    ex.policy = "pipelining";
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;

    SimResult via_store = ex.run();
    Simulator sim(ex.config());
    auto streamed = make_app_trace(ex.app, ex.scale, ex.seed);
    SimResult via_stream = sim.run(*streamed);
    via_stream.app = ex.app;

    EXPECT_EQ(exec::result_blob(via_store), exec::result_blob(via_stream));
}

TEST(VectorTraceHint, MaterializingCtorHonorsSizeHint)
{
    auto src = make_app_trace("gdb", 0.01, /*seed=*/1);
    VectorTrace vt(*src);
    EXPECT_EQ(vt.events().size(), src->size_hint());
    EXPECT_EQ(vt.size_hint(), src->size_hint());
    // Source is left rewound.
    TraceEvent ev;
    EXPECT_TRUE(src->next(ev));
}

// ---------------------------------------------------------------
// Reserve plumbing
// ---------------------------------------------------------------

TEST(Reserve, PageTableReserveKeepsSemantics)
{
    PageGeometry geo(8192, 1024);
    PageTable pt(geo, /*mem_pages=*/16, "lru");
    pt.reserve(1024);
    for (PageId p = 0; p < 8; ++p)
        pt.install(p, /*stamp=*/p);
    EXPECT_NE(pt.find(3), nullptr);
    EXPECT_EQ(pt.find(99), nullptr);
    pt.find(0)->last_touch = 8;
    EXPECT_EQ(pt.resident(), 8u);
    EXPECT_EQ(pt.evict(), 1u);
}

} // namespace
} // namespace sgms
