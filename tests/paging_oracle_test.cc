/**
 * @file
 * Independent paging oracles for the simulator's fault and eviction
 * counts.
 *
 * The first oracle is a plain demand pager written here on its own:
 * a std::list resident set (a ring of reference bits for Clock), no
 * network, no clock. The second is Mattson's one-pass LRU stack
 * algorithm, which gives a trace's LRU fault count at every memory
 * size at once. Fault and eviction counts depend only on each
 * client's reference order, never on timing, so the kernel must agree
 * with both exactly: for every app at every memory size checked, and
 * per client at N > 1, where every client has a private page table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/experiment.h"
#include "sim/kernel.h"
#include "trace/apps.h"
#include "trace/trace.h"

namespace sgms
{
namespace
{

struct PagerCounts
{
    uint64_t faults = 0;
    uint64_t evictions = 0;
};

/**
 * Replay @p trace through a pager with @p frames frames (0 =
 * unlimited) under replacement @p repl. Every reference to a resident
 * page refreshes it: LRU moves it to the back of the eviction order,
 * Clock sets its reference bit, FIFO ignores it. Clock's hand clears
 * set bits until it finds a clear one, and an arrival takes the first
 * free slot from the hand.
 */
PagerCounts
oracle_pager(TraceSource &trace, size_t frames, const std::string &repl,
             uint32_t page_size = 8192)
{
    const bool clock = repl == "clock";
    std::list<PageId> order; // LRU and FIFO: front = next victim
    struct Slot
    {
        PageId page;
        bool referenced;
        bool live;
    };
    std::vector<Slot> ring; // Clock
    size_t hand = 0;
    struct Entry
    {
        std::list<PageId>::iterator pos;
        size_t slot;
    };
    std::unordered_map<PageId, Entry> resident;
    auto clock_victim = [&] {
        for (;; hand = (hand + 1) % ring.size()) {
            Slot &s = ring[hand];
            if (s.live && !s.referenced) {
                s.live = false;
                hand = (hand + 1) % ring.size();
                return s.page;
            }
            s.referenced = false;
        }
    };
    auto clock_place = [&](PageId page) {
        for (size_t k = 0; k < ring.size(); ++k) {
            size_t i = (hand + k) % ring.size();
            if (!ring[i].live) {
                ring[i] = {page, true, true};
                return i;
            }
        }
        ring.push_back({page, true, true});
        return ring.size() - 1;
    };

    PagerCounts counts;
    TraceEvent ev;
    trace.reset();
    while (trace.next(ev)) {
        PageId page = ev.addr / page_size;
        auto it = resident.find(page);
        if (it == resident.end()) {
            ++counts.faults;
            if (frames && resident.size() == frames) {
                if (clock) {
                    resident.erase(clock_victim());
                } else {
                    resident.erase(order.front());
                    order.pop_front();
                }
                ++counts.evictions;
            }
            Entry e{};
            if (clock)
                e.slot = clock_place(page);
            else
                e.pos = order.insert(order.end(), page);
            resident[page] = e;
        } else if (clock) {
            ring[it->second.slot].referenced = true;
        } else if (repl == "lru") {
            order.splice(order.end(), order, it->second.pos);
        }
    }
    return counts;
}

/**
 * A trace's LRU fault count at every memory size, by Mattson's stack
 * algorithm. A reference's stack distance is the number of distinct
 * pages used since its page's previous use, that page included; LRU
 * with k frames faults on it exactly when the distance exceeds k, and
 * on every first use. A Fenwick tree over reference indices holds a 1
 * at each page's latest use, so a distance is the sum over the
 * indices since that page's previous use: one pass, O(n log n). A
 * reference to the previous reference's page has distance 1 and
 * changes no other page's distance, so it is skipped, and a page's
 * mark stays at the first reference of its latest run.
 */
class LruMissCurve
{
  public:
    explicit LruMissCurve(TraceSource &trace, uint32_t page_size = 8192)
        : tree_(trace.size_hint() + 1)
    {
        std::unordered_map<PageId, size_t> last_use;
        PageId prev_page = ~0ULL;
        size_t t = 0;
        TraceEvent ev;
        trace.reset();
        for (; trace.next(ev); ++t) {
            PageId page = ev.addr / page_size;
            if (page == prev_page)
                continue;
            prev_page = page;
            auto [it, first] = last_use.try_emplace(page, t);
            if (first) {
                ++first_uses_;
            } else {
                size_t d = prefix(t) - prefix(it->second);
                if (d >= by_distance_.size())
                    by_distance_.resize(d + 1);
                ++by_distance_[d];
                add(it->second, -1);
                it->second = t;
            }
            add(t, 1);
        }
        EXPECT_EQ(t + 1, tree_.size()) << "size_hint must be exact";
    }

    /** Distinct pages of the trace. */
    uint64_t footprint() const { return first_uses_; }

    /** LRU page faults with @p frames frames. */
    uint64_t
    faults(size_t frames) const
    {
        uint64_t f = first_uses_;
        for (size_t d = frames + 1; d < by_distance_.size(); ++d)
            f += by_distance_[d];
        return f;
    }

  private:
    void
    add(size_t i, int32_t v)
    {
        for (++i; i < tree_.size(); i += i & -i)
            tree_[i] += v;
    }

    /** Marks at indices [0, @p i). */
    size_t
    prefix(size_t i) const
    {
        int64_t sum = 0;
        for (; i > 0; i &= i - 1)
            sum += tree_[i];
        return static_cast<size_t>(sum);
    }

    std::vector<int32_t> tree_; // 1-based
    std::vector<uint64_t> by_distance_;
    uint64_t first_uses_ = 0;
};

Experiment
oracle_experiment(const std::string &app, MemConfig mem,
                  const std::string &replacement)
{
    Experiment ex;
    ex.app = app;
    ex.scale = 0.05;
    ex.policy = "fullpage";
    ex.mem = mem;
    ex.base.replacement = replacement;
    return ex;
}

double
gauge_of(const SimResult &r, const std::string &name)
{
    for (const auto &m : r.metrics)
        if (m.name == name)
            return m.value;
    return -1.0;
}

TEST(PagingOracle, FullpageCountsMatchForEveryAppAndMemory)
{
    for (const char *repl : {"lru", "fifo", "clock"}) {
        for (const std::string &app : app_names()) {
            for (MemConfig mem : {MemConfig::Half, MemConfig::Quarter}) {
                SCOPED_TRACE(std::string(repl) + " " + app + " " +
                             mem_config_name(mem));
                Experiment ex = oracle_experiment(app, mem, repl);
                SimResult r = ex.run();
                auto trace = ex.trace();
                PagerCounts want =
                    oracle_pager(*trace, ex.config().mem_pages, repl);
                EXPECT_EQ(r.page_faults, want.faults);
                EXPECT_EQ(r.evictions, want.evictions);
                EXPECT_GT(want.evictions, 0u);
            }
        }
    }
}

TEST(PagingOracle, PerClientCountsMatchAtFourClients)
{
    // Eager subpages at N=4: clients contend for the shared servers,
    // so their timing interleaves, yet each client's fault count is
    // still fixed by its own rotated trace.
    for (const char *repl : {"lru", "fifo", "clock"}) {
        for (const std::string &app : app_names()) {
            SCOPED_TRACE(std::string(repl) + " " + app);
            Experiment ex =
                oracle_experiment(app, MemConfig::Half, repl);
            ex.policy = "eager";
            ex.clients = 4;
            ex.base.metrics_per_client = true;
            SimResult r = ex.run();
            size_t frames = ex.config().mem_pages;
            auto traces = ex.client_traces(4);
            uint64_t evictions = 0;
            for (uint32_t c = 0; c < 4; ++c) {
                PagerCounts want = oracle_pager(*traces[c], frames, repl);
                EXPECT_EQ(gauge_of(r, "client." + std::to_string(c) +
                                          ".page_faults"),
                          static_cast<double>(want.faults))
                    << "client " << c;
                evictions += want.evictions;
            }
            EXPECT_EQ(r.evictions, evictions);
        }
    }
}

TEST(PagingOracle, LruFaultsMatchTheStackDistanceCurve)
{
    // Every eighth of each app's footprint, from 1/8 to 7/8: sizes
    // no MemConfig names, and small ones where LRU is most easily
    // approximated wrongly.
    for (const std::string &app : app_names()) {
        Experiment ex = oracle_experiment(app, MemConfig::Half, "lru");
        SimConfig cfg = ex.config();
        auto trace = ex.trace();
        LruMissCurve curve(*trace);
        ASSERT_EQ(curve.footprint(), cfg.footprint_pages_hint) << app;
        for (uint64_t k = 1; k <= 7; ++k) {
            cfg.mem_pages =
                std::max<uint64_t>(2, curve.footprint() * k / 8);
            SCOPED_TRACE(app + " " + std::to_string(cfg.mem_pages) +
                         " frames");
            SimResult r = Simulator(cfg).run(*trace);
            EXPECT_EQ(r.page_faults, curve.faults(cfg.mem_pages));
            EXPECT_GT(r.evictions, 0u);
        }
    }
}

} // namespace
} // namespace sgms
