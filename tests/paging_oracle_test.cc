/**
 * @file
 * Independent paging oracle for the simulator's fault and eviction
 * counts.
 *
 * The oracle is a plain demand pager written here from scratch: a
 * std::list resident set (a ring of reference bits for Clock), no
 * network, no clock. Fault and eviction counts depend only on each
 * client's reference order, never on timing, so the kernel must
 * agree with it exactly — for every app and memory configuration,
 * and per client at N > 1, where every client has a private page
 * table.
 *
 * The kernel approximates LRU: a resident page's recency is refreshed
 * at most once per 64 of its references, and only on a reference to
 * a page other than the previous reference's (DESIGN.md §6). The
 * oracle writes that rule out explicitly; with the interval set to 1
 * it is exact LRU, which the last test shows is a different model.
 * Clock sets a page's reference bit at its fault and at each of
 * those refreshes.
 */

#include <gtest/gtest.h>

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

constexpr uint64_t kKernelTouchInterval = 64;

struct PagerCounts
{
    uint64_t faults = 0;
    uint64_t evictions = 0;
};

/**
 * Replay @p trace through a pager with @p frames frames (0 =
 * unlimited) under replacement @p repl. A resident page is refreshed
 * when it is referenced after a different page and at least
 * @p touch_interval references have passed since its last refresh
 * (or its fault). LRU moves it to the back of the eviction order,
 * Clock sets its reference bit, FIFO ignores it. Clock's hand clears
 * set bits until it finds a clear one, and an arrival takes the first
 * free slot from the hand.
 */
PagerCounts
oracle_pager(TraceSource &trace, size_t frames, const std::string &repl,
             uint64_t touch_interval = kKernelTouchInterval,
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
        uint64_t last_touch;
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
    PageId last = ~0ULL;
    uint64_t index = 0;
    TraceEvent ev;
    trace.reset();
    for (; trace.next(ev); ++index) {
        PageId page = ev.addr / page_size;
        if (page == last)
            continue; // resident, and never a refresh
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
            Entry e{{}, 0, index};
            if (clock)
                e.slot = clock_place(page);
            else
                e.pos = order.insert(order.end(), page);
            resident[page] = e;
        } else if (repl != "fifo" &&
                   index - it->second.last_touch >= touch_interval) {
            if (clock)
                ring[it->second.slot].referenced = true;
            else
                order.splice(order.end(), order, it->second.pos);
            it->second.last_touch = index;
        }
        last = page;
    }
    return counts;
}

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

TEST(PagingOracle, RecencyCoalescingIsNotExactLru)
{
    // The kernel's counts (pinned above to the coalescing oracle)
    // differ from exact LRU on small memories; DESIGN.md §6 quotes
    // these cells.
    const struct
    {
        const char *app;
        MemConfig mem;
        uint64_t kernel;
        uint64_t exact;
    } cells[] = {
        {"gdb", MemConfig::Half, 38, 36},
        {"gdb", MemConfig::Quarter, 64, 66},
        {"modula3", MemConfig::Quarter, 256, 255},
    };
    for (const auto &cell : cells) {
        SCOPED_TRACE(std::string(cell.app) + " " +
                     mem_config_name(cell.mem));
        Experiment ex = oracle_experiment(cell.app, cell.mem, "lru");
        EXPECT_EQ(ex.run().page_faults, cell.kernel);
        auto trace = ex.trace();
        EXPECT_EQ(oracle_pager(*trace, ex.config().mem_pages, "lru", 1)
                      .faults,
                  cell.exact);
    }
}

} // namespace
} // namespace sgms
