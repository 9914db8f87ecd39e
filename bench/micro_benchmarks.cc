/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * event queue, stage resources, page table, replacement policies,
 * RNG / Zipf sampling, trace generation, and a complete remote
 * fetch through the staged network. These guard the simulator's own
 * performance (it has to chew through hundreds of millions of trace
 * events per experiment).
 */

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "mem/page_table.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/kernel.h"
#include "trace/apps.h"

using namespace sgms;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (Tick t = 0; t < 1000; ++t)
            eq.schedule(t * 7 % 997, [&] { ++sink; });
        eq.run_all();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_ZipfPow(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.zipf(12800, 1.1));
}
BENCHMARK(BM_ZipfPow);

void
BM_ZipfTable(benchmark::State &state)
{
    Rng rng(1);
    ZipfTable table(12800, 1.1);
    for (auto _ : state)
        benchmark::DoNotOptimize(table.sample(rng));
}
BENCHMARK(BM_ZipfTable);

void
BM_PageTableFindHit(benchmark::State &state)
{
    PageGeometry geo(8192, 1024);
    PageTable pt(geo, 0);
    for (PageId p = 0; p < 1024; ++p)
        pt.install(p);
    PageId p = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.find(p));
        p = (p + 7) & 1023;
    }
}
BENCHMARK(BM_PageTableFindHit);

/**
 * One LRU victim selection from a full table of 1024 pages, after a
 * restamp of one page, so the victim search re-keys the pages used
 * since their entries last surfaced.
 */
void
BM_LruVictim(benchmark::State &state)
{
    PageGeometry geo(8192, 1024);
    PageTable pt(geo, 1024, "lru");
    uint64_t clock = 0;
    for (PageId p = 0; p < 1024; ++p)
        pt.install(p, ++clock);
    PageId p = 0;
    for (auto _ : state) {
        pt.find(p)->last_touch = ++clock;
        p = (p + 7) & 1023;
        pt.install(pt.evict(), ++clock);
    }
}
BENCHMARK(BM_LruVictim);

void
BM_TraceGeneration(benchmark::State &state)
{
    auto trace = make_app_trace("modula3", 0.1, 1);
    TraceEvent ev;
    for (auto _ : state) {
        if (!trace->next(ev))
            trace->reset();
        benchmark::DoNotOptimize(ev.addr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_RemoteFetch8K(benchmark::State &state)
{
    // One complete staged-network demand fetch (request + 8K page).
    NetParams params = NetParams::an2();
    for (auto _ : state) {
        EventQueue eq;
        Network net(eq, params);
        Tick arrival = 0;
        net.send(0, {0, 1, params.request_bytes, MsgKind::Request,
                     false, [&](Tick when, Tick) {
                         net.send(when, {1, 0, 8192,
                                         MsgKind::DemandData, false,
                                         [&](Tick d, Tick) {
                                             arrival = d;
                                         }});
                     }});
        eq.run_all();
        benchmark::DoNotOptimize(arrival);
    }
}
BENCHMARK(BM_RemoteFetch8K);

void
BM_SimulatorEndToEnd(benchmark::State &state)
{
    // Whole-simulator throughput in trace events per second.
    SimConfig cfg;
    cfg.policy = "eager";
    cfg.subpage_size = 1024;
    cfg.mem_pages = 64;
    uint64_t refs = 0;
    for (auto _ : state) {
        auto trace = make_app_trace("gdb", 1.0, 1);
        Simulator sim(cfg);
        SimResult r = sim.run(*trace);
        refs += r.refs;
        benchmark::DoNotOptimize(r.runtime);
    }
    state.SetItemsProcessed(refs);
}
BENCHMARK(BM_SimulatorEndToEnd);

} // namespace

BENCHMARK_MAIN();
