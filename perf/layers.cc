#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "exec/ipc.h"
#include "exec/parallel_runner.h"
#include "exec/result_codec.h"
#include "gms/gms.h"
#include "mem/page_table.h"
#include "net/network.h"
#include "perf.h"
#include "policy/fetch_policy.h"
#include "sim/event_queue.h"
#include "trace/trace_store.h"

namespace sgms::perf
{

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr size_t kBatch = 1024;
constexpr double kMiB = 1024.0 * 1024.0;

/** Evictions handed to GmsCluster::put_page per timed chunk. */
constexpr size_t kPutChunk = 64;

/** A page fault the page-table replay took. */
struct ReplayFault
{
    PageId page;
    SubpageIndex subpage;
    uint32_t byte_in_sub;
    uint32_t client;
};

/** A page the page-table replay evicted. */
struct ReplayEviction
{
    PageId page;
    bool dirty;
    uint32_t client;
};

/** Host time and work per layer, summed over a workload's points. */
struct LayerTotals
{
    double replay_s = 0, pt_s = 0, plan_s = 0, net_s = 0, gms_s = 0;
    uint64_t refs = 0, evictions = 0, plans = 0, msgs = 0, events = 0;
    uint64_t puts = 0;
};

/**
 * Drive one point's inputs through each module's public calls: drain
 * its trace cursors; replay each client's page stream through a
 * PageTable at the point's capacity; plan every replayed fault with
 * the point's FetchPolicy; send each plan's request and segments
 * through a Network and drain the EventQueue; hand every eviction to
 * GmsCluster::put_page.
 */
void
drive_layers(const Experiment &ex, LayerTotals &t)
{
    SimConfig cfg = ex.config();
    uint32_t n = clients_of(ex);
    PageGeometry geo(cfg.page_size, cfg.subpage_size);
    auto traces = ex.client_traces(n);
    std::vector<TraceEvent> batch(kBatch);

    for (auto &tr : traces) {
        auto t0 = Clock::now();
        while (size_t got = tr->next_batch(batch.data(), kBatch))
            t.refs += got;
        t.replay_s += since(t0);
        tr->reset();
    }

    std::vector<ReplayFault> faults;
    std::vector<ReplayEviction> evictions;
    for (uint32_t c = 0; c < n; ++c) {
        PageTable pt(geo, cfg.mem_pages, cfg.replacement);
        pt.reserve(cfg.footprint_pages_hint);
        while (size_t got = traces[c]->next_batch(batch.data(), kBatch)) {
            auto t0 = Clock::now();
            for (size_t i = 0; i < got; ++i) {
                const TraceEvent &ev = batch[i];
                PageId page = geo.page_of(ev.addr);
                PageTable::Frame *f = pt.find(page);
                if (!f) {
                    if (pt.full()) {
                        PageTable::Frame victim;
                        PageId v = pt.evict(&victim);
                        evictions.push_back({v, victim.dirty, c});
                    }
                    f = &pt.install(page);
                    pt.mark_all_valid(page);
                    faults.push_back(
                        {page, geo.subpage_of(ev.addr),
                         static_cast<uint32_t>(ev.addr &
                                               (cfg.subpage_size - 1)),
                         c});
                }
                f->dirty = f->dirty || ev.write;
                pt.touch(page);
            }
            t.pt_s += since(t0);
        }
        t.evictions += pt.evictions();
    }

    uint32_t spp = geo.subpages_per_page();
    uint64_t all = spp >= 64 ? ~0ULL : (1ULL << spp) - 1;
    auto policy = make_fetch_policy(cfg.policy);
    std::vector<FetchPlan> plans;
    plans.reserve(faults.size());
    auto t0 = Clock::now();
    for (const ReplayFault &f : faults)
        plans.push_back(policy->plan(geo, f.subpage, f.byte_in_sub, all));
    t.plan_s += since(t0);
    t.plans += plans.size();

    // Servers sit at nodes n..n+S-1 and pages are namespaced per
    // client, as in the multi-client kernel (identity at n=1).
    EventQueue eq;
    Network net(eq, cfg.net);
    GmsCluster gms(net, cfg.gms, /*requester=*/n - 1);
    Tick now = 0;
    t0 = Clock::now();
    for (size_t i = 0; i < faults.size(); ++i) {
        const FetchPlan &plan = plans[i];
        if (plan.from_disk)
            continue;
        NodeId client = faults[i].client;
        NodeId srv = gms.server_of(faults[i].page * n + client);
        net.send(now,
                 {client, srv, cfg.net.request_bytes, MsgKind::Request,
                  false, [&net, &plan, client, srv](Tick when, Tick) {
                      for (const TransferSegment &seg : plan.segments) {
                          net.send(when,
                                   {srv, client, seg.bytes,
                                    seg.demand ? MsgKind::DemandData
                                               : MsgKind::BackgroundData,
                                    seg.pipelined_recv,
                                    {}});
                      }
                  }});
        now = eq.run_all();
    }
    t.net_s += since(t0);
    t.msgs += net.stats().messages;
    t.events += eq.executed();

    for (size_t i = 0; i < evictions.size(); i += kPutChunk) {
        size_t end = std::min(evictions.size(), i + kPutChunk);
        t0 = Clock::now();
        for (size_t k = i; k < end; ++k) {
            const ReplayEviction &e = evictions[k];
            gms.put_page(now, e.page * n + e.client, cfg.page_size,
                         e.dirty, e.client);
        }
        t.gms_s += since(t0);
        now = eq.run_all(); // the putpage traffic, untimed
    }
    t.puts += evictions.size();
}

/** Ship every blob through write_frame/read_frame over one pipe. */
double
time_ipc(std::vector<std::string> blobs, bool &ok)
{
    int fds[2];
    if (::pipe(fds) != 0)
        fatal("perf: pipe() failed");
    size_t received = 0;
    auto t0 = Clock::now();
    std::thread reader([&received, fd = fds[0]] {
        exec::IpcFrame f;
        while (exec::read_frame(fd, f) == exec::IpcRead::Ok)
            ++received;
    });
    bool written = true;
    for (size_t i = 0; i < blobs.size(); ++i) {
        exec::IpcFrame f;
        f.type = exec::FrameType::Result;
        f.index = i;
        f.payload = std::move(blobs[i]);
        written = exec::write_frame(fds[1], f) && written;
    }
    ::close(fds[1]);
    reader.join();
    double secs = since(t0);
    ::close(fds[0]);
    ok = written && received == blobs.size();
    return secs;
}

double
metric_value(const SimResult &r, const char *name)
{
    for (const auto &m : r.metrics) {
        if (m.name == name)
            return m.value;
    }
    return 0.0;
}

} // namespace

TracedRun
run_traced(const Workload &w, double setup_s)
{
    TracedRun out;
    size_t np = w.points.size();

    // One engine pass, as the untraced run makes it: the blobs every
    // inline run is compared against, and the digest.
    exec::Engine engine(w.exec);
    auto t0 = Clock::now();
    std::vector<SimResult> engine_res = engine.run_all(w.points);
    double engine_wall = since(t0);
    TraceStoreStats store = trace_store_stats();
    out.digest = results_digest(engine_res);

    std::vector<double> point_s;
    std::vector<SimResult> inline_res;
    for (const Experiment &ex : w.points) {
        t0 = Clock::now();
        inline_res.push_back(ex.run());
        point_s.push_back(since(t0));
    }

    double encode_s = 0, decode_s = 0;
    uint64_t blob_bytes = 0;
    std::vector<std::string> blobs;
    for (size_t i = 0; i < np; ++i) {
        t0 = Clock::now();
        blobs.push_back(exec::result_blob(inline_res[i]));
        encode_s += since(t0);
        blob_bytes += blobs.back().size();
        SimResult back;
        t0 = Clock::now();
        bool decoded = exec::read_result_blob(blobs.back(), back);
        decode_s += since(t0);

        std::string why =
            check_point(w.points[i], engine_res[i], w.trace_refs[i]);
        if (why.empty() && !decoded)
            why = "inline result blob does not decode";
        if (why.empty() && exec::result_blob(engine_res[i]) != blobs[i])
            why = "engine result blob differs from the inline run";
        if (!why.empty()) {
            out.failures.push_back(
                "point " + std::to_string(i) + " (" + w.points[i].app +
                " " + w.points[i].label() + "): " + why);
        }
    }
    bool ipc_ok = true;
    double ipc_s = time_ipc(std::move(blobs), ipc_ok);
    if (!ipc_ok)
        out.failures.push_back("ipc: a result frame did not round-trip");

    LayerTotals lt;
    for (const Experiment &ex : w.points)
        drive_layers(ex, lt);

    double inline_s = 0, event_point_s = 0, events = 0, wire = 0;
    double srv_max = 0;
    uint64_t inline_refs = 0;
    std::vector<double> sp_wait_us;
    for (size_t i = 0; i < np; ++i) {
        const SimResult &r = inline_res[i];
        inline_s += point_s[i];
        inline_refs += r.refs;
        double ev = metric_value(r, "sim.kernel_events");
        events += ev;
        if (ev > 0)
            event_point_s += point_s[i];
        // The gauge sums the clients' inbound wires at N>1.
        wire +=
            metric_value(r, "net.wire_busy") / clients_of(w.points[i]);
        for (const char *g : {"gms.server_cpu_util_max",
                              "gms.server_dma_util_max",
                              "gms.server_wire_util_max"})
            srv_max = std::max(srv_max, metric_value(r, g));
        for (const FaultRecord &f : r.faults)
            sp_wait_us.push_back(ticks::to_us(f.sp_wait));
    }
    double layer_s =
        lt.replay_s + lt.pt_s + lt.plan_s + lt.net_s + lt.gms_s;
    unsigned width = w.exec.workers ? w.exec.workers : w.exec.jobs;
    auto per = [](double secs, uint64_t n) {
        return n ? secs * 1e9 / static_cast<double>(n) : 0.0;
    };

    std::vector<std::pair<const char *, double>> values = {
        {"trace.setup_s", setup_s},
        {"trace.store_hits", static_cast<double>(store.hits)},
        {"trace.store_fallbacks", static_cast<double>(store.fallbacks)},
        {"trace.store_mb", static_cast<double>(store.bytes) / kMiB},
        {"trace.mapped_mb",
         static_cast<double>(store.mapped_bytes) / kMiB},
        {"trace.replay_ns_per_ref", per(lt.replay_s, lt.refs)},
        {"mem.pt_ns_per_ref", per(lt.pt_s, lt.refs)},
        {"mem.evictions", static_cast<double>(lt.evictions)},
        {"policy.plan_ns", per(lt.plan_s, lt.plans)},
        {"policy.msgs_per_fault",
         lt.plans ? static_cast<double>(lt.msgs) / lt.plans : 0.0},
        {"net.send_ns_per_msg", per(lt.net_s, lt.msgs)},
        {"net.events_per_msg",
         lt.msgs ? static_cast<double>(lt.events) / lt.msgs : 0.0},
        {"gms.put_page_ns", per(lt.gms_s, lt.puts)},
        {"core.point_ms_p50", quantile(point_s, 0.5) * 1e3},
        {"core.point_ms_p90", quantile(point_s, 0.9) * 1e3},
        {"core.points", static_cast<double>(np)},
        {"core.ns_per_ref", per(inline_s, inline_refs)},
        {"core.layer_coverage", inline_s > 0 ? layer_s / inline_s : 0.0},
        {"sim.kernel_events", events},
        {"sim.ns_per_event",
         events > 0 ? event_point_s * 1e9 / events : 0.0},
        {"exec.encode_ms", encode_s * 1e3},
        {"exec.decode_ms", decode_s * 1e3},
        {"exec.blob_mb", static_cast<double>(blob_bytes) / kMiB},
        {"exec.ipc_ms", ipc_s * 1e3},
        {"exec.overhead_s", engine_wall - lpt_makespan(point_s, width)},
        {"net.wire_util", np ? wire / static_cast<double>(np) : 0.0},
        {"gms.server_util_max", srv_max},
        {"sim.sp_wait_us_p50", quantile(sp_wait_us, 0.5)},
        {"sim.sp_wait_us_p90", quantile(sp_wait_us, 0.9)},
    };
    for (const MetricSpec &spec : per_layer_metrics()) {
        auto it = std::find_if(values.begin(), values.end(),
                               [&](const auto &v) {
                                   return std::string(v.first) == spec.name;
                               });
        SGMS_ASSERT(it != values.end());
        out.metrics.push_back({spec.name, spec.unit, it->second});
    }
    SGMS_ASSERT(out.metrics.size() == values.size());
    return out;
}

} // namespace sgms::perf
