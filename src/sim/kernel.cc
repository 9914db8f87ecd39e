#include "sim/kernel.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "gms/gms.h"
#include "mem/tlb.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "proto/palcode.h"
#include "sim/event_queue.h"

namespace sgms
{

namespace
{
/** Most references read from a client's trace per next_words call. */
constexpr size_t TRACE_BATCH = 1024;

/**
 * The hit test for a reference at index @p ref to the page whose
 * frame is @p f, which it stamps with @p ref: a stamp is the page's
 * last use, so replacement sees exact LRU order (DESIGN.md §6). A
 * frame that is not resident keeps the store unread until install()
 * overwrites it. A hit needs nothing but the dirty bit: the frame is
 * present, complete (so no subpage test and no PAL charge) and
 * unwatched.
 */
inline bool
hit_and_stamp(PageTable::Frame &f, uint64_t ref)
{
    f.last_touch = ref;
    return f.present & f.complete & (f.watch_from < 0);
}

/**
 * Mark the subpages in @p mask of @p page (whose frame is @p frame)
 * valid, and tell the PAL emulator once the page is complete.
 */
void
land_subpages(PageTable &pt, PalEmulator &pal, PageId page,
              const PageTable::Frame &frame, uint64_t mask)
{
    for (uint64_t m = mask; m; m &= m - 1)
        pt.mark_valid(page, static_cast<SubpageIndex>(__builtin_ctzll(m)));
    if (frame.complete)
        pal.page_completed(page);
}

/**
 * The tick @p after past @p when, for a fetch timer. fatal() past the
 * tick range: only a timeout multiplier or backoff far beyond any
 * fetch's latency gets there, and a wrapped tick would run the timer
 * in the past.
 */
Tick
timer_at(Tick when, Tick after)
{
    if (after > TICK_MAX - when)
        fatal("a fetch timer %.3g ms after %.3g ms passes the "
              "simulated clock's range; lower --fault-timeout-mult",
              ticks::to_ms(after), ticks::to_ms(when));
    return when + after;
}
} // namespace

/**
 * Where a parked client resumes. A reference is split at its yield
 * points (steal applied / TLB charged / body), so a client that
 * yields to pending events re-enters exactly where it left off.
 */
enum class Simulator::Phase : uint8_t
{
    RefSteal, ///< cur_ev loaded; apply pending receive-CPU steal
    RefTlb,   ///< steal applied; charge the TLB
    RefBody,  ///< TLB charged; page handling
    DiskWake, ///< sleeping on a disk access; cont says which kind
};

/** Which accounting runs when a parked client wakes. */
enum class Simulator::Cont : uint8_t
{
    None,
    NetPageFault,        ///< demand fetch of a freshly-installed page
    NetSubpageFault,     ///< lazy fetch into a resident page
    PageWaitInflight,    ///< stalled on an already-in-flight subpage
    DiskPageFault,       ///< whole-page disk fault (cold / degraded)
    DiskSubpageDegraded, ///< degraded lazy fetch served by disk
};

/** One client node: its own paging state plus a parked continuation. */
struct Simulator::Client
{
    Client(uint32_t cid, const SimConfig &cfg, const PageGeometry &geo,
           obs::MetricsRegistry &metrics)
        : id(cid), pt(geo, cfg.mem_pages, cfg.replacement),
          policy(make_fetch_policy(cfg.policy, &metrics)), pal(cfg.pal)
    {
        if (cfg.footprint_pages_hint)
            pt.reserve(cfg.footprint_pages_hint);
        if (cfg.tlb_enabled)
            tlb = std::make_unique<Tlb>(cfg.tlb_entries, cfg.tlb_assoc,
                                        cfg.page_size);
    }

    uint32_t id;
    TraceSource *trace = nullptr;

    // Per-client paging machinery; the policy's counters resolve to
    // the shared registry entries, so metrics aggregate across
    // clients by construction.
    PageTable pt;
    std::unique_ptr<FetchPolicy> policy;
    PalEmulator pal;
    std::unique_ptr<Tlb> tlb;

    // Program clock and blocking bookkeeping.
    Tick now = 0;
    uint64_t ref_index = 0;
    uint64_t wait_seq = 0;
    bool blocked = false;
    Tick wait_start = 0;
    Tick pending_steal = 0;

    // The current batch: packed words read in place, either in the
    // trace's shared array or in this client's scratch slots.
    const uint64_t *words = nullptr;
    size_t batch_i = 0;
    size_t batch_n = 0;

    // Current reference and the last page the per-reference path
    // took. For an overflow page (id past the dense frames)
    // last_frame is its frame while complete and unwatched, else
    // null: that path's shortcut for those pages. Only this client's
    // own faults install or evict its pages, and every fault
    // refreshes both.
    TraceEvent cur_ev{};
    PageId last_page = ~0ULL;
    PageTable::Frame *last_frame = nullptr;

    // Parked continuation.
    Phase phase = Phase::RefSteal;
    Cont cont = Cont::None;
    PageId wait_page = 0;
    SubpageIndex wait_sp = 0;
    uint64_t wait_fault_id = 0;
    Tick sleep_lat = 0;
    int64_t wait_plan_bytes = 0;
    bool finished = false;

    // Per-client tallies, summed (in client order) into the
    // aggregate result; integer sums, so N=1 is bit-exact. Exec time
    // is not tallied: it is ref_index * ns_per_ref (Run::exec_time).
    Tick sp_latency = 0;
    Tick page_wait = 0;
    Tick recv_overhead = 0;
    Tick emulation_overhead = 0;
    Tick tlb_overhead = 0;
    uint64_t page_faults = 0;

    /**
     * Cumulative blocked time as of time @p t: a finished stall is
     * charged to sp_latency or page_wait.
     */
    Tick
    blocked_at(Tick t) const
    {
        Tick stalled = sp_latency + page_wait;
        return blocked ? stalled + (t - wait_start) : stalled;
    }
};

/**
 * All mutable state of one run. The run is also the target of its
 * fetches' events (argument: FetchEvent << 32 | plan slot).
 */
struct Simulator::Run final : EventTarget
{
    Run(Simulator &owner, const SimConfig &cfg, uint32_t nclients)
        : sim(owner), n(nclients), tracer(cfg.tracer),
          finj(cfg.faults.enabled()
                   ? std::make_unique<fault::FaultInjector>(cfg.faults)
                   : nullptr),
          net(eq, cfg.net, /*requester=*/nclients - 1, cfg.tracer,
              finj.get()),
          gms(net, cfg.gms, /*requester=*/nclients - 1, cfg.tracer),
          geo(cfg.page_size, cfg.subpage_size),
          c_disk_faults(&metrics.counter("sim.disk_faults")),
          d_fault_wait(&metrics.distribution("sim.fault_wait_ns")),
          step_len(cfg.ns_per_ref),
          software_pal(cfg.protection == ProtectionMode::SoftwarePal)
    {
        // Registered only under fault injection so that fault-free
        // runs keep a byte-identical snapshot.
        if (finj)
            d_retry_delay = &metrics.distribution("gms.retry_delay_ns");
        res.policy = cfg.policy;
        res.page_size = cfg.page_size;
        res.subpage_size = cfg.subpage_size;
        res.mem_pages = cfg.mem_pages;

        clients.reserve(nclients);
        for (uint32_t i = 0; i < nclients; ++i)
            clients.emplace_back(i, cfg, geo, metrics);
        scratch_buf.resize(static_cast<size_t>(nclients) * TRACE_BATCH);
        heap.reserve(nclients + 1);
    }

    /** What is due for the fetch in a plan slot. */
    enum class FetchEvent : uint64_t
    {
        Attempt,  ///< inject the latest attempt's request
        Timeout,  ///< the latest attempt's timer (fault injection only)
        DiskRead, ///< a degraded fetch's disk read completes
    };

    void
    schedule(Tick at, FetchEvent ev, uint32_t slot)
    {
        eq.schedule(at, *this, static_cast<uint64_t>(ev) << 32 | slot);
    }

    void
    on_event(Tick when, uint64_t arg) override
    {
        const uint32_t slot = static_cast<uint32_t>(arg);
        switch (static_cast<FetchEvent>(arg >> 32)) {
        case FetchEvent::Attempt:
            sim.start_attempt(*this, slot, when);
            break;
        case FetchEvent::Timeout:
            sim.on_fetch_timeout(*this, slot, when);
            break;
        case FetchEvent::DiskRead:
            sim.finish_disk_read(*this, slot, when);
            break;
        }
    }

    Simulator &sim;
    uint32_t n;

    // Declared before the clients, whose fetch policies register
    // their counters with it; the fault injector comes before net,
    // which holds a pointer to it.
    obs::MetricsRegistry metrics;
    obs::Tracer *tracer;
    std::unique_ptr<fault::FaultInjector> finj;
    EventQueue eq;
    Network net;
    GmsCluster gms;
    PageGeometry geo;

    // The registry's live entries: what no other record keeps. Every
    // other count is published from its record at finish().
    obs::Counter *c_disk_faults;
    obs::Distribution *d_fault_wait;
    obs::Distribution *d_retry_delay = nullptr;

    SimResult res;

    // Dense per-client state plus one flat scratch buffer for traces
    // that do not hold packed words (client i owns slots
    // [i*TRACE_BATCH, (i+1)*TRACE_BATCH)); nothing here allocates
    // after construction.
    std::vector<Client> clients;
    std::vector<uint64_t> scratch_buf;

    /** Runnable-client min-heap entry, ordered by (at, id). */
    struct Runnable
    {
        Tick at;
        uint32_t id;
    };
    std::vector<Runnable> heap;
    uint32_t active = 0;

    /**
     * One remote fetch, from its fault until its last event. Without
     * fault injection that is the server answering its request; with
     * it, the slot lives until the event that finds the fetch done
     * (its one pending attempt or timeout) or until its degraded disk
     * read lands. Stored by slot and recycled through a free list, so
     * once the store is at size a fetch allocates nothing. Requests
     * and deliveries carry the slot and the run-wide fetch number: a
     * request that outlives its fetch (another number in the slot, or
     * `done`) is dropped, and a late delivery lands without touching
     * the slot.
     */
    struct PlannedFetch
    {
        /**
         * Each attempt's plan, by attempt index: a late or duplicated
         * request is served with its own attempt's plan. The first
         * `attempts` entries are this fetch's; the rest keep their
         * storage for the slot's next fetch.
         */
        std::vector<FetchPlan> plans;
        uint32_t attempts = 0;
        uint64_t fetch = 0;
        PageId page = 0;
        uint64_t fault_id = 0;
        uint32_t client = 0;
        NodeId srv = 0;
        /**
         * All subpages the fetch must land (union of plan segments);
         * at degrade, the ones its disk read lands.
         */
        uint64_t expected = 0;
        /** Subpage the client blocks on (replan anchor for retries). */
        SubpageIndex demand_sp = 0;
        uint32_t byte_in_sub = 0;
        bool done = false;

        /**
         * Make @p plan the next attempt's and mark its subpages in
         * flight in @p frame.
         */
        void
        add_attempt(const FetchPlan &plan, PageTable::Frame &frame)
        {
            if (attempts == plans.size())
                plans.emplace_back();
            plans[attempts++] = plan;
            for (const TransferSegment &seg : plan.segments) {
                frame.inflight |= seg.subpage_mask;
                expected |= seg.subpage_mask;
            }
        }
    };
    std::vector<PlannedFetch> plans;
    std::vector<uint32_t> free_plans;
    uint64_t fetches = 0; ///< fetches issued: the next one's number

    /** A free plan slot; the store grows only past its high-water mark. */
    uint32_t
    alloc_plan()
    {
        if (free_plans.empty()) {
            plans.emplace_back();
            return static_cast<uint32_t>(plans.size() - 1);
        }
        uint32_t slot = free_plans.back();
        free_plans.pop_back();
        return slot;
    }

    /**
     * Whether fetch @p f is over, marking it done once every subpage
     * it expects has landed or its page was evicted or refaulted.
     */
    bool
    fetch_done(PlannedFetch &f)
    {
        if (!f.done) {
            const PageTable::Frame *frame = clients[f.client].pt.find(f.page);
            f.done = !frame || frame->fault_id != f.fault_id ||
                     (f.expected & ~frame->valid.raw()) == 0;
        }
        return f.done;
    }

    const Tick step_len;
    const bool software_pal;

    /** Execution time of @p c: each reference charges step_len. */
    Tick
    exec_time(const Client &c) const
    {
        return static_cast<Tick>(c.ref_index) * step_len;
    }

    /**
     * Namespace a client-local page id on the shared cluster.
     * Identity at n == 1, so directory hashing, warm/cold state, and
     * server placement match the paper's single-client setup.
     */
    PageId
    gpage(PageId page, uint32_t client) const
    {
        return page * n + client;
    }

    /** Client @p c's slots of the scratch buffer. */
    uint64_t *
    scratch(const Client &c)
    {
        return scratch_buf.data() + static_cast<size_t>(c.id) * TRACE_BATCH;
    }

    static bool
    later(const Runnable &a, const Runnable &b)
    {
        return a.at != b.at ? a.at > b.at : a.id > b.id;
    }

    void
    push_runnable(const Client &c, Tick at)
    {
        heap.push_back({at, c.id});
        std::push_heap(heap.begin(), heap.end(), later);
    }

    Runnable
    pop_runnable()
    {
        std::pop_heap(heap.begin(), heap.end(), later);
        Runnable top = heap.back();
        heap.pop_back();
        return top;
    }
};

Simulator::Simulator(SimConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.mem_pages == 1)
        fatal("simulator: mem_pages must be 0 (unlimited) or >= 2");
    if (cfg_.subpage_size > cfg_.page_size)
        fatal("simulator: subpage larger than page");
}

Simulator::~Simulator() = default;

uint64_t
Simulator::events_executed() const
{
    return run_ ? run_->eq.executed() : last_events_executed_;
}

uint64_t
Simulator::events_pending() const
{
    return run_ ? run_->eq.size() : 0;
}

uint64_t
Simulator::refs_executed() const
{
    if (!run_)
        return 0;
    uint64_t refs = 0;
    for (const Client &c : run_->clients)
        refs += c.ref_index;
    return refs;
}

void
Simulator::begin(const std::vector<TraceSource *> &traces)
{
    SGMS_ASSERT(!run_);
    SGMS_ASSERT(!traces.empty());
    run_ = std::make_unique<Run>(
        *this, cfg_, static_cast<uint32_t>(traces.size()));
    Run &r = *run_;
    for (uint32_t i = 0; i < r.n; ++i) {
        Client &c = r.clients[i];
        c.trace = traces[i];
        c.trace->reset();
        prime_client(r, c);
    }
}

void
Simulator::prime_client(Run &r, Client &c)
{
    size_t got = c.trace->next_words(c.words, r.scratch(c), TRACE_BATCH);
    if (got == 0) {
        c.finished = true;
        return;
    }
    c.batch_n = got;
    c.cur_ev = unpack_trace_event(c.words[0]);
    c.batch_i = 1;
    c.phase = Phase::RefSteal;
    r.push_runnable(c, 0);
    ++r.active;
}

bool
Simulator::drive(uint64_t rounds)
{
    SGMS_ASSERT(run_);
    Run &r = *run_;
    while (r.active > 0 && rounds > 0) {
        --rounds;
        if (r.heap.empty()) {
            // Every unfinished client is blocked on a fetch; only an
            // event can wake one, so the queue cannot be empty here.
            SGMS_ASSERT(!r.eq.empty());
            r.eq.run_one();
            continue;
        }
        // Events win ties so a client resuming at t sees every
        // delivery at <= t applied first.
        if (r.eq.next_time() <= r.heap.front().at) {
            r.eq.run_one();
            continue;
        }
        Run::Runnable top = r.pop_runnable();
        step(r, r.clients[top.id]);
    }
    return r.active > 0;
}

SimResult
Simulator::run(const std::vector<TraceSource *> &traces)
{
    begin(traces);
    while (drive(UINT64_MAX)) {
    }
    return finish();
}

void
Simulator::finish_client(Run &r, Client &c)
{
    c.finished = true;
    SGMS_ASSERT(r.active > 0);
    --r.active;
}

/**
 * Refill @p c's batch once it is used up. Returns false at the end of
 * the trace, after finishing the client, so the caller must have
 * written its state back first.
 */
bool
Simulator::refill_batch(Run &r, Client &c)
{
    size_t got = c.trace->next_words(c.words, r.scratch(c), TRACE_BATCH);
    if (got == 0) {
        // End of this client's trace: its pending events are
        // abandoned, and no event due at or before c.now runs on its
        // account.
        finish_client(r, c);
        return false;
    }
    c.batch_n = got;
    c.batch_i = 0;
    return true;
}

/**
 * Charge a reference that completed on a slow path, then load the
 * next one (finishing the client at end of trace). Returns true when
 * the caller should keep running the client inline; false when it
 * parked (or finished) and the caller must return to the scheduler.
 * Wake paths pass in_step=false: they run inside an event callback,
 * so the client always re-enters through the scheduler, which first
 * drains any events due at its resume time.
 */
bool
Simulator::advance_after_ref(Run &r, Client &c, bool in_step)
{
    c.now += r.step_len;
    ++c.ref_index;
    if (c.batch_i == c.batch_n && !refill_batch(r, c))
        return false;
    c.cur_ev = unpack_trace_event(c.words[c.batch_i++]);
    c.phase = Phase::RefSteal;
    if (in_step && r.eq.next_time() > c.now)
        return true;
    r.push_runnable(c, c.now);
    return false;
}

/**
 * Run @p c from its park point until it has to wait: the reference
 * loop (DESIGN.md §13, "Reference loop"). At a reference boundary
 * with no steal pending and no TLB modelled, resident hits on dense
 * pages run in a tight inner loop, bounded by the window's words and
 * the event horizon; the first reference it cannot take (a miss, an
 * overflow page) goes through the per-reference path below. The
 * client's hot state stays in locals, which are written back only
 * where the loop leaves it: a slow path, the event horizon, a batch
 * refill, or a charge (steal or TLB refill) that crosses the horizon.
 */
void
Simulator::step(Run &r, Client &c)
{
    if (c.phase == Phase::DiskWake) {
        finish_disk_wake(r, c);
        if (!complete_ref_after_slow(r, c, /*in_step=*/true))
            return;
    }

    // A hit schedules no event, so the next event time read here is
    // the horizon for every reference the loop runs.
    const Tick horizon = r.eq.next_time();
    const Tick step_len = r.step_len;
    const bool software_pal = r.software_pal;
    const PageGeometry geo = r.geo;
    // Only a page fault installs a page, and a fault leaves the loop
    // first, so the dense frames stay put while it runs.
    PageTable::Frame *const dense = c.pt.dense_frames();
    const PageId dense_n = c.pt.dense_size();
    Tlb *const tlb = c.tlb.get();
    const uint64_t *words = c.words;
    size_t batch_n = c.batch_n;
    Phase phase = c.phase;
    Tick steal = c.pending_steal;
    Tick now = c.now;
    uint64_t ref = c.ref_index;
    size_t batch_i = c.batch_i; // the current reference is word batch_i - 1
    TraceEvent ev = c.cur_ev;
    PageId last_page = c.last_page;
    PageTable::Frame *last_frame = c.last_frame;

    auto save = [&](Phase at) {
        c.now = now;
        c.ref_index = ref;
        c.batch_i = batch_i;
        c.cur_ev = ev;
        c.last_page = last_page;
        c.last_frame = last_frame;
        c.phase = at;
    };
    auto park = [&](Phase at) {
        save(at);
        r.push_runnable(c, now);
    };

    for (;;) {
        if (phase == Phase::RefSteal && !steal && !tlb) {
            // The hit run: it stops at the end of the window, at the
            // last reference before the horizon (now < horizon here),
            // or at a reference it cannot take, which becomes the
            // current one.
            size_t i = batch_i - 1;
            size_t end = batch_n;
            if (step_len > 0 && horizon != TICK_MAX) {
                uint64_t left =
                    static_cast<uint64_t>(horizon - now - 1) / step_len + 1;
                if (left < end - i)
                    end = i + left;
            }
            // A plain copy, so the run keeps it in a register.
            const size_t first = i;
            uint64_t run_ref = ref;
            for (; i < end; ++i, ++run_ref) {
                const uint64_t w = words[i];
                const PageId page = geo.page_of(w >> 1);
                if (page >= dense_n || !hit_and_stamp(dense[page], run_ref))
                    break;
                dense[page].dirty |= static_cast<bool>(w & 1);
            }
            ref = run_ref;
            if (i != first) {
                now += static_cast<Tick>(i - first) * step_len;
                const bool refill = i == batch_n;
                if (refill) {
                    batch_i = i;
                    save(Phase::RefSteal);
                    if (!refill_batch(r, c))
                        return;
                    words = c.words;
                    batch_n = c.batch_n;
                    i = 0;
                }
                batch_i = i + 1;
                ev = unpack_trace_event(words[i]);
                if (now >= horizon) {
                    park(Phase::RefSteal);
                    return;
                }
                if (refill)
                    continue; // a fresh window: back to the hit run
            }
        }

        // Only a delivery adds a steal, so one is pending here only
        // if it arrived while the client was parked; when that was
        // past this reference's RefSteal point, it lands on the next.
        if (steal && phase == Phase::RefSteal) {
            now += steal;
            c.recv_overhead += steal;
            c.pending_steal = steal = 0;
            if (now >= horizon) {
                park(Phase::RefTlb);
                return;
            }
        }
        if (tlb && phase != Phase::RefBody && !tlb->access(ev.addr)) {
            now += cfg_.tlb_miss_cost;
            c.tlb_overhead += cfg_.tlb_miss_cost;
            // Pending events must run before any fault handling
            // injects new messages.
            if (now >= horizon) {
                park(Phase::RefBody);
                return;
            }
        }

        // The same test, one reference at a time. Overflow pages (past
        // the dense frames) keep a last-page shortcut, which spares
        // them a hash lookup per reference.
        PageId page = geo.page_of(ev.addr);
        PageTable::Frame *frame = page < dense_n     ? dense + page
                                  : page == last_page ? last_frame
                                                      : nullptr;
        if (!frame)
            frame = c.pt.find(page);
        if (frame && hit_and_stamp(*frame, ref)) {
            frame->dirty |= ev.write;
            last_page = page;
            last_frame = frame;
        } else {
            if (!frame || !frame->present) {
                save(Phase::RefBody);
                if (!yield_for_slow_path(r, c))
                    page_fault(r, c, page);
                return; // parked on the fetch / disk sleep or yielded
            }
            SubpageIndex sp = geo.subpage_of(ev.addr);
            if (!frame->valid.test(sp)) {
                save(Phase::RefBody);
                if (yield_for_slow_path(r, c))
                    return;
                if (frame->subpage_inflight(sp)) {
                    park_fetch_wait(c, page, sp, frame->fault_id,
                                    Cont::PageWaitInflight, 0);
                } else {
                    subpage_fault(r, c, *frame, page);
                }
                return; // parked
            }
            if (software_pal && !frame->complete) {
                Tick cost = c.pal.access_cost(page, ev.write);
                now += cost;
                c.emulation_overhead += cost;
            }
            if (frame->watch_from >= 0)
                resolve_watch(r, c, *frame, sp);
            frame->dirty |= ev.write;
            last_page = page;
            last_frame = frame->complete && frame->watch_from < 0
                             ? frame
                             : nullptr;
        }

        now += step_len;
        ++ref;
        if (batch_i == batch_n) {
            save(Phase::RefSteal);
            if (!refill_batch(r, c))
                return;
            words = c.words;
            batch_i = 0;
            batch_n = c.batch_n;
        }
        ev = unpack_trace_event(words[batch_i++]);
        phase = Phase::RefSteal;
        if (now >= horizon) {
            park(Phase::RefSteal);
            return;
        }
    }
}

/**
 * Gate in front of every slow path (anything touching the shared
 * cluster). A client may run pure fast-path references arbitrarily
 * far ahead of its peers — they only touch client-local state — but
 * a fault must be issued in global time order or the stage resources
 * and event queue would see non-monotone submissions. Yield when any
 * event is due or any runnable peer precedes (c.now, c.id); the
 * client re-enters RefBody at the same reference and re-evaluates
 * (deliveries during the yield may have made it a fast hit). Never
 * triggers at N=1.
 */
bool
Simulator::yield_for_slow_path(Run &r, Client &c)
{
    bool need = r.eq.next_time() <= c.now;
    if (!need && !r.heap.empty()) {
        const Run::Runnable &top = r.heap.front();
        need = top.at < c.now || (top.at == c.now && top.id < c.id);
    }
    if (!need)
        return false;
    c.phase = Phase::RefBody;
    r.push_runnable(c, c.now);
    return true;
}

void
Simulator::park_fetch_wait(Client &c, PageId page, SubpageIndex sp,
                           uint64_t fault_id, Cont cont,
                           int64_t demand_bytes)
{
    c.blocked = true;
    c.wait_start = c.now;
    c.wait_page = page;
    c.wait_sp = sp;
    c.wait_fault_id = fault_id;
    c.wait_plan_bytes = demand_bytes;
    c.cont = cont;
    // Not pushed on the runnable heap: only a delivery (or degraded
    // disk completion) can make progress, and it wakes the client
    // from inside the event via maybe_wake().
}

void
Simulator::begin_disk_sleep(Run &r, Client &c, Tick lat,
                            Cont cont)
{
    c.blocked = true;
    c.wait_start = c.now;
    c.sleep_lat = lat;
    c.cont = cont;
    c.phase = Phase::DiskWake;
    // Parked *on* the heap: the wake time is known. Events due at or
    // before the target run first (the run_until(target) semantics).
    r.push_runnable(c, c.now + lat);
}

/** Called only while @p frame is watched (watch_from >= 0). */
void
Simulator::resolve_watch(Run &r, Client &c,
                         PageTable::Frame &frame,
                         SubpageIndex touched)
{
    if (static_cast<SubpageIndex>(frame.watch_from) == touched)
        return;
    int distance = static_cast<int>(touched) - frame.watch_from;
    if (cfg_.record_faults)
        r.res.next_subpage_distance.add(distance);
    c.policy->observe_distance(distance);
    frame.watch_from = -1;
}

void
Simulator::post_fault_epilogue(Run &r, Client &c,
                               PageTable::Frame &f)
{
    // Start watching for the next access to a different subpage
    // (Figure 7), unless the whole page just arrived at once.
    SubpageIndex sp = r.geo.subpage_of(c.cur_ev.addr);
    if (!f.complete)
        f.watch_from = static_cast<int16_t>(sp);
    else if (r.geo.subpages_per_page() > 1)
        f.watch_from = static_cast<int16_t>(sp);
    if (c.cur_ev.write)
        f.dirty = true;
}

void
Simulator::resolve_epilogue(Run &r, Client &c,
                            PageTable::Frame &f)
{
    if (f.watch_from >= 0)
        resolve_watch(r, c, f, r.geo.subpage_of(c.cur_ev.addr));
    if (c.cur_ev.write)
        f.dirty = true;
}

/** Shared tail of every slow path: refresh last_*, charge the ref. */
bool
Simulator::complete_ref_after_slow(Run &r, Client &c,
                                   bool in_step)
{
    PageId page = r.geo.page_of(c.cur_ev.addr);
    PageTable::Frame *f = c.pt.find(page);
    SGMS_ASSERT(f);
    c.last_page = page;
    c.last_frame = f->complete && f->watch_from < 0 ? f : nullptr;
    return advance_after_ref(r, c, in_step);
}

void
Simulator::maybe_wake(Run &r, Client &c, Tick at)
{
    if (c.cont != Cont::NetPageFault &&
        c.cont != Cont::NetSubpageFault &&
        c.cont != Cont::PageWaitInflight)
        return;
    PageTable::Frame *f = c.pt.find(c.wait_page);
    if (!f || !f->valid.test(c.wait_sp))
        return;
    wake_from_fetch(r, c, at);
}

/**
 * The subpage the client blocks on just landed (we are inside the
 * delivering event, at its timestamp @p at). Run the whole wake
 * continuation inline — pure bookkeeping, no sends — then park the
 * client runnable at its new now; remaining events due at that time
 * still run before it steps, giving the order
 * [waking event][epilogue][other due events][next ref].
 */
void
Simulator::wake_from_fetch(Run &r, Client &c, Tick at)
{
    if (at > c.now)
        c.now = at;
    c.blocked = false;
    Tick waited = c.now - c.wait_start;
    // Anything that arrived while blocked cannot also steal CPU.
    c.pending_steal = 0;
    if (waited > 0) {
        SGMS_TRACE_SPAN(r.tracer, Block, c.id, "blocked", "program",
                        c.wait_start, c.now, c.wait_seq++,
                        static_cast<int64_t>(c.ref_index), 0);
    }
    PageId page = c.wait_page;
    PageTable::Frame *f = c.pt.find(page);
    SGMS_ASSERT(f);
    switch (c.cont) {
    case Cont::NetPageFault:
        c.sp_latency += waited;
        if (cfg_.record_faults)
            r.res.faults[c.wait_fault_id].sp_wait = waited;
        r.d_fault_wait->add(ticks::to_ns(waited));
        SGMS_TRACE_SPAN(r.tracer, Fault, c.id, "demand", "fault",
                        c.now - waited, c.now,
                        static_cast<int64_t>(c.wait_fault_id),
                        static_cast<int64_t>(page),
                        c.wait_plan_bytes);
        post_fault_epilogue(r, c, *f);
        break;
    case Cont::NetSubpageFault:
        c.sp_latency += waited;
        r.d_fault_wait->add(ticks::to_ns(waited));
        SGMS_TRACE_SPAN(r.tracer, Fault, c.id, "demand", "fault",
                        c.now - waited, c.now,
                        static_cast<int64_t>(c.wait_fault_id),
                        static_cast<int64_t>(page),
                        c.wait_plan_bytes);
        if (c.wait_fault_id < r.res.faults.size())
            r.res.faults[c.wait_fault_id].page_wait += waited;
        resolve_epilogue(r, c, *f);
        break;
    case Cont::PageWaitInflight:
        c.page_wait += waited;
        SGMS_TRACE_SPAN(r.tracer, PageWait, c.id, "page_wait", "fault",
                        c.now - waited, c.now,
                        static_cast<int64_t>(c.wait_fault_id),
                        static_cast<int64_t>(page),
                        static_cast<int64_t>(c.wait_sp));
        if (c.wait_fault_id < r.res.faults.size())
            r.res.faults[c.wait_fault_id].page_wait += waited;
        resolve_epilogue(r, c, *f);
        break;
    default:
        SGMS_ASSERT(false);
    }
    c.cont = Cont::None;
    complete_ref_after_slow(r, c, /*in_step=*/false);
}

/** A disk sleep reached its target time (scheduler popped us). */
void
Simulator::finish_disk_wake(Run &r, Client &c)
{
    Tick lat = c.sleep_lat;
    c.now = c.wait_start + lat;
    c.blocked = false;
    c.pending_steal = 0;
    if (lat > 0) {
        SGMS_TRACE_SPAN(r.tracer, Block, c.id, "disk", "program",
                        c.now - lat, c.now, c.wait_seq++,
                        static_cast<int64_t>(c.ref_index), 0);
    }
    PageId page = c.wait_page;
    if (c.cont == Cont::DiskPageFault) {
        c.sp_latency += lat;
        if (cfg_.record_faults) {
            FaultRecord &rec = r.res.faults[c.wait_fault_id];
            rec.sp_wait = lat;
            rec.from_disk = true;
        }
        c.pt.mark_all_valid(page);
        r.d_fault_wait->add(ticks::to_ns(lat));
        SGMS_TRACE_SPAN(r.tracer, Fault, c.id, "demand", "fault",
                        c.now - lat, c.now,
                        static_cast<int64_t>(c.wait_fault_id),
                        static_cast<int64_t>(page),
                        static_cast<int64_t>(cfg_.page_size));
        PageTable::Frame *f = c.pt.find(page);
        SGMS_ASSERT(f);
        post_fault_epilogue(r, c, *f);
    } else {
        SGMS_ASSERT(c.cont == Cont::DiskSubpageDegraded);
        c.sp_latency += lat;
        c.pt.mark_all_valid(page);
        r.d_fault_wait->add(ticks::to_ns(lat));
        SGMS_TRACE_SPAN(r.tracer, Gms, c.id, "degraded_disk",
                        "reliability", c.now - lat, c.now,
                        static_cast<int64_t>(c.wait_fault_id),
                        static_cast<int64_t>(page),
                        static_cast<int64_t>(cfg_.page_size));
        if (c.wait_fault_id < r.res.faults.size())
            r.res.faults[c.wait_fault_id].page_wait += lat;
        PageTable::Frame *f = c.pt.find(page);
        SGMS_ASSERT(f);
        resolve_epilogue(r, c, *f);
    }
    c.cont = Cont::None;
}

void
Simulator::deliver(Run &r, Client &c, PageId page,
                   uint64_t fault_id, uint64_t mask,
                   bool demand, Tick issued,
                   Tick blocked_at_issue, Tick delivered,
                   Tick recv_cpu)
{
    PageTable::Frame *frame = c.pt.find(page);
    // Drop late arrivals for pages that were evicted (and possibly
    // refaulted, which changes the fault id) while in flight.
    if (!frame || frame->fault_id != fault_id)
        return;

    // Duplicate-delivery suppression: with retries and injected
    // duplicates the same subpage can arrive more than once; bits
    // that are already valid are counted and otherwise ignored.
    if (r.finj) {
        r.res.duplicate_deliveries +=
            __builtin_popcountll(mask & frame->valid.raw());
    }

    land_subpages(c.pt, c.pal, page, *frame, mask);

    if (recv_cpu && !c.blocked)
        c.pending_steal += recv_cpu;

    if (!demand) {
        // Attribute this background transfer's duration to I/O vs
        // computational overlap (section 4.2).
        Tick dur = delivered - issued;
        Tick blocked_during =
            c.blocked_at(delivered) - blocked_at_issue;
        blocked_during = std::clamp<Tick>(blocked_during, 0, dur);
        r.res.io_overlap += blocked_during;
        r.res.comp_overlap += dur - blocked_during;
    }

    maybe_wake(r, c, delivered);
}

/**
 * Store a fault's fetch in a plan slot with @p plan as its first
 * attempt, and schedule the attempt: the fault-handling fixed cost
 * elapses on the (blocked) faulting CPU before the request message
 * is injected.
 */
void
Simulator::issue_transfers(Run &r, Client &c, PageId page,
                           uint64_t fault_id,
                           const FetchPlan &plan,
                           SubpageIndex faulted,
                           uint32_t byte_in_sub)
{
    uint32_t slot = r.alloc_plan();
    Run::PlannedFetch &f = r.plans[slot];
    f.attempts = 0;
    f.fetch = r.fetches++;
    f.page = page;
    f.fault_id = fault_id;
    f.client = c.id;
    f.srv = r.gms.server_of(r.gpage(page, c.id));
    f.expected = 0;
    f.demand_sp = faulted;
    f.byte_in_sub = byte_in_sub;
    f.done = false;
    PageTable::Frame *frame = c.pt.find(page);
    SGMS_ASSERT(frame);
    f.add_attempt(plan, *frame);
    r.schedule(c.now + cfg_.net.fault_handle, Run::FetchEvent::Attempt,
               slot);
}

/**
 * The latest attempt of the fetch in @p slot is due at @p at: inject
 * its request and, under fault injection, arm its timeout. A fetch
 * that finished while its retry waited sends nothing and frees its
 * slot.
 */
void
Simulator::start_attempt(Run &r, uint32_t slot, Tick at)
{
    const Run::PlannedFetch &f = r.plans[slot];
    if (f.done) {
        r.free_plans.push_back(slot);
        return;
    }
    const uint32_t attempt = f.attempts - 1;
    r.net.send(at, {f.client, f.srv, cfg_.net.request_bytes,
                    MsgKind::Request, false,
                    [&r, slot, fetch = f.fetch, attempt](Tick when, Tick) {
                        r.sim.serve_plan(r, slot, fetch, attempt, when);
                    }});
    if (r.finj) {
        Tick timeout = cfg_.retry.timeout_for(
            cfg_.net, f.plans[attempt].total_bytes());
        r.schedule(timer_at(at, timeout), Run::FetchEvent::Timeout, slot);
    }
}

/**
 * The server received the request of attempt @p attempt of fetch
 * @p fetch (in plan slot @p slot) at @p at: send every segment of
 * that attempt's plan back-to-back. A request that outlived its
 * fetch is dropped. Without fault injection a served fetch is over,
 * so its slot is freed here.
 */
void
Simulator::serve_plan(Run &r, uint32_t slot, uint64_t fetch,
                      uint32_t attempt, Tick at)
{
    const Run::PlannedFetch &f = r.plans[slot];
    if (f.fetch != fetch || f.done)
        return;
    Tick blocked_at_issue = r.clients[f.client].blocked_at(at);
    for (const TransferSegment &seg : f.plans[attempt].segments) {
        r.net.send(
            at,
            {f.srv, f.client, seg.bytes,
             seg.demand ? MsgKind::DemandData : MsgKind::BackgroundData,
             seg.pipelined_recv,
             [&r, cid = f.client, slot, page = f.page,
              fault_id = f.fault_id, fetch, mask = seg.subpage_mask,
              issued = at, blocked_at_issue,
              demand = seg.demand](Tick d, Tick rc) {
                 r.sim.deliver(r, r.clients[cid], page, fault_id, mask,
                               demand, issued, blocked_at_issue, d, rc);
                 if (r.finj && r.plans[slot].fetch == fetch)
                     r.fetch_done(r.plans[slot]);
             }});
    }
    if (!r.finj)
        r.free_plans.push_back(slot);
}

bool
Simulator::server_unavailable(Run &r, const Client &c,
                              NodeId srv) const
{
    return r.finj && (r.finj->server_down(srv, c.now) ||
                      r.gms.server_failed(srv, c.now));
}

void
Simulator::note_server_down(Run &r, Client &c, NodeId srv)
{
    if (r.finj->server_down(srv, c.now)) {
        r.gms.mark_server_failed(c.now, srv,
                                 r.finj->recovery_time(srv, c.now));
    }
}

/**
 * The latest attempt's timer fired at @p when. A finished fetch frees
 * its slot. One that still owes data either retries with exponential
 * backoff + seeded jitter or, when attempts are exhausted or the
 * server is down, degrades to disk.
 */
void
Simulator::on_fetch_timeout(Run &r, uint32_t slot, Tick when)
{
    Run::PlannedFetch &f = r.plans[slot];
    if (r.fetch_done(f)) {
        r.free_plans.push_back(slot);
        return;
    }
    Client &c = r.clients[f.client];
    PageTable::Frame *frame = c.pt.find(f.page);
    SGMS_ASSERT(frame); // fetch_done() holds otherwise
    uint64_t missing = f.expected & ~frame->valid.raw();

    ++r.res.timeouts;
    SGMS_TRACE_INSTANT(r.tracer, Gms, c.id, "timeout", "reliability",
                       when, f.fault_id, static_cast<int64_t>(f.page),
                       static_cast<int64_t>(f.attempts));

    if (f.attempts >= cfg_.retry.max_attempts ||
        r.finj->server_down(f.srv, when)) {
        degrade_to_disk(r, slot, missing, when);
        return;
    }

    ++r.res.retries;

    SubpageIndex anchor =
        (missing >> f.demand_sp) & 1
            ? f.demand_sp
            : static_cast<SubpageIndex>(__builtin_ctzll(missing));
    uint32_t byte = anchor == f.demand_sp ? f.byte_in_sub : 0;
    FetchPlan plan = c.policy->plan(r.geo, anchor, byte, missing);
    SGMS_ASSERT(!plan.from_disk);
    f.add_attempt(plan, *frame);

    Tick base_timeout =
        cfg_.retry.timeout_for(cfg_.net, plan.total_bytes());
    Tick delay = cfg_.retry.backoff_delay(f.attempts, base_timeout,
                                          r.finj->jitter_draw());
    Tick retry_at = timer_at(when, delay);
    r.d_retry_delay->add(ticks::to_ns(delay));
    SGMS_TRACE_SPAN(r.tracer, Gms, c.id, "retry_backoff", "reliability",
                    when, retry_at, f.fault_id,
                    static_cast<int64_t>(f.page),
                    static_cast<int64_t>(f.attempts));
    r.schedule(retry_at, Run::FetchEvent::Attempt, slot);
}

/**
 * Retries exhausted (or the server died): mark the server failed in
 * the directory and read the @p missing subpages from the local
 * disk — remote memory is only a cache whose loss degrades to disk.
 */
void
Simulator::degrade_to_disk(Run &r, uint32_t slot, uint64_t missing,
                           Tick when)
{
    Run::PlannedFetch &f = r.plans[slot];
    f.done = true;
    f.expected = missing;
    ++r.res.degraded_fetches;

    Tick failed_until = r.finj->server_down(f.srv, when)
                            ? r.finj->recovery_time(f.srv, when)
                            : when + cfg_.retry.quarantine;
    r.gms.mark_server_failed(when, f.srv, failed_until);

    uint32_t bytes = static_cast<uint32_t>(
        __builtin_popcountll(missing) * cfg_.subpage_size);
    Tick latency = cfg_.disk.access_latency(bytes);
    SGMS_TRACE_SPAN(r.tracer, Gms, f.client, "degraded_disk",
                    "reliability", when, when + latency, f.fault_id,
                    static_cast<int64_t>(f.page),
                    static_cast<int64_t>(bytes));
    r.schedule(when + latency, Run::FetchEvent::DiskRead, slot);
}

/**
 * A degraded fetch's disk read completed at @p at: its subpages land
 * unless the page was evicted meanwhile, and the fetch's slot is
 * freed.
 */
void
Simulator::finish_disk_read(Run &r, uint32_t slot, Tick at)
{
    // Freeing the slot leaves it readable: nothing below issues a
    // fetch.
    r.free_plans.push_back(slot);
    const Run::PlannedFetch &f = r.plans[slot];
    Client &c = r.clients[f.client];
    PageTable::Frame *frame = c.pt.find(f.page);
    if (!frame || frame->fault_id != f.fault_id)
        return;
    land_subpages(c.pt, c.pal, f.page, *frame, f.expected);
    maybe_wake(r, c, at);
}

void
Simulator::page_fault(Run &r, Client &c, PageId page)
{
    const TraceEvent ev = c.cur_ev;
    ++r.res.page_faults;
    ++c.page_faults;

    if (c.pt.full()) {
        PageTable::Frame victim_state;
        PageId victim = c.pt.evict(&victim_state);
        PageId gv = r.gpage(victim, c.id);
        SGMS_TRACE_INSTANT(r.tracer, Gms, c.id, "evict", "gms", c.now,
                           static_cast<int64_t>(gv),
                           static_cast<int64_t>(cfg_.page_size),
                           static_cast<int64_t>(r.gms.server_of(gv)));
        r.gms.put_page(c.now, gv, cfg_.page_size, victim_state.dirty,
                       c.id);
    }

    PageTable::Frame &frame = c.pt.install(page, c.ref_index);
    // Run-wide fault ordinal: it tells a refaulted frame apart from
    // its evicted predecessor, so late arrivals for the old copy are
    // dropped. It equals the index of the fault's record whenever
    // records are kept, and stays unique when they are not.
    uint64_t fault_id = r.res.page_faults - 1;
    frame.fault_id = fault_id;

    SubpageIndex sp = r.geo.subpage_of(ev.addr);
    uint32_t byte_in_sub = ev.addr & (cfg_.subpage_size - 1);
    uint64_t missing = ~0ULL;
    if (r.geo.subpages_per_page() < 64)
        missing = (1ULL << r.geo.subpages_per_page()) - 1;

    // Pushed at fault start, so the record's index is fault_id;
    // sp_wait / from_disk are filled in by the wake continuation.
    if (cfg_.record_faults) {
        r.res.faults.push_back(
            FaultRecord{page, c.ref_index, c.now, 0, 0, false});
    }

    FetchPlan plan = c.policy->plan(r.geo, sp, byte_in_sub, missing);
    SGMS_TRACE_INSTANT(r.tracer, Policy, c.id, "plan", "policy", c.now,
                       static_cast<int64_t>(fault_id),
                       static_cast<int64_t>(plan.segments.size()),
                       static_cast<int64_t>(plan.total_bytes()));
    PageId gp = r.gpage(page, c.id);
    NodeId srv = r.gms.server_of(gp);
    bool degraded = false;
    if (!plan.from_disk && server_unavailable(r, c, srv)) {
        note_server_down(r, c, srv);
        degraded = true;
        ++r.res.degraded_fetches;
        SGMS_TRACE_INSTANT(r.tracer, Gms, c.id, "degraded_lookup",
                           "reliability", c.now,
                           static_cast<int64_t>(fault_id),
                           static_cast<int64_t>(gp),
                           static_cast<int64_t>(srv));
    }
    if (plan.from_disk || degraded || !r.gms.in_global_memory(gp)) {
        Tick lat = cfg_.disk.access_latency(cfg_.page_size);
        r.c_disk_faults->inc();
        c.wait_page = page;
        c.wait_sp = sp;
        c.wait_fault_id = fault_id;
        begin_disk_sleep(r, c, lat, Cont::DiskPageFault);
        return;
    }
    issue_transfers(r, c, page, fault_id, plan, sp, byte_in_sub);
    park_fetch_wait(c, page, sp, fault_id, Cont::NetPageFault,
                    static_cast<int64_t>(plan.segments[0].bytes));
}

void
Simulator::subpage_fault(Run &r, Client &c,
                         PageTable::Frame &frame,
                         PageId page)
{
    const TraceEvent ev = c.cur_ev;
    ++r.res.lazy_subpage_faults;

    SubpageIndex sp = r.geo.subpage_of(ev.addr);
    uint32_t byte_in_sub = ev.addr & (cfg_.subpage_size - 1);
    uint64_t missing = ~frame.valid.raw();
    if (r.geo.subpages_per_page() < 64)
        missing &= (1ULL << r.geo.subpages_per_page()) - 1;

    FetchPlan plan = c.policy->plan(r.geo, sp, byte_in_sub, missing);
    SGMS_ASSERT(!plan.from_disk);
    SGMS_TRACE_INSTANT(r.tracer, Policy, c.id, "plan", "policy", c.now,
                       static_cast<int64_t>(frame.fault_id),
                       static_cast<int64_t>(plan.segments.size()),
                       static_cast<int64_t>(plan.total_bytes()));
    PageId gp = r.gpage(page, c.id);
    NodeId srv = r.gms.server_of(gp);
    if (server_unavailable(r, c, srv)) {
        note_server_down(r, c, srv);
        ++r.res.degraded_fetches;
        Tick lat = cfg_.disk.access_latency(cfg_.page_size);
        r.c_disk_faults->inc();
        c.wait_page = page;
        c.wait_sp = sp;
        c.wait_fault_id = frame.fault_id;
        begin_disk_sleep(r, c, lat, Cont::DiskSubpageDegraded);
        return;
    }
    issue_transfers(r, c, page, frame.fault_id, plan, sp, byte_in_sub);
    park_fetch_wait(c, page, sp, frame.fault_id,
                    Cont::NetSubpageFault,
                    static_cast<int64_t>(plan.segments[0].bytes));
}

SimResult
Simulator::finish()
{
    SGMS_ASSERT(run_);
    Run &r = *run_;
    SGMS_ASSERT(r.active == 0);
    SimResult &res = r.res;

    uint64_t refs = 0;
    Tick exec = 0, sp_lat = 0, pwait = 0, recv = 0, emu = 0;
    Tick tlb_ovh = 0, runtime = 0;
    uint64_t pal_fast = 0, pal_slow = 0;
    for (Client &c : r.clients) {
        // Each tick of a client's clock is charged to one account.
        SGMS_ASSERT(c.now == r.exec_time(c) + c.sp_latency +
                                 c.page_wait + c.recv_overhead +
                                 c.emulation_overhead + c.tlb_overhead);
        refs += c.ref_index;
        exec += r.exec_time(c);
        sp_lat += c.sp_latency;
        pwait += c.page_wait;
        recv += c.recv_overhead;
        emu += c.emulation_overhead;
        tlb_ovh += c.tlb_overhead;
        if (c.now > runtime)
            runtime = c.now;
        res.evictions += c.pt.evictions();
        res.emulated_accesses += c.pal.emulated();
        pal_fast += c.pal.fast();
        pal_slow += c.pal.slow();
        if (c.tlb) {
            TlbStats s = c.tlb->stats();
            res.tlb_stats.hits += s.hits;
            res.tlb_stats.misses += s.misses;
        }
    }
    res.refs = refs;
    res.runtime = runtime;
    res.exec_time = exec;
    res.sp_latency = sp_lat;
    res.page_wait = pwait;
    res.recv_overhead = recv;
    res.emulation_overhead = emu;
    res.tlb_overhead = tlb_ovh;
    res.putpages = r.gms.putpages();
    res.global_discards = r.gms.global_discards();
    res.net_stats = r.net.stats();
    // Message conservation, per kind: every message sent was
    // delivered, lost on the wire, discarded as corrupt, or is still
    // in flight because its client finished first.
    const MsgFates &fates = r.net.fates();
    for (size_t k = 0; k < kMsgKindCount; ++k) {
        SGMS_ASSERT(res.net_stats.messages_by_kind[k] ==
                    fates.delivered[k] + fates.dropped[k] +
                        fates.corrupted[k] +
                        r.net.in_flight(static_cast<MsgKind>(k)));
    }
    // "Requester" busy totals generalize to the sum over all client
    // nodes; at N=1 that is exactly node 0.
    Tick wire = 0, dma = 0, cpu = 0;
    for (uint32_t i = 0; i < r.n; ++i) {
        wire += r.net.wire_to(i).total_busy();
        dma += r.net.dma(i).total_busy();
        cpu += r.net.cpu(i).total_busy();
    }
    res.requester_wire_busy = wire;
    res.requester_dma_busy = dma;
    res.requester_cpu_busy = cpu;
    res.server_failures = r.gms.server_failures();

    // Every count a module keeps is published from its record, under
    // the conditions its counter was once registered in: the
    // reliability counts only under fault injection.
    auto count = [&r](const std::string &name, uint64_t n) {
        r.metrics.counter(name).inc(n);
    };
    count("sim.page_faults", res.page_faults);
    count("sim.lazy_subpage_faults", res.lazy_subpage_faults);
    count("gms.evictions", res.evictions);
    count("gms.putpages", res.putpages);
    count("gms.global_discards", res.global_discards);
    count("net.messages", res.net_stats.messages);
    count("net.bytes", res.net_stats.bytes);
    for (size_t k = 0; k < kMsgKindCount; ++k) {
        count(std::string("net.") + msg_kind_name(static_cast<MsgKind>(k)) +
                  "_messages",
              res.net_stats.messages_by_kind[k]);
    }
    count("tlb.emulation_hits", pal_fast);
    count("tlb.emulation_misses", pal_slow);
    if (cfg_.tlb_enabled) {
        count("tlb.hits", res.tlb_stats.hits);
        count("tlb.misses", res.tlb_stats.misses);
    }
    if (r.finj) {
        count("gms.retries", res.retries);
        count("gms.timeouts", res.timeouts);
        count("gms.degraded_fetches", res.degraded_fetches);
        count("gms.duplicate_deliveries", res.duplicate_deliveries);
        count("gms.server_failures", res.server_failures);
        count("fault.msgs_dropped", r.finj->dropped());
        count("fault.msgs_corrupted", r.finj->corrupted());
        count("fault.msgs_duplicated", r.finj->duplicated());
        count("fault.outage_drops", r.finj->outage_drops());
    }

    double runtime_ns = ticks::to_ns(runtime);
    r.metrics.gauge("sim.runtime_ns").set(runtime_ns);
    r.metrics.gauge("sim.exec_ns").set(ticks::to_ns(exec));
    r.metrics.gauge("sim.blocked_ns").set(ticks::to_ns(sp_lat + pwait));
    r.metrics.gauge("sim.sp_latency_ns").set(ticks::to_ns(sp_lat));
    if (runtime > 0) {
        r.metrics.gauge("net.wire_busy")
            .set(static_cast<double>(wire) /
                 static_cast<double>(runtime));
        r.metrics.gauge("net.req_dma_busy")
            .set(static_cast<double>(dma) /
                 static_cast<double>(runtime));
        r.metrics.gauge("net.req_cpu_busy")
            .set(static_cast<double>(cpu) /
                 static_cast<double>(runtime));
    }
    r.metrics.gauge("sim.clients").set(static_cast<double>(r.n));
    r.metrics.gauge("sim.kernel_events")
        .set(static_cast<double>(r.eq.executed()));
    double cpu_max = 0, dma_max = 0, wire_max = 0;
    if (runtime > 0) {
        for (uint32_t s = 0; s < cfg_.gms.servers; ++s) {
            NodeId node = r.n + s;
            double d = static_cast<double>(runtime);
            cpu_max = std::max(cpu_max, r.net.cpu(node).total_busy() / d);
            dma_max = std::max(dma_max, r.net.dma(node).total_busy() / d);
            wire_max =
                std::max(wire_max, r.net.wire_to(node).total_busy() / d);
        }
    }
    r.metrics.gauge("gms.server_cpu_util_max").set(cpu_max);
    r.metrics.gauge("gms.server_dma_util_max").set(dma_max);
    r.metrics.gauge("gms.server_wire_util_max").set(wire_max);
    // Per-client breakdowns only on request, and only at N>1, where
    // they differ from the aggregate.
    if (r.n > 1 && cfg_.metrics_per_client) {
        for (Client &c : r.clients) {
            std::string p = "client." + std::to_string(c.id) + ".";
            r.metrics.gauge(p + "runtime_ns").set(ticks::to_ns(c.now));
            r.metrics.gauge(p + "exec_ns")
                .set(ticks::to_ns(r.exec_time(c)));
            r.metrics.gauge(p + "blocked_ns")
                .set(ticks::to_ns(c.sp_latency + c.page_wait));
            r.metrics.gauge(p + "sp_latency_ns")
                .set(ticks::to_ns(c.sp_latency));
            r.metrics.gauge(p + "page_faults")
                .set(static_cast<double>(c.page_faults));
            r.metrics.gauge(p + "refs")
                .set(static_cast<double>(c.ref_index));
        }
    }
    res.metrics = r.metrics.snapshot();

    SimResult out = std::move(res);
    last_events_executed_ = r.eq.executed();
    run_.reset();
    return out;
}

} // namespace sgms
