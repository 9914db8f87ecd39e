/**
 * @file
 * The trace-driven global-memory simulator (the paper's section 3.2):
 * one event kernel for N faulting clients in one timeline.
 *
 * Each traced program is a client of the simulation: it consumes
 * references, advancing its clock by ns_per_ref each, and blocks when
 * it touches non-resident data. Page fetches run through the staged
 * network model as asynchronous events, so transfer pipelining,
 * congestion, receive-interrupt stealing, and the overlap of
 * transfers with execution and with each other all emerge from the
 * event interleaving rather than from closed-form approximations.
 *
 * Every client has its own trace cursor, page table, replacement
 * state, TLB, and PAL emulator, all faulting against *shared* network
 * stage resources and GMS servers — so with N > 1 cross-client
 * queueing, directory contention, and server CPU/DMA saturation are
 * emergent, the only model of a busy cluster. N = 1 is the paper's
 * single-client setup.
 *
 * Clients are plain state machines stored in one dense vector indexed
 * by client id; a small binary heap orders runnable clients by
 * (resume time, id) and the shared EventQueue interleaves with them,
 * events winning ties. A client executes references run-ahead style
 * until it crosses the next pending event time or needs the shared
 * cluster (a fault), at which point it yields or parks; fault
 * completions wake it from inside the delivering event (DESIGN.md
 * §15).
 *
 * Every remote fetch runs one path on a plan slot: issue_transfers()
 * stores the plan, start_attempt() injects the request, serve_plan()
 * sends the plan's segments and deliver() lands each one. Under fault
 * injection the same slot carries the reliability layer: each
 * attempt's timeout and a degraded fetch's disk read are typed events
 * like the attempt itself (DESIGN.md §10).
 *
 * Node layout: clients occupy nodes 0..N-1, GMS servers start at node
 * N. Page identity on the shared cluster is namespaced per client
 * (gpage = page * N + client), which reduces to the identity map at
 * N=1.
 */

#ifndef SGMS_SIM_KERNEL_H
#define SGMS_SIM_KERNEL_H

#include <memory>
#include <vector>

#include "core/sim_config.h"
#include "core/sim_result.h"
#include "mem/page_table.h"
#include "policy/fetch_policy.h"
#include "trace/trace.h"

namespace sgms
{

/** Runs N trace cursors against one shared simulated cluster. */
class Simulator
{
  public:
    explicit Simulator(SimConfig cfg);
    ~Simulator();

    /** Simulate one client replaying @p trace. */
    SimResult run(TraceSource &trace) { return run({&trace}); }

    /**
     * Simulate every trace to completion and aggregate the results;
     * traces[i] drives client i and must stay alive for the call.
     * Reusable (state is per-run).
     */
    SimResult run(const std::vector<TraceSource *> &traces);

    // Staged form of run() for benchmarks and allocation probes:
    // begin() builds the run state and primes every client, drive()
    // executes up to `rounds` scheduler dispatches (one event or one
    // client step each) and returns false once all clients finished,
    // finish() aggregates and tears down.
    void begin(const std::vector<TraceSource *> &traces);
    bool drive(uint64_t rounds);
    SimResult finish();

    /** Events executed so far (sticky across finish()). */
    uint64_t events_executed() const;
    /** Events currently pending in the shared queue (0 after finish). */
    uint64_t events_pending() const;
    /** References executed so far across all clients. */
    uint64_t refs_executed() const;

    const SimConfig &config() const { return cfg_; }

  private:
    struct Run;
    struct Client;
    enum class Phase : uint8_t;
    enum class Cont : uint8_t;

    void prime_client(Run &r, Client &c);
    void step(Run &r, Client &c);
    bool refill_batch(Run &r, Client &c);
    bool advance_after_ref(Run &r, Client &c, bool in_step);
    bool complete_ref_after_slow(Run &r, Client &c, bool in_step);
    bool yield_for_slow_path(Run &r, Client &c);
    void park_fetch_wait(Client &c, PageId page, SubpageIndex sp,
                         uint64_t fault_id, Cont cont,
                         int64_t demand_bytes);
    void begin_disk_sleep(Run &r, Client &c, Tick lat, Cont cont);
    void finish_client(Run &r, Client &c);

    void page_fault(Run &r, Client &c, PageId page);
    void subpage_fault(Run &r, Client &c, PageTable::Frame &frame,
                       PageId page);
    void issue_transfers(Run &r, Client &c, PageId page,
                         uint64_t fault_id, const FetchPlan &plan,
                         SubpageIndex faulted, uint32_t byte_in_sub);
    void start_attempt(Run &r, uint32_t slot, Tick at);
    void serve_plan(Run &r, uint32_t slot, uint64_t fetch,
                    uint32_t attempt, Tick at);
    void deliver(Run &r, Client &c, PageId page, uint64_t fault_id,
                 uint64_t mask, bool demand, Tick issued,
                 Tick blocked_at_issue, Tick delivered, Tick recv_cpu);
    void resolve_watch(Run &r, Client &c, PageTable::Frame &frame,
                       SubpageIndex touched);
    void maybe_wake(Run &r, Client &c, Tick at);
    void wake_from_fetch(Run &r, Client &c, Tick at);
    void finish_disk_wake(Run &r, Client &c);
    void post_fault_epilogue(Run &r, Client &c, PageTable::Frame &f);
    void resolve_epilogue(Run &r, Client &c, PageTable::Frame &f);

    // Reliability layer (active only when cfg_.faults is enabled).
    bool server_unavailable(Run &r, const Client &c, NodeId srv) const;
    void note_server_down(Run &r, Client &c, NodeId srv);
    void on_fetch_timeout(Run &r, uint32_t slot, Tick when);
    void degrade_to_disk(Run &r, uint32_t slot, uint64_t missing,
                         Tick when);
    void finish_disk_read(Run &r, uint32_t slot, Tick at);

    SimConfig cfg_;
    std::unique_ptr<Run> run_;
    uint64_t last_events_executed_ = 0;
};

} // namespace sgms

#endif // SGMS_SIM_KERNEL_H
