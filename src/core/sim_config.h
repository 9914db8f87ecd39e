/**
 * @file
 * Configuration of one simulation run.
 */

#ifndef SGMS_CORE_SIM_CONFIG_H
#define SGMS_CORE_SIM_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "fault/fault_plan.h"
#include "gms/gms.h"
#include "net/params.h"
#include "proto/palcode.h"

namespace sgms
{

namespace obs
{
class Tracer;
} // namespace obs

/** Everything that parameterizes a Simulator run. */
struct SimConfig
{
    /** Full page size (bytes, power of two). */
    uint32_t page_size = 8192;

    /** Subpage size (bytes, power of two, <= page_size). */
    uint32_t subpage_size = 8192;

    /**
     * Local memory capacity in pages; 0 means unlimited (the paper's
     * "full-mem" configuration, where all faults are initial faults).
     */
    size_t mem_pages = 0;

    /** Replacement policy: "lru" (default), "fifo", "clock". */
    std::string replacement = "lru";

    /**
     * Fetch policy: "fullpage", "eager", "pipelining",
     * "pipelining-all", "pipelining-doubled", "pipelining-initial2x",
     * "lazy", "disk".
     */
    std::string policy = "fullpage";

    /**
     * Simulation clock: CPU time per trace event. The paper
     * calibrated ~12 ns/event with a cache simulator (section 3.2);
     * DESIGN.md §6 keeps the derivation and what an Alpha 250 cache
     * model gives on the synthetic traces.
     */
    Tick ns_per_ref = ticks::from_ns(12);

    /** Network latency parameters (default: calibrated AN2). */
    NetParams net = NetParams::an2();

    /** Disk model for disk-policy runs and cold-cache misses. */
    DiskParams disk = DiskParams::default_local();

    /** Global memory cluster configuration. */
    GmsConfig gms;

    /** Subpage protection: hardware TLB bits or PALcode emulation. */
    ProtectionMode protection = ProtectionMode::HardwareTlb;

    /** Emulation costs when protection == SoftwarePal. */
    PalCosts pal;

    /**
     * Fault-injection schedule (fault/fault_plan.h). Disabled by
     * default; with the default plan the simulator takes exactly the
     * fault-free code paths and results are byte-identical to a
     * build without the reliability layer.
     */
    fault::FaultPlan faults;

    /**
     * Timeout/retry/degradation policy of the reliable fetch
     * protocol; consulted only when `faults` is enabled.
     */
    fault::RetryPolicy retry;

    /** Model a TLB (needed for the small-pages comparison). */
    bool tlb_enabled = false;
    uint32_t tlb_entries = 32;
    uint32_t tlb_assoc = 32; ///< fully associative by default
    Tick tlb_miss_cost = ticks::from_ns(200);

    /** Keep per-fault records (Figure 5) and distance stats (Fig 7). */
    bool record_faults = true;

    /**
     * Number of concurrent faulting client nodes sharing the cluster
     * when an Experiment runs; 1 (the default) is the paper's setup.
     * The simulator (sim/kernel.h) interleaves one trace cursor per
     * client in a single simulated timeline, faulting against shared
     * network stage resources and GMS servers so contention is
     * emergent; this is the only model of busy servers. Clients
     * occupy nodes 0..clients-1 and servers start at node clients.
     */
    uint32_t clients = 1;

    /**
     * With clients > 1, additionally publish per-client gauge
     * breakdowns (`client.<id>.*`) next to the aggregated metrics.
     * Off by default so a 10k-client run does not explode the
     * registry or the JSON report.
     */
    bool metrics_per_client = false;

    /**
     * Expected trace footprint in pages; 0 = unknown. Purely a
     * pre-sizing hint for the page table and replacement policy —
     * never affects results, and excluded from the result-cache
     * fingerprint.
     */
    size_t footprint_pages_hint = 0;

    /**
     * Optional span tracer (obs/tracer.h): records fault, network-
     * stage, GMS, and block spans in simulated time for Chrome-trace
     * export. Null disables tracing (the default; instrumentation
     * then costs one pointer test per site).
     */
    obs::Tracer *tracer = nullptr;
};

} // namespace sgms

#endif // SGMS_CORE_SIM_CONFIG_H
