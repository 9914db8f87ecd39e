/**
 * @file
 * Results of one simulation run.
 *
 * The time components partition the runtime exactly:
 *   runtime = exec_time + sp_latency + page_wait
 *           + recv_overhead + emulation_overhead + tlb_overhead
 * matching the paper's Figure 4 decomposition (exec / sp_latency /
 * page_wait), plus the overhead buckets it folds into exec.
 */

#ifndef SGMS_CORE_SIM_RESULT_H
#define SGMS_CORE_SIM_RESULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/tlb.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace sgms
{

/** Per-page-fault record (Figure 5's unit of analysis). */
struct FaultRecord
{
    PageId page;
    uint64_t ref_index;  ///< trace position of the fault
    Tick at;             ///< simulated time of the fault
    Tick sp_wait;        ///< stall until the demand transfer arrived
    Tick page_wait;      ///< later stalls on this page's in-flight data
    bool from_disk;

    /** Total waiting attributable to this fault. */
    Tick total_wait() const { return sp_wait + page_wait; }
};

/** Everything a run produces. */
struct SimResult
{
    // Identification (filled by the runner for reports).
    std::string app;
    std::string policy;
    uint32_t page_size = 0;
    uint32_t subpage_size = 0;
    size_t mem_pages = 0;

    // Counters.
    uint64_t refs = 0;
    uint64_t page_faults = 0;
    uint64_t lazy_subpage_faults = 0;
    uint64_t evictions = 0;
    uint64_t putpages = 0;
    uint64_t emulated_accesses = 0;

    // Time decomposition (ticks).
    Tick runtime = 0;
    Tick exec_time = 0;
    Tick sp_latency = 0;
    Tick page_wait = 0;
    Tick recv_overhead = 0;
    Tick emulation_overhead = 0;
    Tick tlb_overhead = 0;

    // Overlap attribution for background transfers: how much of
    // their transfer time coincided with the program being blocked
    // on other faults (I/O overlap) vs executing (computational
    // overlap). Section 4.2's 53-83% measurement.
    Tick io_overlap = 0;
    Tick comp_overlap = 0;

    // Detailed records, kept when SimConfig::record_faults is set:
    // one per page fault, in fault order.
    std::vector<FaultRecord> faults;
    Histogram next_subpage_distance; ///< Figure 7

    // Substrate stats.
    NetStats net_stats;
    TlbStats tlb_stats;
    uint64_t global_discards = 0; ///< pages dropped from global memory

    // Reliability stats (all zero when fault injection is off).
    uint64_t retries = 0;           ///< fetch attempts beyond the first
    uint64_t timeouts = 0;          ///< attempts that timed out
    uint64_t degraded_fetches = 0;  ///< fetches that fell back to disk
    uint64_t duplicate_deliveries = 0; ///< suppressed duplicate data
    uint64_t server_failures = 0;   ///< directory invalidations

    /**
     * Uniform end-of-run snapshot of every metric the run's
     * components registered (obs/metrics.h), name-sorted. The named
     * fields above remain the stable accessors; this carries the
     * full "<module>.<name>" registry into reports and JSON.
     */
    std::vector<obs::MetricSample> metrics;

    // Resource occupancy (ticks busy over the run), for utilization
    // analysis: the requester's inbound link is the usual bottleneck.
    Tick requester_wire_busy = 0;
    Tick requester_dma_busy = 0;
    Tick requester_cpu_busy = 0;

    /** Utilization of the requester's inbound link. */
    double
    wire_utilization() const
    {
        return runtime ? static_cast<double>(requester_wire_busy) /
                             runtime
                       : 0.0;
    }

    /** base.runtime / runtime (>1 means this run is faster). */
    double
    speedup_vs(const SimResult &base) const
    {
        return runtime ? static_cast<double>(base.runtime) / runtime
                       : 0.0;
    }

    /** 1 - runtime/base.runtime: the paper's "% improvement". */
    double
    reduction_vs(const SimResult &base) const
    {
        return base.runtime
                   ? 1.0 - static_cast<double>(runtime) / base.runtime
                   : 0.0;
    }

    /**
     * Cumulative page faults against trace position (Figures 6 and
     * 10), read from the fault records: point k is (faults[k]'s
     * ref_index, k + 1).
     */
    Series fault_curve() const;

    /** Share of background-transfer overlap that was I/O overlap. */
    double
    io_overlap_share() const
    {
        Tick total = io_overlap + comp_overlap;
        return total ? static_cast<double>(io_overlap) / total : 0.0;
    }

    /**
     * Fraction of faults that saw (close to) the best case: their
     * total wait within @p slack of the minimum demand wait observed.
     */
    double best_case_fraction(double slack = 1.15) const;

    /**
     * Clustering metric: fraction of faults that land in windows of
     * @p window_refs references whose fault count is at least
     * @p rate_multiplier times the trace-wide average for a window
     * of that size (i.e. faults arriving in high-fault-rate periods,
     * the quantity Figures 6/10 visualize).
     */
    double burst_fault_fraction(uint64_t window_refs,
                                double rate_multiplier = 3.0) const;
};

} // namespace sgms

#endif // SGMS_CORE_SIM_RESULT_H
