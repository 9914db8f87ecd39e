/**
 * @file
 * Phase-structured synthetic trace generation.
 *
 * The paper's traces came from instrumenting real applications with
 * ATOM; we do not have those binaries or machines, so we generate
 * traces from workload models that reproduce the properties the paper
 * documents and that its conclusions rest on:
 *
 *  - footprint and fault counts per memory configuration (Section 4),
 *  - spatial locality within pages: the next subpage accessed after a
 *    fault is overwhelmingly the +1 neighbour (Figure 7),
 *  - temporal clustering of faults: bursts at phase changes for most
 *    programs, smooth accumulation for Atom (Figures 6 and 10).
 *
 * A workload is a list of phases; each phase interleaves accesses to
 * a "hot" region (stack / globals / code, always recently used) with
 * one of three patterns over a page region:
 *
 *  - DenseScan: sequential small-stride sweep that touches every
 *    word before leaving a page (drives rest-of-page blocking: the
 *    worst-case segment of the paper's Figure 5),
 *  - SweepScan: one touch per page per pass, the touch offset
 *    advancing by one subpage each pass (iterative processing; this
 *    produces fault bursts that overlap their transfers — best-case
 *    Figure 5 — while the *next* access to a faulted page still
 *    lands on the +1 neighbouring subpage, Figure 7),
 *  - SparseScan: a few random touches per page in page order,
 *  - Compute: Zipf-distributed references within a working set
 *    (drives execution time with few faults).
 */

#ifndef SGMS_TRACE_SYNTHETIC_H
#define SGMS_TRACE_SYNTHETIC_H

#include <string>
#include <vector>

#include "common/random.h"
#include "trace/trace.h"

namespace sgms
{

/** One phase of a synthetic workload. */
struct PhaseSpec
{
    enum class Kind
    {
        DenseScan,
        SweepScan,
        SparseScan,
        Compute,
    };

    Kind kind = Kind::Compute;

    /** Page region [page_lo, page_hi) the pattern covers. */
    uint64_t page_lo = 0;
    uint64_t page_hi = 0;

    /** Total references emitted (pattern + hot interleave). */
    uint64_t refs = 0;

    /** Fraction of references that go to the hot region instead. */
    double hot_frac = 0.5;

    /** Fraction of references that are writes. */
    double write_frac = 0.3;

    /** DenseScan: stride in bytes. */
    uint32_t stride = 8;

    /** SparseScan: touches emitted per visited page. */
    uint32_t touches_per_page = 3;

    /** Compute: Zipf skew over the region's pages. */
    double zipf_skew = 0.7;

    /**
     * SweepScan: which pass of the overall iteration this phase
     * represents; the per-page touch offset is
     * (sweep_pass * sweep_step) % page_size, plus jitter.
     */
    uint32_t sweep_pass = 0;

    /** SweepScan: offset advance per pass, in bytes. */
    uint32_t sweep_step = 1024;

    /** SweepScan: random jitter added to the touch offset. */
    uint32_t sweep_jitter = 64;

    /**
     * SweepScan: number of *consecutive* subpage-stride offsets
     * touched back-to-back per page visit. With 1 (default) a visit
     * touches a single subpage — a fault that overlaps its
     * rest-of-page transfer completely. With 2-3 the program blocks
     * on the +1 neighbour right after the fault: the class of fault
     * that eager fullpage fetch cannot help but subpage pipelining
     * can (the paper's Figure 8 page_wait reduction).
     */
    uint32_t sweep_touches = 1;

    /**
     * SweepScan: when nonzero, each visit ends with one extra
     * reference @p sweep_record_bytes past its last touch — reading
     * a small record. Whether that tail crosses into the next
     * subpage depends on where the jittered offset landed, so the
     * crossing probability grows as subpages shrink. This is the
     * *spatial* cost of small subpages (paper section 4.1: "smaller
     * subpages increase the probability of accessing another
     * subpage"), and it is what makes 256-byte subpages lose to 1-2K
     * ones.
     */
    uint32_t sweep_record_bytes = 0;
};

/** A complete synthetic workload description. */
struct WorkloadSpec
{
    std::string name;

    /** Page size the region layout assumes. */
    uint32_t page_size = 8192;

    /** Hot region is pages [0, hot_pages). */
    uint64_t hot_pages = 0;

    /**
     * Skew of the Zipf distribution over hot-region cache lines.
     * Real stack/global accesses are highly concentrated; this is
     * what makes the cache-simulator calibration land near the
     * paper's 12 ns per reference.
     */
    double hot_zipf_skew = 1.1;

    std::vector<PhaseSpec> phases;

    /** Sum of phase reference counts. */
    uint64_t total_refs() const;

    /** One past the highest page any phase (or the hot set) touches. */
    uint64_t page_span() const;
};

/** Deterministic trace generator executing a WorkloadSpec. */
class SyntheticTrace : public TraceSource
{
  public:
    SyntheticTrace(WorkloadSpec spec, uint64_t seed = 1);

    bool next(TraceEvent &ev) override;
    size_t next_batch(TraceEvent *out, size_t n) override;
    void reset() override;
    uint64_t size_hint() const override { return spec_.total_refs(); }

    const WorkloadSpec &spec() const { return spec_; }

  private:
    /** next() without the virtual dispatch, for next_batch's loop. */
    bool generate(TraceEvent &ev);
    /** Emit the next pattern (non-hot) address for the active phase. */
    Addr pattern_addr(const PhaseSpec &ph);
    /** A Zipf-over-lines address in the hot region. */
    Addr hot_addr();
    void enter_phase(size_t idx);

    WorkloadSpec spec_;
    uint64_t seed_;
    Rng rng_;

    // Precomputed Zipf samplers (pow() per draw is too slow for
    // hundred-million-reference traces) whose cells hold the ranks
    // already scattered over their region: hot lines, and each
    // Compute phase's pages relative to its page_lo.
    ZipfTable hot_table_;
    std::vector<ZipfTable> phase_tables_; // indexed by phase

    size_t phase_idx_ = 0;
    uint64_t phase_left_ = 0;   // refs remaining in active phase

    // DenseScan state.
    Addr scan_addr_ = 0;

    // SparseScan / SweepScan state.
    uint64_t sparse_page_ = 0;
    uint32_t sparse_touch_ = 0;
    uint64_t sweep_last_offset_ = 0;
};

} // namespace sgms

#endif // SGMS_TRACE_SYNTHETIC_H
