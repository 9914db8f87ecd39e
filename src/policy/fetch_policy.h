/**
 * @file
 * Fetch policies: what to transfer when a program faults.
 *
 * The paper's section 2.1 defines the design space:
 *  - full-page fetch (baseline GMS),
 *  - lazy subpage fetch (only the faulted subpage; neighbours fetched
 *    on their own later faults),
 *  - eager fullpage fetch (faulted subpage + rest of page as one
 *    large follow-on transfer),
 *  - subpage pipelining (faulted subpage + sequenced follow-on
 *    subpage messages), with the sequencing variants of section 4.3.
 *
 * A policy answers a fault with a FetchPlan: an ordered list of
 * transfer segments, the first of which is the demand segment the
 * program blocks on.
 */

#ifndef SGMS_POLICY_FETCH_POLICY_H
#define SGMS_POLICY_FETCH_POLICY_H

#include <cstdint>
#include <memory>
#include <string>

#include "mem/page.h"
#include "obs/metrics.h"

namespace sgms
{

/** One transfer segment of a fetch plan. */
struct TransferSegment
{
    /** Subpages this segment carries (bitmask); marked on arrival. */
    uint64_t subpage_mask = 0;

    /** Bytes on the wire (popcount(subpage_mask) * subpage size). */
    uint32_t bytes = 0;

    /** The program blocks on this segment (must be the first). */
    bool demand = false;

    /**
     * Follow-on subpage handled by the intelligent controller
     * (no receive-CPU cost in the paper's simulation model).
     */
    bool pipelined_recv = false;
};

/**
 * A plan's segments in send order. The first kInline live in place:
 * every policy the paper evaluates sends at most four (demand, two
 * pipelined neighbours, rest of page), so planning one of its faults
 * allocates nothing. Longer plans (pipelining-all,
 * pipelining-adaptive) move to the heap.
 */
class SegmentList
{
  public:
    static constexpr uint32_t kInline = 4;

    SegmentList() = default;
    SegmentList(const SegmentList &other) { append(other); }
    SegmentList(SegmentList &&other) noexcept { take(other); }
    ~SegmentList() { delete[] heap_; }

    SegmentList &
    operator=(const SegmentList &other)
    {
        if (this != &other) {
            size_ = 0;
            append(other);
        }
        return *this;
    }

    SegmentList &
    operator=(SegmentList &&other) noexcept
    {
        if (this != &other) {
            delete[] heap_;
            take(other);
        }
        return *this;
    }

    void
    push_back(const TransferSegment &seg)
    {
        if (size_ == cap_)
            grow();
        data()[size_++] = seg;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const TransferSegment &operator[](size_t i) const { return data()[i]; }
    const TransferSegment *begin() const { return data(); }
    const TransferSegment *end() const { return data() + size_; }

  private:
    TransferSegment *data() { return heap_ ? heap_ : inline_; }
    const TransferSegment *data() const { return heap_ ? heap_ : inline_; }

    /** Move to a heap buffer of twice the capacity (at least 16). */
    void grow();
    void append(const SegmentList &other);
    /** Take @p other's segments, leaving it empty and inline. */
    void take(SegmentList &other) noexcept;

    TransferSegment inline_[kInline];
    TransferSegment *heap_ = nullptr;
    uint32_t size_ = 0;
    uint32_t cap_ = kInline;
};

/** What to transfer for one fault. */
struct FetchPlan
{
    /** Service from local disk instead of network memory. */
    bool from_disk = false;

    /** Segments in send order; segments[0] is the demand segment. */
    SegmentList segments;

    /** Total bytes across all segments. */
    uint32_t total_bytes() const;
};

/** Strategy for ordering pipelined follow-on subpages. */
enum class PipelineStrategy
{
    /**
     * The paper's Figure 8 scheme: pipeline the +1 and -1 neighbour
     * subpages individually, then the remainder of the page as one
     * message.
     */
    NeighborsThenRest,

    /** Pipeline every remaining subpage, ordered by +-distance. */
    AllSubpages,

    /**
     * Section 4.3 variant: follow the faulted subpage with a single
     * pipelined transfer of twice the subpage size (the next 2
     * subpages), then the remainder.
     */
    DoubledFollowOn,

    /**
     * Section 4.3 variant: the *initial* demand transfer is twice
     * the subpage size, taking the preceding or following subpage
     * "along for the ride" depending on where in the subpage the
     * faulted word lies; the remainder follows as one message.
     */
    InitialDouble,
};

const char *pipeline_strategy_name(PipelineStrategy s);

/** Interface: map a fault to a transfer plan. */
class FetchPolicy
{
  public:
    virtual ~FetchPolicy() = default;

    /**
     * Build the plan for a fault (template method: dispatches to the
     * policy's build_plan, then records policy.* metrics and debug
     * output uniformly).
     *
     * @param geo          page geometry
     * @param faulted      subpage containing the faulted address
     * @param byte_in_sub  offset of the faulted byte inside that
     *                     subpage (used by InitialDouble)
     * @param missing_mask subpages not already valid in the frame
     *                     (all subpages for a fresh page fault)
     */
    FetchPlan plan(const PageGeometry &geo, SubpageIndex faulted,
                   uint32_t byte_in_sub, uint64_t missing_mask) const;

    /**
     * Register this policy's counters (policy.plans,
     * policy.eager_followons, policy.pipelined_followons, ...) with
     * @p m; until called, plan() skips metric accounting.
     */
    void bind_metrics(obs::MetricsRegistry &m);

    /**
     * Feedback hook: after a fault on subpage i, the first access to
     * a different subpage of the same page was at i + @p distance.
     * Stateless policies ignore this; AdaptivePipeliningPolicy uses
     * it to learn the follow-on order (the paper's section 4.3
     * "information about the likelihood of accessing particular
     * subpages").
     */
    virtual void observe_distance(int /* distance */) {}

    virtual const char *name() const = 0;

  protected:
    /** Policy-specific plan construction; see plan() for params. */
    virtual FetchPlan build_plan(const PageGeometry &geo,
                                 SubpageIndex faulted,
                                 uint32_t byte_in_sub,
                                 uint64_t missing_mask) const = 0;

  private:
    // Bound metrics (null until bind_metrics; mutated through the
    // pointers, so plan() stays const).
    obs::Counter *c_plans_ = nullptr;
    obs::Counter *c_disk_plans_ = nullptr;
    obs::Counter *c_demand_bytes_ = nullptr;
    obs::Counter *c_eager_followons_ = nullptr;
    obs::Counter *c_pipelined_followons_ = nullptr;
    obs::Counter *c_followon_bytes_ = nullptr;
};

/** Service every fault from the local disk (no network memory). */
class DiskPolicy : public FetchPolicy
{
  public:
    FetchPlan build_plan(const PageGeometry &geo, SubpageIndex faulted,
                         uint32_t byte_in_sub,
                         uint64_t missing_mask) const override;
    const char *name() const override { return "disk"; }
};

/** Baseline GMS: fetch the whole page as one demand transfer. */
class FullPagePolicy : public FetchPolicy
{
  public:
    FetchPlan build_plan(const PageGeometry &geo, SubpageIndex faulted,
                         uint32_t byte_in_sub,
                         uint64_t missing_mask) const override;
    const char *name() const override { return "fullpage"; }
};

/** Lazy subpage fetch: only the faulted subpage, nothing else. */
class LazySubpagePolicy : public FetchPolicy
{
  public:
    FetchPlan build_plan(const PageGeometry &geo, SubpageIndex faulted,
                         uint32_t byte_in_sub,
                         uint64_t missing_mask) const override;
    const char *name() const override { return "lazy"; }
};

/** Eager fullpage fetch: demand subpage + rest as one transfer. */
class EagerFullpagePolicy : public FetchPolicy
{
  public:
    FetchPlan build_plan(const PageGeometry &geo, SubpageIndex faulted,
                         uint32_t byte_in_sub,
                         uint64_t missing_mask) const override;
    const char *name() const override { return "eager"; }
};

/** Subpage pipelining with a configurable sequencing strategy. */
class PipeliningPolicy : public FetchPolicy
{
  public:
    explicit PipeliningPolicy(
        PipelineStrategy strategy = PipelineStrategy::NeighborsThenRest)
        : strategy_(strategy)
    {}

    FetchPlan build_plan(const PageGeometry &geo, SubpageIndex faulted,
                         uint32_t byte_in_sub,
                         uint64_t missing_mask) const override;
    const char *name() const override { return "pipelining"; }

    PipelineStrategy strategy() const { return strategy_; }

  private:
    PipelineStrategy strategy_;
};

/**
 * Adaptive subpage pipelining — the paper's future-work idea of
 * sequencing follow-on subpages by the observed likelihood of being
 * the next one accessed. It maintains an online histogram of
 * next-subpage distances (fed by observe_distance) and pipelines
 * every remaining subpage individually, most-likely distance first.
 * Until enough samples arrive it behaves like AllSubpages (+-
 * distance order).
 */
class AdaptivePipeliningPolicy : public FetchPolicy
{
  public:
    /** @param warmup samples required before the learned order kicks in */
    explicit AdaptivePipeliningPolicy(uint32_t warmup = 32)
        : warmup_(warmup)
    {}

    FetchPlan build_plan(const PageGeometry &geo, SubpageIndex faulted,
                         uint32_t byte_in_sub,
                         uint64_t missing_mask) const override;
    void observe_distance(int distance) override;
    const char *name() const override { return "pipelining-adaptive"; }

    /** Observations of a given distance so far. */
    uint64_t distance_count(int distance) const;
    uint64_t observations() const { return observations_; }

  private:
    static constexpr int MAX_DIST = 63;

    uint32_t warmup_;
    uint64_t observations_ = 0;
    /** counts_[MAX_DIST + d] = observations of distance d. */
    uint64_t counts_[2 * MAX_DIST + 1] = {};
};

/**
 * Factory by name: "disk", "fullpage", "lazy", "eager",
 * "pipelining" (NeighborsThenRest), "pipelining-all",
 * "pipelining-doubled", "pipelining-initial2x",
 * "pipelining-adaptive". When @p metrics is given, the policy's
 * counters are registered before it is returned.
 */
std::unique_ptr<FetchPolicy>
make_fetch_policy(const std::string &name,
                  obs::MetricsRegistry *metrics = nullptr);

/** As make_fetch_policy, but nullptr for a name it does not know. */
std::unique_ptr<FetchPolicy>
try_make_fetch_policy(const std::string &name);

} // namespace sgms

#endif // SGMS_POLICY_FETCH_POLICY_H
