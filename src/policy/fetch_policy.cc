#include "policy/fetch_policy.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace sgms
{

void
SegmentList::grow()
{
    uint32_t cap = std::max<uint32_t>(16, cap_ * 2);
    TransferSegment *buf = new TransferSegment[cap];
    std::copy(begin(), end(), buf);
    delete[] heap_;
    heap_ = buf;
    cap_ = cap;
}

void
SegmentList::append(const SegmentList &other)
{
    for (const TransferSegment &seg : other)
        push_back(seg);
}

void
SegmentList::take(SegmentList &other) noexcept
{
    heap_ = other.heap_;
    size_ = other.size_;
    cap_ = other.cap_;
    if (!heap_)
        std::copy(other.inline_, other.inline_ + size_, inline_);
    other.heap_ = nullptr;
    other.size_ = 0;
    other.cap_ = kInline;
}

uint32_t
FetchPlan::total_bytes() const
{
    uint32_t total = 0;
    for (const auto &seg : segments)
        total += seg.bytes;
    return total;
}

FetchPlan
FetchPolicy::plan(const PageGeometry &geo, SubpageIndex faulted,
                  uint32_t byte_in_sub, uint64_t missing_mask) const
{
    FetchPlan p = build_plan(geo, faulted, byte_in_sub, missing_mask);
    if (c_plans_) {
        c_plans_->inc();
        if (p.from_disk)
            c_disk_plans_->inc();
        for (const TransferSegment &s : p.segments) {
            if (s.demand) {
                c_demand_bytes_->inc(s.bytes);
            } else {
                (s.pipelined_recv ? c_pipelined_followons_
                                  : c_eager_followons_)
                    ->inc();
                c_followon_bytes_->inc(s.bytes);
            }
        }
    }
    return p;
}

void
FetchPolicy::bind_metrics(obs::MetricsRegistry &m)
{
    c_plans_ = &m.counter("policy.plans");
    c_disk_plans_ = &m.counter("policy.disk_plans");
    c_demand_bytes_ = &m.counter("policy.demand_bytes");
    c_eager_followons_ = &m.counter("policy.eager_followons");
    c_pipelined_followons_ = &m.counter("policy.pipelined_followons");
    c_followon_bytes_ = &m.counter("policy.followon_bytes");
}

const char *
pipeline_strategy_name(PipelineStrategy s)
{
    switch (s) {
      case PipelineStrategy::NeighborsThenRest:
        return "neighbors+rest";
      case PipelineStrategy::AllSubpages:
        return "all-subpages";
      case PipelineStrategy::DoubledFollowOn:
        return "doubled-followon";
      case PipelineStrategy::InitialDouble:
        return "initial-2x";
    }
    return "?";
}

namespace
{

/** Bytes carried by a subpage mask. */
uint32_t
mask_bytes(uint64_t mask, const PageGeometry &geo)
{
    return __builtin_popcountll(mask) * geo.subpage_size();
}

/** Segment helper. */
TransferSegment
seg(uint64_t mask, const PageGeometry &geo, bool demand,
    bool pipelined = false)
{
    return {mask, mask_bytes(mask, geo), demand, pipelined};
}

} // namespace

FetchPlan
DiskPolicy::build_plan(const PageGeometry &geo, SubpageIndex, uint32_t,
                 uint64_t missing_mask) const
{
    FetchPlan p;
    p.from_disk = true;
    p.segments.push_back(seg(missing_mask, geo, true));
    return p;
}

FetchPlan
FullPagePolicy::build_plan(const PageGeometry &geo, SubpageIndex, uint32_t,
                     uint64_t missing_mask) const
{
    FetchPlan p;
    p.segments.push_back(seg(missing_mask, geo, true));
    return p;
}

FetchPlan
LazySubpagePolicy::build_plan(const PageGeometry &geo, SubpageIndex faulted,
                        uint32_t, uint64_t missing_mask) const
{
    SGMS_ASSERT(missing_mask & (1ULL << faulted));
    FetchPlan p;
    p.segments.push_back(seg(1ULL << faulted, geo, true));
    return p;
}

FetchPlan
EagerFullpagePolicy::build_plan(const PageGeometry &geo, SubpageIndex faulted,
                          uint32_t, uint64_t missing_mask) const
{
    SGMS_ASSERT(missing_mask & (1ULL << faulted));
    FetchPlan p;
    uint64_t demand = 1ULL << faulted;
    p.segments.push_back(seg(demand, geo, true));
    uint64_t rest = missing_mask & ~demand;
    if (rest)
        p.segments.push_back(seg(rest, geo, false));
    return p;
}

FetchPlan
PipeliningPolicy::build_plan(const PageGeometry &geo, SubpageIndex faulted,
                       uint32_t byte_in_sub,
                       uint64_t missing_mask) const
{
    SGMS_ASSERT(missing_mask & (1ULL << faulted));
    const uint32_t n = geo.subpages_per_page();
    FetchPlan p;

    uint64_t demand = 1ULL << faulted;
    if (strategy_ == PipelineStrategy::InitialDouble && n > 1) {
        // Take the neighbour on the side of the faulted word along
        // for the ride: the preceding subpage if the fault is in the
        // first half, else the following one.
        bool first_half = byte_in_sub < geo.subpage_size() / 2;
        int neighbour = first_half ? static_cast<int>(faulted) - 1
                                   : static_cast<int>(faulted) + 1;
        if (neighbour < 0 || neighbour >= static_cast<int>(n))
            neighbour = first_half ? faulted + 1 : faulted - 1;
        demand |= 1ULL << neighbour;
    }
    demand &= missing_mask | (1ULL << faulted);
    p.segments.push_back(seg(demand, geo, true));

    uint64_t remaining = missing_mask & ~demand;
    auto take = [&](int idx) {
        if (idx < 0 || idx >= static_cast<int>(n))
            return;
        uint64_t bit = 1ULL << idx;
        if (!(remaining & bit))
            return;
        p.segments.push_back(seg(bit, geo, false, true));
        remaining &= ~bit;
    };

    switch (strategy_) {
      case PipelineStrategy::NeighborsThenRest:
        take(static_cast<int>(faulted) + 1);
        take(static_cast<int>(faulted) - 1);
        break;
      case PipelineStrategy::AllSubpages:
        for (uint32_t d = 1; d < n && remaining; ++d) {
            take(static_cast<int>(faulted) + static_cast<int>(d));
            take(static_cast<int>(faulted) - static_cast<int>(d));
        }
        break;
      case PipelineStrategy::DoubledFollowOn: {
        // One pipelined message carrying the next two subpages.
        uint64_t mask = 0;
        for (int idx = static_cast<int>(faulted) + 1;
             idx < static_cast<int>(n) &&
             __builtin_popcountll(mask) < 2;
             ++idx) {
            uint64_t bit = 1ULL << idx;
            if (remaining & bit)
                mask |= bit;
        }
        if (mask) {
            p.segments.push_back(seg(mask, geo, false, true));
            remaining &= ~mask;
        }
        break;
      }
      case PipelineStrategy::InitialDouble:
        break; // nothing pipelined beyond the doubled demand
    }

    if (remaining)
        p.segments.push_back(seg(remaining, geo, false));
    return p;
}

void
AdaptivePipeliningPolicy::observe_distance(int distance)
{
    if (distance < -MAX_DIST || distance > MAX_DIST || distance == 0)
        return;
    ++counts_[MAX_DIST + distance];
    ++observations_;
}

uint64_t
AdaptivePipeliningPolicy::distance_count(int distance) const
{
    if (distance < -MAX_DIST || distance > MAX_DIST)
        return 0;
    return counts_[MAX_DIST + distance];
}

FetchPlan
AdaptivePipeliningPolicy::build_plan(const PageGeometry &geo,
                               SubpageIndex faulted, uint32_t,
                               uint64_t missing_mask) const
{
    SGMS_ASSERT(missing_mask & (1ULL << faulted));
    const int n = static_cast<int>(geo.subpages_per_page());
    FetchPlan p;
    p.segments.push_back(seg(1ULL << faulted, geo, true));
    uint64_t remaining = missing_mask & ~(1ULL << faulted);

    // Candidate distances ordered by learned likelihood; before the
    // warmup, or for distances never observed, fall back to the
    // +-distance heuristic (which the paper's Figure 7 justifies).
    std::vector<int> order;
    for (int d = 1; d < n; ++d) {
        order.push_back(d);
        order.push_back(-d);
    }
    if (observations_ >= warmup_) {
        std::stable_sort(order.begin(), order.end(),
                         [this](int a, int b) {
                             return distance_count(a) >
                                    distance_count(b);
                         });
    }
    for (int d : order) {
        int idx = static_cast<int>(faulted) + d;
        if (idx < 0 || idx >= n)
            continue;
        uint64_t bit = 1ULL << idx;
        if (!(remaining & bit))
            continue;
        p.segments.push_back(seg(bit, geo, false, true));
        remaining &= ~bit;
    }
    if (remaining)
        p.segments.push_back(seg(remaining, geo, false));
    return p;
}

std::unique_ptr<FetchPolicy>
try_make_fetch_policy(const std::string &name)
{
    if (name == "disk")
        return std::make_unique<DiskPolicy>();
    if (name == "fullpage")
        return std::make_unique<FullPagePolicy>();
    if (name == "lazy")
        return std::make_unique<LazySubpagePolicy>();
    if (name == "eager")
        return std::make_unique<EagerFullpagePolicy>();
    if (name == "pipelining")
        return std::make_unique<PipeliningPolicy>(
            PipelineStrategy::NeighborsThenRest);
    if (name == "pipelining-all")
        return std::make_unique<PipeliningPolicy>(
            PipelineStrategy::AllSubpages);
    if (name == "pipelining-doubled")
        return std::make_unique<PipeliningPolicy>(
            PipelineStrategy::DoubledFollowOn);
    if (name == "pipelining-initial2x")
        return std::make_unique<PipeliningPolicy>(
            PipelineStrategy::InitialDouble);
    if (name == "pipelining-adaptive")
        return std::make_unique<AdaptivePipeliningPolicy>();
    return nullptr;
}

std::unique_ptr<FetchPolicy>
make_fetch_policy(const std::string &name,
                  obs::MetricsRegistry *metrics)
{
    std::unique_ptr<FetchPolicy> policy = try_make_fetch_policy(name);
    if (!policy)
        fatal("unknown fetch policy '%s'", name.c_str());
    if (metrics)
        policy->bind_metrics(*metrics);
    return policy;
}

} // namespace sgms
