#include "core/sim_result.h"

#include <algorithm>

namespace sgms
{

Series
SimResult::fault_curve() const
{
    Series s;
    s.points.reserve(faults.size());
    for (size_t k = 0; k < faults.size(); ++k)
        s.add(static_cast<double>(faults[k].ref_index),
              static_cast<double>(k + 1));
    return s;
}

double
SimResult::best_case_fraction(double slack) const
{
    if (faults.empty())
        return 0.0;
    Tick min_wait = TICK_MAX;
    for (const auto &f : faults)
        min_wait = std::min(min_wait, f.total_wait());
    uint64_t best = 0;
    for (const auto &f : faults)
        if (f.total_wait() <= static_cast<Tick>(min_wait * slack))
            ++best;
    return static_cast<double>(best) / faults.size();
}

double
SimResult::burst_fault_fraction(uint64_t window_refs,
                                double rate_multiplier) const
{
    if (faults.empty() || window_refs == 0 || refs == 0)
        return 0.0;
    // A window qualifies as a burst when its fault count exceeds the
    // multiplier times the average per-window count; also require at
    // least 2 faults so single isolated faults never qualify.
    double avg = static_cast<double>(faults.size()) * window_refs /
                 static_cast<double>(refs);
    double threshold = std::max(2.0, rate_multiplier * avg);
    uint64_t in_bursts = 0;
    size_t i = 0;
    while (i < faults.size()) {
        uint64_t window_start = faults[i].ref_index;
        size_t j = i;
        while (j < faults.size() &&
               faults[j].ref_index < window_start + window_refs) {
            ++j;
        }
        if (static_cast<double>(j - i) >= threshold)
            in_bursts += j - i;
        i = j;
    }
    return static_cast<double>(in_bursts) / faults.size();
}

} // namespace sgms
