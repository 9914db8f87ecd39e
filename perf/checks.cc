#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "exec/result_codec.h"
#include "perf.h"
#include "trace/binfmt.h"

namespace sgms::perf
{

uint32_t
clients_of(const Experiment &ex)
{
    // Mirrors Experiment::config(): the point's own count wins when
    // it asks for more than one client.
    return ex.clients > 1 ? ex.clients : std::max(1u, ex.base.clients);
}

std::string
check_point(const Experiment &ex, const SimResult &r, uint64_t trace_refs)
{
    for (const auto &m : r.metrics) {
        if (m.name == "exec.degraded")
            return "degraded";
    }
    Tick sum = r.exec_time + r.sp_latency + r.page_wait +
               r.recv_overhead + r.emulation_overhead + r.tlb_overhead;
    uint32_t n = clients_of(ex);
    if (n == 1 && sum != r.runtime)
        return "runtime " + std::to_string(r.runtime) +
               " != component sum " + std::to_string(sum);
    // N>1: the kernel sums components over clients but takes the
    // latest client's clock as the runtime.
    if (n > 1 && (sum < r.runtime || sum > Tick{n} * r.runtime))
        return "component sum " + std::to_string(sum) +
               " outside [runtime, clients * runtime] for runtime " +
               std::to_string(r.runtime);
    if (r.refs != n * trace_refs)
        return "refs " + std::to_string(r.refs) + " != " +
               std::to_string(n) + " clients * " +
               std::to_string(trace_refs) + " trace refs";
    return "";
}

uint64_t
results_digest(const std::vector<SimResult> &results)
{
    uint64_t h = fnv1a_bytes(nullptr, 0);
    for (const SimResult &r : results) {
        std::string blob = exec::result_blob(r);
        h = fnv1a_bytes(blob.data(), blob.size(), h);
    }
    return h;
}

double
sim_runtime_s(const std::vector<SimResult> &results)
{
    double ps = 0.0;
    for (const SimResult &r : results)
        ps += static_cast<double>(r.runtime);
    return ps / static_cast<double>(ticks::SEC);
}

double
sim_fault_wait_us(const std::vector<SimResult> &results)
{
    double sum = 0.0;
    uint64_t n = 0;
    for (const SimResult &r : results) {
        for (const FaultRecord &f : r.faults)
            sum += ticks::to_us(f.total_wait());
        n += r.faults.size();
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(rank ? rank - 1 : 0, v.size() - 1)];
}

double
lpt_makespan(std::vector<double> times, unsigned bins)
{
    std::sort(times.begin(), times.end(), std::greater<>());
    std::priority_queue<double, std::vector<double>, std::greater<>> load;
    for (unsigned b = 0; b < std::max(1u, bins); ++b)
        load.push(0.0);
    double makespan = 0.0;
    for (double t : times) {
        double l = load.top() + t;
        load.pop();
        load.push(l);
        makespan = std::max(makespan, l);
    }
    return makespan;
}

} // namespace sgms::perf
