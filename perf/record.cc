#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/json_report.h"
#include "perf.h"

#ifndef SGMS_PERF_COMPILER
#define SGMS_PERF_COMPILER "unknown"
#endif
#ifndef SGMS_PERF_BUILD_TYPE
#define SGMS_PERF_BUILD_TYPE "unknown"
#endif

namespace sgms::perf
{

namespace
{

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

std::string
quoted(const std::string &s)
{
    return "\"" + json_escape(s) + "\"";
}

/** All digits of @p v; null when it is not finite (a defect). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

const std::vector<MetricSpec> &
end_to_end_metrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s", "lower"},
        {"refs_per_s", "refs/s", "higher"},
        {"cpu_s", "s", "lower"},
        {"peak_rss_mb", "MiB", "lower"},
        {"sim_runtime_s", "s", "lower"},
        {"sim_fault_wait_us", "us", "lower"},
    };
    return specs;
}

const std::vector<MetricSpec> &
per_layer_metrics()
{
    static const std::vector<MetricSpec> specs = {
        {"trace.setup_s", "s", "lower"},
        {"trace.store_hits", "count", "higher"},
        {"trace.store_fallbacks", "count", "lower"},
        {"trace.store_mb", "MiB", "lower"},
        {"trace.mapped_mb", "MiB", "lower"},
        {"trace.replay_ns_per_ref", "ns/ref", "lower"},
        {"mem.pt_ns_per_ref", "ns/ref", "lower"},
        {"mem.evictions", "count", "lower"},
        {"policy.plan_ns", "ns", "lower"},
        {"policy.msgs_per_fault", "msgs/fault", "lower"},
        {"net.send_ns_per_msg", "ns/msg", "lower"},
        {"net.events_per_msg", "events/msg", "lower"},
        {"gms.put_page_ns", "ns", "lower"},
        {"core.point_ms_p50", "ms", "lower"},
        {"core.point_ms_p90", "ms", "lower"},
        {"core.points", "count", "higher"},
        {"core.ns_per_ref", "ns/ref", "lower"},
        {"core.layer_coverage", "ratio", "higher"},
        {"sim.kernel_events", "count", "lower"},
        {"sim.ns_per_event", "ns/event", "lower"},
        {"exec.encode_ms", "ms", "lower"},
        {"exec.decode_ms", "ms", "lower"},
        {"exec.blob_mb", "MiB", "lower"},
        {"exec.ipc_ms", "ms", "lower"},
        {"exec.overhead_s", "s", "lower"},
        {"net.wire_util", "ratio", "lower"},
        {"gms.server_util_max", "ratio", "lower"},
        {"sim.sp_wait_us_p50", "us", "lower"},
        {"sim.sp_wait_us_p90", "us", "lower"},
    };
    return specs;
}

std::string
record_json(const Workload &w, bool traced, const std::string &git_sha,
            uint64_t digest, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics, const std::string &extra)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    std::ostringstream os;
    os << "{\"record\":{\"workload\":" << quoted(w.name)
       << ",\"seed\":" << w.seed
       << ",\"traced\":" << (traced ? "true" : "false")
       << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu\":" << quoted(cpu_model())
       << ",\"compiler\":" << quoted(SGMS_PERF_COMPILER)
       << ",\"build_type\":" << quoted(SGMS_PERF_BUILD_TYPE)
       << ",\"git_sha\":" << quoted(git_sha) << "}"
       << ",\"points\":" << w.points.size()
       << ",\"digest\":\"" << hex << "\""
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? "," : "") << quoted(metrics[i].name)
           << ":{\"value\":" << number(metrics[i].value)
           << ",\"unit\":" << quoted(metrics[i].unit) << "}";
    }
    os << "}";
    if (!extra.empty())
        os << "," << extra;
    os << "}}";
    return os.str();
}

} // namespace sgms::perf
