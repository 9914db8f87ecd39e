#include "obs/session.h"

#include <iostream>

#include "common/logging.h"
#include "core/sim_config.h"
#include "core/sim_result.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"

namespace sgms
{
namespace obs
{

ObsSession::ObsSession(const Options &opts)
{
    trace_path_ = opts.get("trace-out");
    metrics_ = opts.get_bool("metrics");
    timeline_ = opts.has("trace-timeline");
    timeline_faults_ = opts.get_u64("trace-timeline", 0);

    if (!trace_path_.empty() || timeline_) {
        uint64_t cap =
            opts.get_u64("trace-spans", Tracer::DEFAULT_CAPACITY);
        tracer_ = std::make_unique<Tracer>(cap);
    }
}

void
ObsSession::configure(SimConfig &cfg) const
{
    if (tracer_)
        cfg.tracer = tracer_.get();
}

void
ObsSession::finish(const SimResult &res) const
{
    if (metrics_)
        print_metrics(std::cout, res.metrics);
    if (timeline_)
        write_fault_timeline(std::cout, *tracer_, timeline_faults_);
    if (tracer_ && !trace_path_.empty()) {
        write_chrome_trace_file(trace_path_, *tracer_);
        inform("wrote %llu spans to %s (open in Perfetto / "
               "chrome://tracing)",
               static_cast<unsigned long long>(tracer_->size()),
               trace_path_.c_str());
    }
    // A timeline from an overflowed ring starts after the run's
    // first faults, so say so whichever output was asked for.
    if (tracer_ && tracer_->dropped()) {
        warn("trace ring overflowed: %llu oldest spans dropped "
             "(raise --trace-spans)",
             static_cast<unsigned long long>(tracer_->dropped()));
    }
}

const char *
ObsSession::help()
{
    return "observability: --trace-out=PATH --trace-spans=N "
           "--trace-timeline[=N] --metrics";
}

} // namespace obs
} // namespace sgms
