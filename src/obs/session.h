/**
 * @file
 * Observability session: one-stop CLI wiring for tracing and
 * metrics.
 *
 * Examples and benches construct an ObsSession from their parsed
 * Options, call configure() on the SimConfig they are about to run,
 * and finish() with the result. The session owns the span Tracer and
 * understands these flags:
 *
 *   --trace-out=PATH      write a Chrome trace_event JSON file
 *   --trace-spans=N       tracer ring capacity (default 1M spans)
 *   --trace-timeline[=N]  print a per-fault timeline (first N faults)
 *   --metrics             print the metrics table after the run
 *
 * The spans are the run's one event log: every network stage
 * occupancy, fault, eviction, GMS putpage and discard, fetch timeout
 * and fetch plan is a span or an instant.
 */

#ifndef SGMS_OBS_SESSION_H
#define SGMS_OBS_SESSION_H

#include <memory>
#include <string>

#include "common/options.h"
#include "obs/tracer.h"

namespace sgms
{

struct SimConfig;
struct SimResult;

namespace obs
{

class ObsSession
{
  public:
    /** Parse the observability flags out of @p opts. */
    explicit ObsSession(const Options &opts);

    /** Point @p cfg at the session's tracer (if tracing is on). */
    void configure(SimConfig &cfg) const;

    /**
     * End-of-run reporting: print the metrics table and/or fault
     * timeline to stdout and write the Chrome trace file, as
     * requested by the flags; warn on stderr when the tracer ring
     * dropped spans.
     */
    void finish(const SimResult &res) const;

    bool tracing() const { return tracer_ != nullptr; }
    Tracer *tracer() const { return tracer_.get(); }
    bool metrics_requested() const { return metrics_; }
    const std::string &trace_path() const { return trace_path_; }

    /** Help text for the flags above (for --help output). */
    static const char *help();

  private:
    std::unique_ptr<Tracer> tracer_;
    std::string trace_path_;
    bool metrics_ = false;
    bool timeline_ = false;
    uint64_t timeline_faults_ = 0;
};

} // namespace obs
} // namespace sgms

#endif // SGMS_OBS_SESSION_H
