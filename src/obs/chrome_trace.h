/**
 * @file
 * Trace exporters: Chrome trace_event JSON and a per-fault timeline.
 *
 * The JSON output is the "JSON Array Format" wrapped in an object
 * ({"traceEvents":[...]}), loadable by chrome://tracing and by
 * Perfetto's legacy importer. Simulated picoseconds are emitted as
 * fractional microseconds (the trace_event unit); durations survive
 * to sub-nanosecond resolution.
 *
 * Each node is one process (pid = Span::node, named "node N":
 * clients 0..N-1, servers N and up), and each distinct Span::track of
 * a node one named thread row inside it, so no two clients or
 * servers share a row.
 */

#ifndef SGMS_OBS_CHROME_TRACE_H
#define SGMS_OBS_CHROME_TRACE_H

#include <ostream>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace sgms::obs
{

/** Emit every retained span of @p tracer as Chrome trace JSON. */
void write_chrome_trace(std::ostream &os, const Tracer &tracer);

/** As above, from an explicit span list (for filtered exports). */
void write_chrome_trace(std::ostream &os,
                        const std::vector<Span> &spans);

/** Write Chrome trace JSON to @p path; fatal() on I/O failure. */
void write_chrome_trace_file(const std::string &path,
                             const Tracer &tracer);

/**
 * Human-readable per-fault timeline: one block per fault id showing
 * its demand stall, later page-wait stalls, and the network-stage
 * spans of its transfer window — the Figure-2 view of a real run.
 * @p max_faults bounds the output (0 = all).
 */
void write_fault_timeline(std::ostream &os, const Tracer &tracer,
                          size_t max_faults = 0);

} // namespace sgms::obs

#endif // SGMS_OBS_CHROME_TRACE_H
