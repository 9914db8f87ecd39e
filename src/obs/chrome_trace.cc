#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>

#include "common/logging.h"
#include "common/units.h"

namespace sgms::obs
{

namespace
{

/** Category-specific names for the generic span argument slots. */
struct ArgNames
{
    const char *id;
    const char *arg0;
    const char *arg1;
};

ArgNames
arg_names(SpanCategory cat)
{
    switch (cat) {
      case SpanCategory::Fault:
        return {"fault_id", "page", "bytes"};
      case SpanCategory::PageWait:
        return {"fault_id", "page", "subpage"};
      case SpanCategory::Block:
        return {"wait_id", "arg0", "arg1"};
      case SpanCategory::Net:
        return {"msg_id", "node", "kind"};
      case SpanCategory::Gms:
        return {"page", "bytes", "server"};
      case SpanCategory::Policy:
        return {"fault_id", "segments", "bytes"};
    }
    return {"id", "arg0", "arg1"};
}

/** Picoseconds to the trace_event unit (fractional microseconds). */
std::string
fmt_us(Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", ticks::to_us(t));
    return buf;
}

} // namespace

void
write_chrome_trace(std::ostream &os, const std::vector<Span> &spans)
{
    // One process per node and, inside it, one thread per track,
    // numbered in (node, track name) order.
    std::map<std::pair<NodeId, std::string>, int> tids;
    for (const Span &s : spans)
        tids.emplace(std::make_pair(s.node, std::string(s.track)), 0);
    int next_tid = 1;
    for (auto &[row, tid] : tids)
        tid = next_tid++;

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    const char *sep = "\n";
    auto event = [&os, &sep]() -> std::ostream & {
        os << sep;
        sep = ",\n";
        return os;
    };
    std::optional<NodeId> named;
    for (const auto &[row, tid] : tids) {
        const auto &[node, track] = row;
        if (named != node) {
            event() << "{\"ph\":\"M\",\"pid\":" << node
                    << ",\"name\":\"process_name\",\"args\":{\"name\":"
                       "\"node "
                    << node << "\"}}";
            named = node;
        }
        event() << "{\"ph\":\"M\",\"pid\":" << node << ",\"tid\":" << tid
                << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                << track << "\"}}";
    }
    for (const Span &s : spans) {
        ArgNames an = arg_names(s.cat);
        event() << "{\"name\":\"" << s.name << "\",\"cat\":\""
                << span_category_name(s.cat) << "\",\"pid\":" << s.node
                << ",\"tid\":" << tids[{s.node, s.track}]
                << ",\"ts\":" << fmt_us(s.start);
        if (s.instant())
            os << ",\"ph\":\"i\",\"s\":\"t\"";
        else
            os << ",\"ph\":\"X\",\"dur\":" << fmt_us(s.duration());
        os << ",\"args\":{\"" << an.id << "\":" << s.id << ",\""
           << an.arg0 << "\":" << s.arg0 << ",\"" << an.arg1
           << "\":" << s.arg1 << "}}";
    }
    os << "\n]}\n";
}

void
write_chrome_trace(std::ostream &os, const Tracer &tracer)
{
    write_chrome_trace(os, tracer.spans());
}

void
write_chrome_trace_file(const std::string &path, const Tracer &tracer)
{
    std::ofstream os(path);
    if (!os)
        fatal("trace export: cannot open '%s'", path.c_str());
    write_chrome_trace(os, tracer);
    if (tracer.dropped()) {
        warn("trace export: ring overflowed, %llu oldest spans lost "
             "(raise the tracer capacity for full runs)",
             static_cast<unsigned long long>(tracer.dropped()));
    }
}

void
write_fault_timeline(std::ostream &os, const Tracer &tracer,
                     size_t max_faults)
{
    std::vector<Span> spans = tracer.spans();
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span &a, const Span &b) {
                         return a.start < b.start;
                     });

    std::vector<const Span *> faults, net, waits;
    for (const Span &s : spans) {
        switch (s.cat) {
          case SpanCategory::Fault:
            faults.push_back(&s);
            break;
          case SpanCategory::Net:
            net.push_back(&s);
            break;
          case SpanCategory::PageWait:
            waits.push_back(&s);
            break;
          default:
            break;
        }
    }

    char buf[256];
    size_t shown = 0;
    for (const Span *f : faults) {
        if (max_faults && shown++ >= max_faults) {
            os << "... (" << faults.size() - max_faults
               << " more faults)\n";
            break;
        }
        std::snprintf(buf, sizeof(buf),
                      "fault #%llu  page %lld  %s  at %s  wait %s\n",
                      static_cast<unsigned long long>(f->id),
                      static_cast<long long>(f->arg0), f->name,
                      format_ms(f->start).c_str(),
                      format_us(f->duration()).c_str());
        os << buf;
        // The network activity inside this fault's stall window: the
        // request/demand pipeline the program was waiting on.
        for (const Span *n : net) {
            if (n->end <= f->start || n->start >= f->end)
                continue;
            std::snprintf(buf, sizeof(buf),
                          "  +%-12s %-14s %-11s %s  msg %llu\n",
                          format_us(n->start - f->start).c_str(),
                          n->track, n->name,
                          format_us(n->duration()).c_str(),
                          static_cast<unsigned long long>(n->id));
            os << buf;
        }
        for (const Span *w : waits) {
            if (w->id != f->id)
                continue;
            std::snprintf(buf, sizeof(buf),
                          "  later stall at %s for %s (subpage %lld)\n",
                          format_ms(w->start).c_str(),
                          format_us(w->duration()).c_str(),
                          static_cast<long long>(w->arg1));
            os << buf;
        }
    }
    if (tracer.dropped()) {
        os << "(ring overflowed: " << tracer.dropped()
           << " oldest spans lost)\n";
    }
}

} // namespace sgms::obs
