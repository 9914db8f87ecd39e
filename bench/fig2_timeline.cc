/**
 * @file
 * Regenerates Figure 2: detailed remote page-fetch timelines for a
 * fault served with full 8K pages, 2K subpages, and 1K subpages
 * under eager fullpage fetch.
 *
 * The chart is drawn from the fault's Net spans (obs/tracer.h): a
 * row is a span track, one of the five components of the paper's
 * timelines (Req-CPU, Req-DMA, Wire, Srv-DMA, Srv-CPU), and a glyph
 * is the message kind that occupies it:
 *   r = request message, D = demand subpage, b = rest of page,
 *   f = fault handling fixed cost on the requesting CPU.
 */

#include "bench/bench_common.h"

#include <map>
#include <string>

#include "net/network.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"

using namespace sgms;

namespace
{

void
show_timeline(uint32_t demand_bytes, uint32_t rest_bytes)
{
    EventQueue eq;
    NetParams params = NetParams::an2();
    obs::Tracer tracer(64); // ample for one fault's stage spans
    Network net(eq, params, 0, &tracer);
    Tick demand_at = 0, rest_at = 0;

    Tick t0 = params.fault_handle;
    net.send(t0, {0, 1, params.request_bytes, MsgKind::Request, false,
                  [&](Tick when, Tick) {
                      net.send(when, {1, 0, demand_bytes,
                                      MsgKind::DemandData, false,
                                      [&](Tick d, Tick) {
                                          demand_at = d;
                                      }});
                      if (rest_bytes) {
                          net.send(when,
                                   {1, 0, rest_bytes,
                                    MsgKind::BackgroundData, false,
                                    [&](Tick d, Tick) {
                                        rest_at = d;
                                    }});
                      }
                  }});
    eq.run_all();
    SGMS_ASSERT(tracer.dropped() == 0);

    char title[128];
    if (rest_bytes) {
        std::snprintf(title, sizeof(title),
                      "%s subpage + %s rest (eager fullpage fetch)",
                      format_bytes(demand_bytes).c_str(),
                      format_bytes(rest_bytes).c_str());
    } else {
        std::snprintf(title, sizeof(title), "%s fullpage fetch",
                      format_bytes(demand_bytes).c_str());
    }

    GanttChart chart(title);
    const Component order[] = {Component::ReqCpu, Component::ReqDma,
                               Component::Wire, Component::SrvDma,
                               Component::SrvCpu};
    std::map<std::string, std::vector<GanttSpan>> rows;
    // Fault-handling fixed cost occupies the requesting CPU first.
    rows[component_name(Component::ReqCpu)].push_back({0, t0, 'f'});
    for (const obs::Span &s : tracer.spans()) {
        // A Net span's arg1 is its message kind.
        const auto kind = static_cast<MsgKind>(s.arg1);
        char glyph = 'r';
        if (kind == MsgKind::DemandData)
            glyph = 'D';
        else if (kind == MsgKind::BackgroundData)
            glyph = 'b';
        rows[s.track].push_back({s.start, s.end, glyph});
    }
    for (Component comp : order) {
        const char *track = component_name(comp);
        chart.add_row(track, rows[track]);
    }
    chart.print(std::cout, 96);
    std::printf("  program resumes at %s", format_ms(demand_at).c_str());
    if (rest_bytes)
        std::printf("; page complete at %s", format_ms(rest_at).c_str());
    std::printf("\n\n");
}

} // namespace

int
main()
{
    bench::banner("Figure 2", "remote page fetch timelines", 1.0);
    std::printf("glyphs: f=fault handling, r=request, D=demand "
                "subpage, b=rest of page\n\n");
    show_timeline(1024, 7168);
    show_timeline(2048, 6144);
    show_timeline(8192, 0);
    std::printf("paper: resumes at 0.52/0.66/1.48 ms, page complete "
                "at 1.38/1.25/1.48 ms\n");
    return 0;
}
