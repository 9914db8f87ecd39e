/**
 * @file
 * Coverage for smaller behaviours not exercised elsewhere: event
 * queue misuse, experiment config normalization, trace text format
 * tolerance, histogram quantile edges, page-table erase, and the
 * network presets' internal consistency.
 */

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/experiment.h"
#include "mem/page_table.h"
#include "net/params.h"
#include "sim/event_queue.h"
#include "temp_dir.h"
#include "trace/trace_file.h"

namespace sgms
{
namespace
{

TEST(EventQueueMisuse, RunOneOnEmptyDies)
{
    EventQueue eq;
    EXPECT_DEATH({ eq.run_one(); }, "assertion");
}

TEST(EventQueueMisuse, SchedulingInThePastDies)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run_all();
    EXPECT_DEATH({ eq.schedule(50, [] {}); }, "assertion");
}

TEST(ExperimentConfig, FullpageForcesSubpageEqualPage)
{
    Experiment ex;
    ex.policy = "fullpage";
    ex.subpage_size = 1024; // must be ignored
    ex.app = "gdb";
    ex.scale = 0.2;
    SimConfig cfg = ex.config();
    EXPECT_EQ(cfg.subpage_size, cfg.page_size);
    ex.policy = "disk";
    EXPECT_EQ(ex.config().subpage_size, ex.config().page_size);
    ex.policy = "eager";
    EXPECT_EQ(ex.config().subpage_size, 1024u);
}

TEST(ExperimentConfig, MemPagesDeriveFromFootprint)
{
    Experiment ex;
    ex.app = "gdb";
    ex.scale = 0.5;
    ex.mem = MemConfig::Half;
    uint64_t fp = app_footprint_pages("gdb", 0.5);
    EXPECT_EQ(ex.config().mem_pages, std::max<size_t>(2, fp / 2));
    ex.mem = MemConfig::Full;
    EXPECT_EQ(ex.config().mem_pages, 0u);
}

TEST(TraceText, LowercaseAndCommentsTolerated)
{
    // Also blanks, tabs, CRLF line ends and a 0x prefix.
    test::TempDir tmp;
    FileTrace t(tmp.write("t.txt",
                          "# comment line\n\nr ff\nw 1a2b\n"
                          "  R\t0x10  \r\n\t# indented\n"
                          "W 0X7fffffffffffffff"));
    TraceEvent ev;
    ASSERT_TRUE(t.next(ev));
    EXPECT_EQ(ev.addr, 0xffu);
    EXPECT_FALSE(ev.write);
    ASSERT_TRUE(t.next(ev));
    EXPECT_EQ(ev.addr, 0x1a2bu);
    EXPECT_TRUE(ev.write);
    ASSERT_TRUE(t.next(ev));
    EXPECT_EQ(ev.addr, 0x10u);
    EXPECT_FALSE(ev.write);
    ASSERT_TRUE(t.next(ev));
    EXPECT_EQ(ev.addr, 0x7fffffffffffffffull); // largest packable
    EXPECT_TRUE(ev.write);
    EXPECT_FALSE(t.next(ev));
}

TEST(HistogramQuantiles, SingleBinAndWeights)
{
    Histogram h;
    h.add(42, 10);
    EXPECT_EQ(h.quantile(0.0), 42);
    EXPECT_EQ(h.quantile(0.5), 42);
    EXPECT_EQ(h.quantile(1.0), 42);
    h.add(100, 90);
    EXPECT_EQ(h.quantile(0.05), 42);
    EXPECT_EQ(h.quantile(0.5), 100);
}

TEST(PageTableErase, RemovesFromPolicyToo)
{
    PageGeometry geo(8192, 1024);
    PageTable pt(geo, 2);
    pt.install(1);
    pt.install(2);
    pt.erase(1);
    EXPECT_EQ(pt.resident(), 1u);
    EXPECT_FALSE(pt.full());
    // Victim selection must not return the erased page.
    pt.install(3);
    EXPECT_EQ(pt.evict(), 2u);
    EXPECT_EQ(pt.evict(), 3u);
}

TEST(NetPresets, ComponentNamesComplete)
{
    EXPECT_STREQ(component_name(Component::ReqCpu), "Req-CPU");
    EXPECT_STREQ(component_name(Component::Wire), "Wire");
    EXPECT_STREQ(component_name(Component::SrvCpu), "Srv-CPU");
    EXPECT_STREQ(msg_kind_name(MsgKind::Request), "request");
    EXPECT_STREQ(msg_kind_name(MsgKind::PutPage), "putpage");
}

TEST(NetPresets, DataMessageLatencyComposition)
{
    NetParams p = NetParams::an2();
    // data_message_latency is the five-stage sum; demand adds the
    // fault handling and request path on top.
    Tick data = p.data_message_latency(1024);
    Tick demand = p.demand_fetch_latency(1024);
    EXPECT_GT(demand, data + p.fault_handle);
    EXPECT_GT(demand - data - p.fault_handle, p.request_proc);
}

TEST(NetPresets, An2WireRateIs155Mbps)
{
    NetParams p = NetParams::an2();
    // 8 bits / 155 Mb/s = 51.6 ns per byte.
    EXPECT_NEAR(ticks::to_ns(p.wire_per_byte), 51.6, 0.1);
}

TEST(MemConfigNames, AllNamed)
{
    EXPECT_STREQ(mem_config_name(MemConfig::Full), "full-mem");
    EXPECT_STREQ(mem_config_name(MemConfig::Half), "1/2-mem");
    EXPECT_STREQ(mem_config_name(MemConfig::Quarter), "1/4-mem");
}

} // namespace
} // namespace sgms
