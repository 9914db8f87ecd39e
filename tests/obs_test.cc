/**
 * @file
 * Observability smoke tests: the tracer ring and what it costs,
 * Chrome trace export, the metrics registry and its JSON round-trip
 * through json_report, the session's overflow warning, and the
 * span/sp_latency accounting invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.h"
#include "common/logging.h"
#include "common/options.h"
#include "core/experiment.h"
#include "core/json_report.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/tracer.h"
#include "sim/kernel.h"
#include "trace/synthetic.h"

namespace sgms
{
namespace
{

// ---------------------------------------------------------------
// Minimal JSON syntax validator (no values kept): enough to assert
// the exporters emit well-formed documents without a JSON library.
// ---------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skip_ws();
        if (!value())
            return false;
        skip_ws();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!string())
                return false;
            skip_ws();
            if (peek() != ':')
                return false;
            ++pos_;
            skip_ws();
            if (!value())
                return false;
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!value())
                return false;
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char *lit)
    {
        size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skip_ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

/** The quickstart workload: small, but exercises every span type. */
WorkloadSpec
smoke_workload()
{
    WorkloadSpec spec;
    spec.name = "obs-smoke";
    spec.hot_pages = 8;

    PhaseSpec sweep;
    sweep.kind = PhaseSpec::Kind::SweepScan;
    sweep.page_lo = 8;
    sweep.page_hi = 72;
    sweep.refs = 64 * 10000;
    sweep.hot_frac = 1.0 - 1.0 / 10000;
    spec.phases.push_back(sweep);

    PhaseSpec dense;
    dense.kind = PhaseSpec::Kind::DenseScan;
    dense.page_lo = 72;
    dense.page_hi = 88;
    dense.stride = 64;
    dense.hot_frac = 0.9;
    dense.refs = 16 * 128 * 10;
    spec.phases.push_back(dense);
    return spec;
}

SimResult
run_traced(obs::Tracer &tracer)
{
    SimConfig cfg;
    cfg.policy = "eager";
    cfg.subpage_size = 1024;
    cfg.mem_pages = 44;
    cfg.tracer = &tracer;
    SyntheticTrace trace(smoke_workload(), /*seed=*/42);
    Simulator sim(cfg);
    return sim.run(trace);
}

TEST(Tracer, RingOverflowDropsOldest)
{
    obs::Tracer tr(4);
    for (int i = 0; i < 10; ++i) {
        tr.record(obs::SpanCategory::Net, 0, "m", "t", i * 10, i * 10 + 5,
                  static_cast<uint64_t>(i));
    }
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.capacity(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    EXPECT_EQ(tr.recorded(obs::SpanCategory::Net), 10u);
    auto spans = tr.spans();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest retained first: ids 6..9.
    EXPECT_EQ(spans.front().id, 6u);
    EXPECT_EQ(spans.back().id, 9u);
    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.dropped(), 0u);
    // A cleared ring fills from its start again, then wraps.
    for (int i = 0; i < 5; ++i)
        tr.record(obs::SpanCategory::Net, 0, "m", "t", i, i,
                  static_cast<uint64_t>(20 + i));
    spans = tr.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans.front().id, 21u);
    EXPECT_EQ(spans.back().id, 24u);
    EXPECT_EQ(tr.dropped(), 1u);
}

/** Resident set of this process in bytes, from /proc/self/statm. */
int64_t
resident_bytes()
{
    std::ifstream statm("/proc/self/statm");
    int64_t size_pages = 0, resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * ::sysconf(_SC_PAGESIZE);
}

TEST(Tracer, DefaultRingCostsMemoryOnlyForRecordedSpans)
{
    // The default ring spans 64 MiB; a run that records a thousand
    // spans must not pay for the rest of it.
    const int64_t ring_bytes = static_cast<int64_t>(
        obs::Tracer::DEFAULT_CAPACITY * sizeof(obs::Span));
    const int64_t before = resident_bytes();
    ASSERT_GT(before, 0);
    obs::Tracer tracer;
    for (int i = 0; i < 1000; ++i) {
        tracer.record(obs::SpanCategory::Net, 0, "m", "t", i, i + 1,
                      static_cast<uint64_t>(i));
    }
    const int64_t grown = resident_bytes() - before;
    EXPECT_EQ(tracer.size(), 1000u);
    EXPECT_EQ(tracer.capacity(), obs::Tracer::DEFAULT_CAPACITY);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_LT(grown, ring_bytes / 2)
        << "resident memory grew by " << grown << " bytes";
}

TEST(Tracer, SimRunRecordsEveryCategory)
{
    obs::Tracer tracer;
    SimResult r = run_traced(tracer);
    ASSERT_GT(r.page_faults, 0u);
    for (size_t c = 0; c < obs::SPAN_CATEGORIES; ++c) {
        EXPECT_GT(tracer.recorded(static_cast<obs::SpanCategory>(c)),
                  0u)
            << "no spans in category "
            << obs::span_category_name(
                   static_cast<obs::SpanCategory>(c));
    }
}

TEST(Tracer, DemandSpansSumToSpLatency)
{
    obs::Tracer tracer;
    SimResult r = run_traced(tracer);
    Tick sum = 0;
    uint64_t demand_spans = 0;
    for (const auto &s : tracer.spans()) {
        if (s.cat == obs::SpanCategory::Fault) {
            sum += s.duration();
            ++demand_spans;
        }
    }
    ASSERT_GT(demand_spans, 0u);
    ASSERT_GT(r.sp_latency, 0u);
    // The simulator emits one Fault span per sp_latency increment,
    // so the sum matches exactly — assert the 1% acceptance bound
    // and then exactness.
    double rel = std::abs(static_cast<double>(sum) -
                          static_cast<double>(r.sp_latency)) /
                 static_cast<double>(r.sp_latency);
    EXPECT_LT(rel, 0.01);
    EXPECT_EQ(sum, r.sp_latency);
}

TEST(Tracer, ChromeExportIsValidJson)
{
    obs::Tracer tracer;
    SimResult r = run_traced(tracer);
    (void)r;
    std::ostringstream os;
    obs::write_chrome_trace(os, tracer);
    std::string json = os.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << "invalid trace JSON";
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Every category shows up as a cat attribute at least once.
    for (size_t c = 0; c < obs::SPAN_CATEGORIES; ++c) {
        std::string needle =
            std::string("\"cat\":\"") +
            obs::span_category_name(static_cast<obs::SpanCategory>(c)) +
            "\"";
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
    }
}

TEST(Tracer, ChromeExportGivesEachNodeItsOwnRows)
{
    // Two gdb clients fault at once on shared servers; if two nodes
    // shared a row of the export, their spans would overlap on it.
    Experiment ex;
    ex.app = "gdb";
    ex.scale = 0.5;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    ex.clients = 2;
    obs::Tracer tracer;
    SimConfig cfg = ex.config();
    cfg.mem_pages = 32;
    cfg.tracer = &tracer;
    auto traces = ex.client_traces(cfg.clients);
    std::vector<TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    Simulator(cfg).run(ptrs);
    ASSERT_EQ(tracer.dropped(), 0u);

    std::ostringstream os;
    obs::write_chrome_trace(os, tracer);
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(os.str(), doc));

    // Every complete Net span, and every span on a "program" row, as
    // [start, end) in picoseconds per (pid, tid) row.
    using Row = std::pair<int64_t, int64_t>;
    std::map<Row, std::string> track;
    std::map<Row, std::vector<std::pair<int64_t, int64_t>>> rows;
    std::set<int64_t> program_pids;
    auto ps = [](double us) { return std::llround(us * 1e6); };
    for (const JsonValue &e : doc["traceEvents"].items()) {
        Row row{e.get_i64("pid"), e.get_i64("tid")};
        if (e.get_string("name") == "thread_name")
            track[row] = e["args"].get_string("name");
        if (e.get_string("ph") != "X")
            continue;
        if (e.get_string("cat") != "net" && track[row] != "program")
            continue;
        if (track[row] == "program")
            program_pids.insert(row.first);
        int64_t start = ps(e.get_double("ts"));
        rows[row].emplace_back(start, start + ps(e.get_double("dur")));
    }
    EXPECT_EQ(program_pids, (std::set<int64_t>{0, 1}));
    std::set<int64_t> pids;
    size_t spans = 0, overlaps = 0;
    for (auto &[row, intervals] : rows) {
        pids.insert(row.first);
        std::sort(intervals.begin(), intervals.end());
        spans += intervals.size();
        for (size_t i = 1; i < intervals.size(); ++i)
            overlaps += intervals[i].first < intervals[i - 1].second;
    }
    EXPECT_GE(pids.size(), 3u); // both clients and a server
    EXPECT_GT(spans, 1000u);
    EXPECT_EQ(overlaps, 0u);
}

TEST(Tracer, FaultTimelineMentionsFaults)
{
    obs::Tracer tracer;
    run_traced(tracer);
    std::ostringstream os;
    obs::write_fault_timeline(os, tracer, 2);
    EXPECT_NE(os.str().find("fault"), std::string::npos);
    EXPECT_NE(os.str().find("demand"), std::string::npos);
}

TEST(Metrics, RegistryFindsAndSnapshots)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("a.count");
    c.inc();
    c.inc(2);
    EXPECT_EQ(c.value(), 3u);
    // find-or-create returns the same object.
    EXPECT_EQ(&reg.counter("a.count"), &c);
    reg.gauge("a.gauge").set(1.5);
    obs::Distribution &d = reg.distribution("a.dist");
    d.add(1.0);
    d.add(3.0);

    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    bool saw_counter = false;
    for (const auto &m : snap) {
        if (m.name == "a.count") {
            saw_counter = true;
            EXPECT_EQ(m.kind, obs::MetricKind::Counter);
            EXPECT_DOUBLE_EQ(m.value, 3.0);
        }
    }
    EXPECT_TRUE(saw_counter);
}

TEST(Metrics, JsonRoundTripsThroughReport)
{
    obs::Tracer tracer;
    SimResult r = run_traced(tracer);
    ASSERT_FALSE(r.metrics.empty());

    // The metrics block alone is valid JSON...
    std::ostringstream ms;
    obs::write_metrics_json(ms, r.metrics);
    EXPECT_TRUE(JsonChecker(ms.str()).valid());

    // ...and survives embedding in the full result report.
    std::ostringstream os;
    write_result_json(os, r);
    std::string json = os.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << "invalid report JSON";
    std::string expect = "\"sim.page_faults\":" +
                         std::to_string(r.page_faults);
    EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
    EXPECT_NE(json.find(expect), std::string::npos);
    EXPECT_NE(json.find("\"net.messages\":"), std::string::npos);
    EXPECT_NE(json.find("\"sim.fault_wait_ns\":"), std::string::npos);
}

Options
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return Options(static_cast<int>(args.size()),
                   const_cast<char **>(args.data()));
}

/** Stderr of a small gdb run under a session parsed from @p args. */
std::string
session_stderr(std::vector<const char *> args, uint64_t &dropped)
{
    Options opts = parse(std::move(args));
    obs::ObsSession obs(opts);
    opts.reject_unused();
    Experiment ex;
    ex.app = "gdb";
    ex.scale = 0.01;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    ex.run(obs);
    std::string err = ::testing::internal::GetCapturedStderr();
    std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("demand"), std::string::npos) << out;
    dropped = obs.tracer()->dropped();
    return err;
}

TEST(ObsSession, OverflowedTimelineRunWarns)
{
    // No --trace-out: the timeline alone must still say that it
    // starts after spans the ring dropped.
    uint64_t dropped = 0;
    std::string err = session_stderr(
        {"--trace-timeline=1", "--trace-spans=64"}, dropped);
    EXPECT_GT(dropped, 0u);
    EXPECT_NE(err.find("trace ring overflowed"), std::string::npos)
        << err;

    err = session_stderr({"--trace-timeline=1"}, dropped);
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(err.find("trace ring overflowed"), std::string::npos)
        << err;
}

TEST(Logging, SetQuietReturnsPrevious)
{
    bool orig = set_quiet(true);
    EXPECT_TRUE(set_quiet(false));
    EXPECT_FALSE(set_quiet(orig));
}

} // namespace
} // namespace sgms
