/**
 * @file
 * Tests of the benchmark itself: metric names, the output record, the
 * correctness checks and the fault_storm generator. Scratch files go
 * under perf_test_tmp_* in the working directory and are removed.
 *
 *   cmake --build .bench_build/perf --target perf_test
 *   (cd .bench_build/perf && ctest --output-on-failure)
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "common/json.h"
#include "perf.h"

using namespace sgms;
using namespace sgms::perf;

namespace
{

std::vector<MetricSpec>
all_metrics()
{
    std::vector<MetricSpec> all = end_to_end_metrics();
    const auto &layers = per_layer_metrics();
    all.insert(all.end(), layers.begin(), layers.end());
    return all;
}

/** A small single-client point and its result. */
SimResult
run_small(Experiment &ex, uint32_t clients)
{
    ex.app = "gdb";
    ex.scale = 0.05;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;
    ex.clients = clients;
    return ex.run();
}

} // namespace

TEST(PerfMetrics, NamesAreWellFormedAndUnique)
{
    std::regex allowed("[A-Za-z0-9_.-]+");
    std::set<std::string> seen;
    for (const MetricSpec &m : all_metrics()) {
        EXPECT_TRUE(std::regex_match(m.name, allowed)) << m.name;
        EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
        EXPECT_TRUE(std::string(m.better) == "higher" ||
                    std::string(m.better) == "lower")
            << m.name;
        EXPECT_TRUE(std::regex_match(m.unit, std::regex("[A-Za-z0-9_/%.-]+")))
            << m.unit;
    }
}

TEST(PerfMetrics, MatchBenchmarkJson)
{
    std::ifstream in(SGMS_PERF_BENCHMARK_JSON);
    ASSERT_TRUE(in) << SGMS_PERF_BENCHMARK_JSON;
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue spec;
    ASSERT_TRUE(JsonValue::parse(ss.str(), spec));
    auto same = [](const JsonValue &listed,
                   const std::vector<MetricSpec> &table) {
        ASSERT_EQ(listed.size(), table.size());
        for (size_t i = 0; i < table.size(); ++i) {
            const JsonValue &m = listed.items()[i];
            EXPECT_EQ(m.get_string("name"), table[i].name);
            EXPECT_EQ(m.get_string("unit"), table[i].unit);
            EXPECT_EQ(m.get_string("better"), table[i].better);
        }
    };
    same(spec["end_to_end"], end_to_end_metrics());
    same(spec["per_layer"], per_layer_metrics());
    std::vector<std::string> names;
    for (const JsonValue &w : spec["workloads"].items())
        names.push_back(w.get_string("name"));
    EXPECT_EQ(names, workload_names());
}

TEST(PerfRecord, Parses)
{
    Workload w = make_workload("cluster_contention", 7, "");
    std::vector<Metric> metrics;
    for (const MetricSpec &m : end_to_end_metrics())
        metrics.push_back({m.name, m.unit, 1.0 / 3.0});
    std::string line =
        record_json(w, false, "sha \"quoted\"", 0xabcdef0123456789ULL, 12,
                    1, metrics, "\"passes\":3");
    EXPECT_EQ(line.find('\n'), std::string::npos);
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse(line, v)) << line;
    const JsonValue &rec = v["record"];
    EXPECT_EQ(rec.get_string("workload"), "cluster_contention");
    EXPECT_EQ(rec.get_u64("seed"), 7u);
    EXPECT_EQ(rec.get_string("digest"), "abcdef0123456789");
    EXPECT_EQ(rec.get_u64("attempted"), 12u);
    EXPECT_EQ(rec.get_u64("failed"), 1u);
    EXPECT_EQ(rec.get_u64("passes"), 3u);
    EXPECT_EQ(rec["host"].get_string("git_sha"), "sha \"quoted\"");
    EXPECT_GT(rec["host"].get_u64("nproc"), 0u);
    EXPECT_FALSE(rec["host"].get_string("compiler").empty());
    for (const MetricSpec &m : end_to_end_metrics()) {
        const JsonValue &got = rec["metrics"][m.name];
        EXPECT_EQ(got.get_string("unit"), m.unit);
        EXPECT_DOUBLE_EQ(got.get_double("value"), 1.0 / 3.0);
    }
}

TEST(PerfChecks, AcceptAnHonestSingleClientResult)
{
    Experiment ex;
    SimResult r = run_small(ex, 1);
    uint64_t len = ex.trace()->size_hint();
    EXPECT_EQ(check_point(ex, r, len), "");
}

TEST(PerfChecks, RejectCorruptedSingleClientResults)
{
    Experiment ex;
    const SimResult good = run_small(ex, 1);
    uint64_t len = ex.trace()->size_hint();

    SimResult r = good;
    r.runtime += 1;
    EXPECT_NE(check_point(ex, r, len), "");

    r = good;
    r.page_wait += ticks::NS;
    EXPECT_NE(check_point(ex, r, len), "");

    r = good;
    r.refs -= 1;
    EXPECT_NE(check_point(ex, r, len), "");

    r = good;
    obs::MetricSample degraded;
    degraded.name = "exec.degraded";
    degraded.value = 1.0;
    r.metrics.push_back(degraded);
    EXPECT_EQ(check_point(ex, r, len), "degraded");
}

TEST(PerfChecks, MultiClientBoundsAndRefCount)
{
    Experiment ex;
    const SimResult good = run_small(ex, 4);
    uint64_t len = ex.trace()->size_hint();
    EXPECT_EQ(check_point(ex, good, len), "");

    SimResult r = good;
    r.exec_time = 0; // components now sum below the runtime
    r.sp_latency = 0;
    r.page_wait = 0;
    r.recv_overhead = 0;
    EXPECT_NE(check_point(ex, r, len), "");

    r = good;
    r.exec_time += 4 * r.runtime; // above clients * runtime
    EXPECT_NE(check_point(ex, r, len), "");

    r = good;
    r.refs = len; // one client's worth
    EXPECT_NE(check_point(ex, r, len), "");
}

TEST(PerfChecks, DigestMovesWithAnyResultByte)
{
    Experiment ex;
    std::vector<SimResult> results = {run_small(ex, 1)};
    uint64_t d = results_digest(results);
    EXPECT_EQ(results_digest(results), d);
    results[0].faults.back().page_wait += 1;
    EXPECT_NE(results_digest(results), d);
}

TEST(PerfFaultStorm, SameSeedSameBytesOtherSeedOtherBytes)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path("perf_test_tmp_storm_bake");
    fs::create_directories(dir);
    std::string a = (dir / "a.sgmb").string();
    std::string b = (dir / "b.sgmb").string();
    std::string c = (dir / "c.sgmb").string();
    uint64_t ha = bake_fault_storm(5, a);
    EXPECT_EQ(bake_fault_storm(5, b), ha);
    EXPECT_NE(bake_fault_storm(6, c), ha);
    EXPECT_EQ(fs::file_size(a), fs::file_size(b));
    fs::remove_all(dir);
}

TEST(PerfFaultStorm, WorkloadCleansUpItsTrace)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path("perf_test_tmp_storm_workload");
    fs::create_directories(dir);
    Workload w = make_workload("fault_storm", 3, dir.string());
    EXPECT_EQ(w.points.size(), 8u);
    EXPECT_TRUE(fs::exists(w.trace_file));
    EXPECT_GE(w.exec.workers, 1u);
    remove_workload_files(w);
    EXPECT_FALSE(fs::exists(w.trace_file));
    fs::remove_all(dir);
}

TEST(PerfStats, QuantilesAndPacking)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
    std::vector<double> v = {5, 1, 4, 2, 3, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.9), 9.0);
    EXPECT_DOUBLE_EQ(lpt_makespan({3, 4, 2, 3}, 2), 6.0);
    EXPECT_DOUBLE_EQ(lpt_makespan({1, 1, 1}, 4), 1.0);
}
