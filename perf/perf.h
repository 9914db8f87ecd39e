/**
 * @file
 * The SGMS benchmark: workloads, correctness checks, per-layer
 * timings and the output record.
 *
 * Every point runs through the public Experiment / exec::Engine API;
 * nothing here reaches into the simulation kernels directly, so a
 * change that swaps or merges kernels is measured by the same code.
 * Layer timings drive each module's public calls (trace replay,
 * PageTable, FetchPolicy, Network + EventQueue, GmsCluster, result
 * codec, IPC frames) from these files with the workload's own inputs.
 * See perf/README.md for the workloads and the metric catalogue.
 */

#ifndef SGMS_PERF_PERF_H
#define SGMS_PERF_PERF_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/sim_result.h"
#include "exec/exec_options.h"
#include "trace/synthetic.h"

namespace sgms::perf
{

/** Name, unit and direction of one metric the benchmark prints. */
struct MetricSpec
{
    const char *name;
    const char *unit;
    const char *better; ///< "higher" or "lower"
};

/** Metrics of the untraced run, as a user of the simulator sees them. */
const std::vector<MetricSpec> &end_to_end_metrics();

/** Metrics of the traced run, one or more per src/ module. */
const std::vector<MetricSpec> &per_layer_metrics();

/** One measured metric value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The names every workload answers to. */
const std::vector<std::string> &workload_names();

/** A closed batch of points and the engine configuration it runs on. */
struct Workload
{
    std::string name;
    uint64_t seed = 1;
    std::vector<Experiment> points;
    exec::ExecOptions exec;
    /** Each point's (unrotated) trace length; warm_workload fills it. */
    std::vector<uint64_t> trace_refs;
    /** fault_storm: the baked SGMB file and its payload hash. */
    std::string trace_file;
    uint64_t payload_hash = 0;
};

/**
 * Build workload @p name for @p seed. fault_storm bakes its trace
 * into @p tmp_dir; the file is the caller's to remove
 * (remove_workload_files). fatal() on an unknown name.
 */
Workload make_workload(const std::string &name, uint64_t seed,
                       const std::string &tmp_dir);

/** Delete whatever make_workload wrote to disk. */
void remove_workload_files(const Workload &w);

/**
 * Materialize every trace and footprint memo the grid will ask for
 * and fill Workload::trace_refs.
 */
void warm_workload(Workload &w);

/**
 * fault_storm's generator: one SparseScan phase over about 4096
 * pages beside an 8-page hot set, shaped slightly by @p seed.
 */
WorkloadSpec fault_storm_spec(uint64_t seed);

/**
 * Bake fault_storm_spec(@p seed) into @p path as SGMB and validate
 * the header; returns the payload hash. fatal() if the file does not
 * read back as the trace just written.
 */
uint64_t bake_fault_storm(uint64_t seed, const std::string &path);

/** Concurrent faulting clients of a point (1 for single-client). */
uint32_t clients_of(const Experiment &ex);

/**
 * Why @p r fails as the result of @p ex whose trace is @p trace_refs
 * long, or "" when it passes: degraded (exec.degraded), an accounting
 * identity broken (N=1: runtime equals the sum of its components;
 * N>1: runtime <= sum <= clients * runtime), or a reference count
 * other than clients * trace_refs.
 */
std::string check_point(const Experiment &ex, const SimResult &r,
                        uint64_t trace_refs);

/** FNV-1a 64 over every result's exec::result_blob, in grid order. */
uint64_t results_digest(const std::vector<SimResult> &results);

/** Sum of SimResult::runtime over @p results, in seconds. */
double sim_runtime_s(const std::vector<SimResult> &results);

/** Mean FaultRecord::total_wait over every fault, in microseconds. */
double sim_fault_wait_us(const std::vector<SimResult> &results);

/** Outcome of the traced run. */
struct TracedRun
{
    std::vector<Metric> metrics;
    std::vector<std::string> failures; ///< one line per failed point
    uint64_t digest = 0;
};

/**
 * The traced run: one engine pass, then every point inline, then the
 * per-layer drives. @p setup_s is the time make_workload and
 * warm_workload took (the trace layer's set-up).
 */
TracedRun run_traced(const Workload &w, double setup_s);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** The @p q quantile (0..1) of @p v by nearest rank (0 when empty). */
double quantile(std::vector<double> v, double q);

/**
 * Makespan of the longest-first greedy packing of @p times onto
 * @p bins machines: the wall time a perfect scheduler would need.
 */
double lpt_makespan(std::vector<double> times, unsigned bins);

/**
 * The output record as one JSON line: workload, seed, host
 * fingerprint (@p git_sha plus nproc, CPU model, compiler, build
 * type), digest, attempted/failed, @p metrics with units, and
 * @p extra (a JSON object body, may be empty).
 */
std::string record_json(const Workload &w, bool traced,
                        const std::string &git_sha, uint64_t digest,
                        uint64_t attempted, uint64_t failed,
                        const std::vector<Metric> &metrics,
                        const std::string &extra);

} // namespace sgms::perf

#endif // SGMS_PERF_PERF_H
