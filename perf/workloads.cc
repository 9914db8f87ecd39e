#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "exec/parallel_runner.h"
#include "perf.h"
#include "trace/apps.h"
#include "trace/binfmt.h"

namespace sgms::perf
{

namespace
{

/**
 * paper_sweep trace scale. At 0.02 the five seed-N traces and the
 * five seed-1 traces Experiment::config() measures footprints on fit
 * the default 256 MiB heap budget together, so no store request
 * streams (trace.store_fallbacks reads 0) and the seed-1 duplication
 * shows as trace.store_mb instead.
 */
constexpr double kPaperScale = 0.02;

/** fault_storm references per trace (one fault per ~6 refs). */
constexpr uint64_t kStormRefs = 500'000;

/** cluster_contention references per point, summed over clients. */
constexpr double kClusterRefsPerPoint = 24e6;

/** Engine parallelism: the box's cores, at most four. */
unsigned
engine_width()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : std::min(n, 4u);
}

Workload
paper_sweep(uint64_t seed)
{
    SweepSpec spec;
    spec.apps = app_names();
    spec.mems = {MemConfig::Full, MemConfig::Half, MemConfig::Quarter};
    spec.policies = {"disk", "fullpage", "eager", "pipelining"};
    spec.subpage_sizes = {4096, 2048, 1024, 512, 256};
    spec.scale = kPaperScale;
    spec.seed = seed;
    Workload w;
    w.points = exec::expand_sweep(spec);
    w.exec.jobs = engine_width();
    return w;
}

Workload
fault_storm(uint64_t seed, const std::string &tmp_dir)
{
    Workload w;
    w.trace_file = tmp_dir + "/fault_storm.sgmb";
    w.payload_hash = bake_fault_storm(seed, w.trace_file);
    for (MemConfig mem : {MemConfig::Half, MemConfig::Quarter}) {
        for (const char *policy : {"disk", "fullpage", "eager",
                                   "pipelining"}) {
            Experiment ex;
            ex.app = "fault_storm";
            ex.seed = seed;
            ex.trace_bin = w.trace_file;
            ex.policy = policy;
            ex.subpage_size = 1024;
            ex.mem = mem;
            w.points.push_back(std::move(ex));
        }
    }
    w.exec.workers = engine_width();
    return w;
}

Workload
cluster_contention(uint64_t seed)
{
    // Every point replays about the same number of references, so
    // twelve points pack evenly onto the pool: the app's scale shrinks
    // as its full-size trace or the client count grows.
    Workload w;
    for (const char *app : {"gdb", "modula3", "render"}) {
        double full_refs =
            static_cast<double>(make_app_spec(app, 1.0).total_refs());
        for (uint32_t clients : {16u, 64u}) {
            for (const char *policy : {"eager", "pipelining"}) {
                Experiment ex;
                ex.app = app;
                ex.scale = kClusterRefsPerPoint / (clients * full_refs);
                ex.seed = seed;
                ex.policy = policy;
                ex.subpage_size = 1024;
                ex.mem = MemConfig::Half;
                ex.clients = clients;
                w.points.push_back(std::move(ex));
            }
        }
    }
    w.exec.jobs = engine_width();
    return w;
}

} // namespace

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names = {
        "paper_sweep", "fault_storm", "cluster_contention"};
    return names;
}

WorkloadSpec
fault_storm_spec(uint64_t seed)
{
    // The seed moves the region by a few percent; the generator seed
    // picks every touch. Both keep the fault rate near one per 6
    // references, so simulated totals stay comparable across seeds.
    Rng rng(seed ^ 0x5f0a7e5eedULL);
    WorkloadSpec spec;
    spec.name = "fault_storm";
    spec.hot_pages = 8;
    PhaseSpec ph;
    ph.kind = PhaseSpec::Kind::SparseScan;
    ph.page_lo = spec.hot_pages;
    ph.page_hi = ph.page_lo + 4032 + rng.below(129);
    ph.refs = kStormRefs;
    ph.hot_frac = 0.5;
    ph.write_frac = 0.3;
    ph.touches_per_page = 3;
    spec.phases.push_back(ph);
    return spec;
}

uint64_t
bake_fault_storm(uint64_t seed, const std::string &path)
{
    SyntheticTrace gen(fault_storm_spec(seed), seed);
    uint64_t written = write_bin_trace(gen, path, "fault_storm", 1.0, seed);
    BinTraceHeader hdr;
    std::string error;
    if (!read_bin_header(path, hdr, error))
        fatal("fault_storm: baked trace unreadable: %s", error.c_str());
    if (hdr.ref_count != written || hdr.seed != seed ||
        hdr.app != "fault_storm")
        fatal("fault_storm: header of %s does not match the bake",
              path.c_str());
    return hdr.payload_hash;
}

Workload
make_workload(const std::string &name, uint64_t seed,
              const std::string &tmp_dir)
{
    Workload w;
    if (name == "paper_sweep")
        w = paper_sweep(seed);
    else if (name == "fault_storm")
        w = fault_storm(seed, tmp_dir);
    else if (name == "cluster_contention")
        w = cluster_contention(seed);
    else
        fatal("unknown workload '%s'", name.c_str());
    w.name = name;
    w.seed = seed;
    return w;
}

void
remove_workload_files(const Workload &w)
{
    if (!w.trace_file.empty())
        std::remove(w.trace_file.c_str());
}

void
warm_workload(Workload &w)
{
    // One first request per distinct trace pays its materialization
    // (or mapping) and the footprint memo; every later cursor is free.
    std::map<std::tuple<std::string, double, uint64_t, std::string>,
             uint64_t>
        refs;
    w.trace_refs.clear();
    for (const Experiment &ex : w.points) {
        auto key = std::make_tuple(ex.app, ex.scale, ex.seed, ex.trace_bin);
        auto it = refs.find(key);
        if (it == refs.end()) {
            ex.config(); // footprint memo
            it = refs.emplace(key, ex.trace()->size_hint()).first;
        }
        w.trace_refs.push_back(it->second);
    }
}

} // namespace sgms::perf
