/**
 * @file
 * Experiment runner helpers shared by the benches and examples.
 *
 * Encapsulates the paper's experimental conventions: memory
 * configurations are expressed as fractions of an application's
 * footprint ("full-mem", "1/2-mem", "1/4-mem"), policies are labelled
 * disk_8192 / p_8192 / sp_<size>, and the global cache is warm.
 */

#ifndef SGMS_CORE_EXPERIMENT_H
#define SGMS_CORE_EXPERIMENT_H

#include <string>
#include <vector>

#include "core/sim_config.h"
#include "core/sim_result.h"
#include "obs/session.h"
#include "sim/kernel.h"
#include "trace/apps.h"

namespace sgms
{

/** The paper's three memory configurations. */
enum class MemConfig
{
    Full,    ///< as much memory as the program needs
    Half,    ///< half the maximum
    Quarter, ///< one quarter of the maximum
};

const char *mem_config_name(MemConfig m);

/**
 * The configuration @p word names: full, half or quarter. fatal()
 * naming @p what (a flag or positional argument) on any other word.
 */
MemConfig parse_mem_config(const std::string &word,
                           const std::string &what);

/** Resident-set capacity in pages for @p mem given a footprint. */
size_t mem_pages_for(MemConfig mem, uint64_t footprint_pages);

/**
 * Footprint (pages) of an application model at a scale: the pages
 * its seed-1 trace touches. Memory sizes are pinned to seed 1's
 * footprint on purpose, so a point gets the same full, half and
 * quarter memory at every trace seed (DESIGN.md §13).
 *
 * Memoized by (app, scale, page_size), since measuring it means
 * reading the whole trace once. Each key is measured once; concurrent
 * callers of other keys measure theirs meanwhile. @p replay_seed is
 * the seed the caller goes on to replay, and only decides where the
 * first measurement of a key reads seed 1's trace: at seed 1 from the
 * trace store, whose copy the run then replays; at any other seed
 * from one streamed generation pass, which stores and bakes nothing.
 * So a process that sizes a seed-N point and later replays seed 1
 * generates seed 1 twice.
 */
uint64_t app_footprint_pages(const std::string &app, double scale,
                             uint32_t page_size = 8192,
                             uint64_t replay_seed = 1);

/**
 * Footprint (pages) of a baked SGMB trace file; memoized by the
 * header's payload hash, since measuring it means replaying the
 * mapping once. A path baked again with another trace reads afresh.
 */
uint64_t file_footprint_pages(const std::string &path,
                              uint32_t page_size = 8192);

/** One experiment: app x policy x subpage size x memory config. */
struct Experiment
{
    std::string app = "modula3";
    double scale = 1.0;
    uint64_t seed = 1;

    /**
     * When non-empty: replay this baked SGMB trace file (zero-copy
     * mmap, trace/mmap_trace.h) instead of the synthetic model named
     * by app/scale/seed, which then serve only as labels. This is
     * the real-trace ingestion path (`--trace-bin=FILE`); the result
     * cache keys on the file's header hash, so a re-baked file is a
     * different point. Must be SGMB (make one with trace_tool).
     */
    std::string trace_bin;

    /** "disk", "fullpage", "eager", "pipelining", ... */
    std::string policy = "eager";

    /** Subpage size; ignored for disk/fullpage (always 8K). */
    uint32_t subpage_size = 1024;

    MemConfig mem = MemConfig::Half;

    /**
     * Concurrent faulting clients sharing the simulated cluster
     * (base.clients mirrored up for sweeps). 1 is the paper's
     * single-client setup; with N > 1 each client replays the same
     * trace rotated to a different starting offset (client c starts
     * at event len*c/N) so the working sets collide without being
     * lock-step identical.
     */
    uint32_t clients = 1;

    /**
     * Base configuration; policy/subpage/mem fields are filled in by
     * run(). Lets callers override network parameters, protection
     * mode, replacement policy, etc.
     */
    SimConfig base;

    /** Paper-style label, e.g. "sp_1024", "p_8192", "disk_8192". */
    std::string label() const;

    /** Build the final SimConfig. */
    SimConfig config() const;

    /**
     * The trace this experiment replays: an mmap cursor when
     * trace_bin is set, the shared trace store otherwise.
     */
    std::unique_ptr<TraceSource> trace() const;

    /**
     * Per-client trace cursors for the simulator: client c gets the
     * experiment trace rotated to offset len*c/N. At n=1 this is the
     * unrotated trace() in a one-element vector.
     */
    std::vector<std::unique_ptr<TraceSource>> client_traces(uint32_t n) const;

    /** Run it. */
    SimResult run() const;

    /**
     * Run it under an observability session: the session's tracer is
     * attached for the run and its end-of-run reporting (metrics
     * table, fault timeline, trace file) fires before returning.
     */
    SimResult run(const obs::ObsSession &obs) const;
};

/**
 * Read the trace scale from SGMS_SCALE (for quick bench runs),
 * falling back to @p fallback.
 */
double scale_from_env(double fallback = 1.0);

} // namespace sgms

#endif // SGMS_CORE_EXPERIMENT_H
