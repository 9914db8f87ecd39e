/**
 * @file
 * Execution-engine knobs and their CLI/environment wiring.
 *
 * Every driver resolves an ExecOptions the same way, layered
 * flag-over-environment-over-default:
 *
 *   --jobs=N        worker threads; 0 = all hardware threads.
 *                   Env: SGMS_JOBS. Default 1 (serial fast path).
 *   --workers=N     forked worker *processes*; takes precedence over
 *                   --jobs when nonzero. 0 on the flag means all
 *                   hardware threads. Env: SGMS_WORKERS (unset or 0 =
 *                   stay in-process). Output is byte-identical to the
 *                   serial path at any worker count.
 *                   A thread or process count that does not fit an
 *                   `unsigned` is fatal, on the flag and in the env.
 *   --cache-dir=D   result-cache directory; giving it enables the
 *                   cache. Env: SGMS_CACHE_DIR. Default .sgms-cache/.
 *   --no-cache      disable the result cache for this run.
 *   SGMS_CACHE=1    enable the cache (0 disables); default off, so a
 *                   code change without a schema bump can never
 *                   silently serve stale results to a casual run.
 *                   The cache is unbounded: delete the directory to
 *                   reclaim its space.
 *
 * Benches (bench/bench_common.h) run under env control alone, so
 * `SGMS_JOBS=8 SGMS_CACHE=1 ./build/bench/fig9_summary` parallelizes
 * and caches any bench with no per-bench code.
 */

#ifndef SGMS_EXEC_EXEC_OPTIONS_H
#define SGMS_EXEC_EXEC_OPTIONS_H

#include <string>

#include "common/options.h"

namespace sgms::exec
{

/** A sensible default worker count for this machine (>= 1). */
unsigned hardware_workers();

struct ExecOptions
{
    /** Worker threads for grid runs; 1 = serial in-caller. */
    unsigned jobs = 1;

    /** Forked worker processes; 0 = in-process (threads/serial). */
    unsigned workers = 0;

    /** Consult/populate the on-disk result cache. */
    bool cache_enabled = false;

    /** Blob directory for the result cache. */
    std::string cache_dir = ".sgms-cache";

    /**
     * Environment layer only (SGMS_JOBS, SGMS_WORKERS,
     * SGMS_CACHE[_DIR]).
     */
    static ExecOptions from_env();

    /**
     * Flags layered over the environment: --jobs, --workers,
     * --cache-dir, --no-cache (see file header).
     */
    static ExecOptions from_options(const Options &opts);

    /** One-line help text for the flags above. */
    static const char *help();
};

} // namespace sgms::exec

#endif // SGMS_EXEC_EXEC_OPTIONS_H
