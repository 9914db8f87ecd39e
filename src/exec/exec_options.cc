#include "exec/exec_options.h"

#include <limits>
#include <thread>

#include "common/logging.h"

namespace sgms::exec
{

namespace
{

/** @p requested as a thread or process count; fatal() if too wide. */
unsigned
fit_count(uint64_t requested, const char *what)
{
    if (requested > std::numeric_limits<unsigned>::max()) {
        fatal("%s=%llu does not fit a thread or process count", what,
              static_cast<unsigned long long>(requested));
    }
    return static_cast<unsigned>(requested);
}

/** As fit_count, with 0 meaning all hardware threads. */
unsigned
resolve_jobs(uint64_t requested, const char *what)
{
    if (requested == 0)
        return hardware_workers();
    return fit_count(requested, what);
}

} // namespace

unsigned
hardware_workers()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ExecOptions
ExecOptions::from_env()
{
    ExecOptions eo;
    eo.jobs = resolve_jobs(env_u64("SGMS_JOBS", 1), "SGMS_JOBS");
    // In the environment, 0 (or unset) means "stay in-process" —
    // there is no env spelling for "all cores as processes", since a
    // stray variable must never silently fork a fleet.
    eo.workers = fit_count(env_u64("SGMS_WORKERS", 0), "SGMS_WORKERS");
    eo.cache_dir = env_string("SGMS_CACHE_DIR", eo.cache_dir);
    eo.cache_enabled = env_u64("SGMS_CACHE", 0) != 0;
    return eo;
}

ExecOptions
ExecOptions::from_options(const Options &opts)
{
    ExecOptions eo = from_env();
    if (opts.has("jobs"))
        eo.jobs = resolve_jobs(opts.get_u64("jobs", 1), "--jobs");
    if (opts.has("workers")) {
        // On the flag, asking for workers explicitly, 0 = all cores.
        eo.workers =
            resolve_jobs(opts.get_u64("workers", 0), "--workers");
    }
    if (opts.has("cache-dir")) {
        eo.cache_dir = opts.get("cache-dir", eo.cache_dir);
        eo.cache_enabled = true;
    }
    if (opts.get_bool("no-cache"))
        eo.cache_enabled = false;
    return eo;
}

const char *
ExecOptions::help()
{
    return "execution: --jobs=N (0=all cores; SGMS_JOBS) "
           "--workers=N (forked processes; SGMS_WORKERS)\n"
           "  --cache-dir=DIR (SGMS_CACHE_DIR; implies cache on) "
           "--no-cache (SGMS_CACHE=1 enables; default off)";
}

} // namespace sgms::exec
