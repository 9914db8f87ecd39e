#include "common/logging.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace sgms
{

namespace
{
// Atomic so the inform() fast path can check it without taking the
// output lock; the lock still serializes the actual printing.
std::atomic<bool> quiet_mode{false};

/** Serializes all log output, keeping concurrent lines atomic. */
std::mutex log_mutex;

void
vreport(const char *level, const char *fmt, va_list ap)
{
    std::lock_guard<std::mutex> lock(log_mutex);
    std::fprintf(stderr, "%s: ", level);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}
} // namespace

bool
set_quiet(bool quiet)
{
    return quiet_mode.exchange(quiet);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (quiet_mode.load(std::memory_order_relaxed))
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

void
assert_fail(const char *expr, const char *file, int line)
{
    panic("assertion '%s' failed at %s:%d", expr, file, line);
}

} // namespace sgms
