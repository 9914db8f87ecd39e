/**
 * @file
 * Status and error reporting, in the style of gem5's logging.hh.
 *
 * panic() is for internal invariant violations (simulator bugs): it
 * aborts. fatal() is for user errors (bad configuration): it exits
 * with an error code. warn()/inform() print to stderr and continue.
 *
 * All four accept printf-style format strings.
 */

#ifndef SGMS_COMMON_LOGGING_H
#define SGMS_COMMON_LOGGING_H

namespace sgms
{

/** Abort with a message; use for simulator bugs that should never occur. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a message; use for user/configuration errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning about questionable but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Quiet mode suppresses inform() (benches use it for clean tables).
 * Returns the previous setting so callers can restore it.
 */
bool set_quiet(bool quiet);

/** Helper for SGMS_ASSERT; panics with file/line context. */
[[noreturn]] void assert_fail(const char *expr, const char *file, int line);

/**
 * panic() unless the condition holds.
 * Prefer this over assert() for invariants that must hold in release
 * builds too.
 */
#define SGMS_ASSERT(cond)                                               \
    do {                                                                \
        if (!(cond))                                                    \
            ::sgms::assert_fail(#cond, __FILE__, __LINE__);             \
    } while (0)

} // namespace sgms

#endif // SGMS_COMMON_LOGGING_H
