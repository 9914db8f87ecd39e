/**
 * @file
 * Minimal command-line option parsing for the examples and tools.
 *
 * Supports `--key=value`, `--flag` (value "1"), and positional
 * arguments, plus typed getters with defaults. `apply_overrides`
 * (core/config_override.h) maps recognized keys onto a SimConfig so
 * every example exposes the full simulator configuration without
 * duplicating flag plumbing.
 */

#ifndef SGMS_COMMON_OPTIONS_H
#define SGMS_COMMON_OPTIONS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sgms
{

/** Parsed command line. */
class Options
{
  public:
    Options() = default;

    /** Parse argv; fatal() on malformed options (e.g. "--=x"). */
    Options(int argc, char **argv);

    /** True if --name was given. */
    bool has(const std::string &name) const;

    /** String value of --name, or @p fallback. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Boolean: "--name", "--name=1/true/yes" are true. */
    bool get_bool(const std::string &name, bool fallback = false) const;

    /**
     * Numeric value of --name, or @p fallback. The whole value must
     * be one number: blanks, trailing text, a '+' sign and values
     * out of range are fatal().
     */
    double get_double(const std::string &name, double fallback) const;

    /** As get_double, for a decimal integer; a '-' sign is fatal(). */
    uint64_t get_u64(const std::string &name, uint64_t fallback) const;

    /** Size in bytes; accepts suffixed values ("1K", "8K"). */
    uint64_t get_bytes(const std::string &name,
                       uint64_t fallback) const;

    /** Non-option arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Option names that were never read (typo detection). */
    std::vector<std::string> unused() const;

    /** fatal() on the first option that was never read. */
    void reject_unused() const;

  private:
    std::map<std::string, std::string> values_;
    mutable std::map<std::string, bool> read_;
    std::vector<std::string> positional_;
};

/**
 * Parse all of @p text as one number, by the rules of
 * Options::get_u64 / get_double. False (and @p out unspecified) on
 * anything else. For numeric positional arguments.
 */
bool parse_number(const std::string &text, uint64_t &out);
bool parse_number(const std::string &text, double &out);

/**
 * The tools' checked argument parsers, one per kind. Each reads all
 * of @p text and fatal()s naming @p what on anything else: a flag is
 * named "option --NAME", a positional argument by its usage name.
 * Counts and seeds are parse_u64, scales parse_double (both by the
 * rules of parse_number), sizes parse_size32 (parse_bytes, then
 * fit_u32).
 */
uint64_t parse_u64(const std::string &text, const std::string &what);
double parse_double(const std::string &text, const std::string &what);
uint32_t parse_size32(const std::string &text, const std::string &what);

/** @p v, the value of @p what, as 32 bits; fatal() if it does not fit. */
uint32_t fit_u32(uint64_t v, const std::string &what);

/**
 * Environment-variable getters used by the flag/env layering of the
 * execution engine (`--jobs` over SGMS_JOBS, `--cache-dir` over
 * SGMS_CACHE_DIR, ...): unset and empty both mean "use the fallback".
 */
std::string env_string(const char *name, const std::string &fallback);

/** fatal() on a set-but-malformed integer (mirrors get_u64). */
uint64_t env_u64(const char *name, uint64_t fallback);

} // namespace sgms

#endif // SGMS_COMMON_OPTIONS_H
