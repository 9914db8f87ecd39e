/**
 * @file
 * Human-readable formatting/parsing of byte sizes and times.
 */

#ifndef SGMS_COMMON_UNITS_H
#define SGMS_COMMON_UNITS_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace sgms
{

/** Format a byte count as "256B", "1K", "8K", "4M", ... */
std::string format_bytes(uint64_t bytes);

/**
 * Parse "256", "256B", "1K", "8k", "2M", "1G" into a byte count.
 * fatal() on an empty or malformed string, a sign, a second suffix
 * character, or a count past 64 bits; the message starts with
 * @p what (Options passes "option --NAME").
 */
uint64_t parse_bytes(const std::string &text,
                     const std::string &what = "parse_bytes");

/** Format ticks as a millisecond string, e.g. "1.48 ms". */
std::string format_ms(Tick t, int precision = 2);

/** Format ticks as a microsecond string, e.g. "520 us". */
std::string format_us(Tick t, int precision = 0);

} // namespace sgms

#endif // SGMS_COMMON_UNITS_H
