#include "common/units.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace sgms
{

std::string
format_bytes(uint64_t bytes)
{
    char buf[32];
    if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0)
        std::snprintf(buf, sizeof(buf), "%lluM",
                      static_cast<unsigned long long>(bytes >> 20));
    else if (bytes >= 1024 && bytes % 1024 == 0)
        std::snprintf(buf, sizeof(buf), "%lluK",
                      static_cast<unsigned long long>(bytes >> 10));
    else
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

uint64_t
parse_bytes(const std::string &text, const std::string &what)
{
    const char *str = text.c_str();
    if (text.empty())
        fatal("%s: empty size string", what.c_str());
    // strtoull would take a sign (and wrap a negative count) or
    // leading blanks: a size starts with a digit.
    if (!std::isdigit(static_cast<unsigned char>(str[0])))
        fatal("%s: bad size string '%s'", what.c_str(), str);
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(str, &end, 10);
    uint64_t mult = 1;
    if (*end) {
        switch (std::toupper(static_cast<unsigned char>(*end))) {
          case 'B':
            mult = 1;
            break;
          case 'K':
            mult = 1024;
            break;
          case 'M':
            mult = 1024 * 1024;
            break;
          case 'G':
            mult = 1024ULL * 1024 * 1024;
            break;
          default:
            fatal("%s: bad size suffix in '%s'", what.c_str(), str);
        }
        if (end[1])
            fatal("%s: bad size suffix in '%s'", what.c_str(), str);
    }
    uint64_t bytes = 0;
    if (errno == ERANGE || __builtin_mul_overflow(v, mult, &bytes))
        fatal("%s: size '%s' does not fit 64 bits", what.c_str(), str);
    return bytes;
}

std::string
format_ms(Tick t, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f ms", precision,
                  ticks::to_ms(t));
    return buf;
}

std::string
format_us(Tick t, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f us", precision,
                  ticks::to_us(t));
    return buf;
}

} // namespace sgms
