#include "common/options.h"

#include <charconv>
#include <cstdlib>

#include "common/logging.h"
#include "common/units.h"

namespace sgms
{

namespace
{

template <typename T>
bool
parse_whole(const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    auto [p, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && p == end;
}

} // namespace

bool
parse_number(const std::string &text, uint64_t &out)
{
    return parse_whole(text, out);
}

bool
parse_number(const std::string &text, double &out)
{
    return parse_whole(text, out);
}

uint64_t
parse_u64(const std::string &text, const std::string &what)
{
    uint64_t v = 0;
    if (!parse_number(text, v))
        fatal("%s: bad integer '%s'", what.c_str(), text.c_str());
    return v;
}

double
parse_double(const std::string &text, const std::string &what)
{
    double v = 0;
    if (!parse_number(text, v))
        fatal("%s: bad number '%s'", what.c_str(), text.c_str());
    return v;
}

uint32_t
parse_size32(const std::string &text, const std::string &what)
{
    return fit_u32(parse_bytes(text, what), what);
}

uint32_t
fit_u32(uint64_t v, const std::string &what)
{
    if (v > UINT32_MAX) {
        fatal("%s=%llu does not fit 32 bits", what.c_str(),
              static_cast<unsigned long long>(v));
    }
    return static_cast<uint32_t>(v);
}

Options::Options(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        if (body.empty())
            fatal("malformed option '%s'", arg.c_str());
        auto eq = body.find('=');
        if (eq == std::string::npos) {
            values_[body] = "1";
        } else {
            std::string key = body.substr(0, eq);
            if (key.empty())
                fatal("malformed option '%s'", arg.c_str());
            values_[key] = body.substr(eq + 1);
        }
    }
}

bool
Options::has(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return false;
    read_[name] = true;
    return true;
}

std::string
Options::get(const std::string &name, const std::string &fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    read_[name] = true;
    return it->second;
}

bool
Options::get_bool(const std::string &name, bool fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    read_[name] = true;
    const std::string &v = it->second;
    return v == "1" || v == "true" || v == "yes" || v == "on";
}

double
Options::get_double(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    read_[name] = true;
    return parse_double(it->second, "option --" + name);
}

uint64_t
Options::get_u64(const std::string &name, uint64_t fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    read_[name] = true;
    return parse_u64(it->second, "option --" + name);
}

uint64_t
Options::get_bytes(const std::string &name, uint64_t fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    read_[name] = true;
    return parse_bytes(it->second, "option --" + name);
}

std::string
env_string(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return (v && *v) ? std::string(v) : fallback;
}

uint64_t
env_u64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return parse_u64(v, name);
}

std::vector<std::string>
Options::unused() const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : values_) {
        if (!read_.count(key))
            out.push_back(key);
    }
    return out;
}

void
Options::reject_unused() const
{
    std::vector<std::string> names = unused();
    if (!names.empty())
        fatal("unknown or unused option --%s", names[0].c_str());
}

} // namespace sgms
