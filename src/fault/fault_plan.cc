#include "fault/fault_plan.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/options.h"

namespace sgms::fault
{

namespace
{

/** One "key=value" token of a spec, and where the spec came from. */
struct Token
{
    const char *source;
    const std::string &text;
};

[[noreturn]] void
reject(const Token &tok, const char *why)
{
    fatal("%s: %s in '%s'", tok.source, why, tok.text.c_str());
}

/** The MsgKind named by a per-kind key's @p suffix. */
size_t
kind_of_suffix(const Token &tok, const std::string &suffix)
{
    for (size_t k = 0; k < kMsgKindCount; ++k) {
        if (suffix == msg_kind_name(static_cast<MsgKind>(k)))
            return k;
    }
    reject(tok, "unknown message kind");
}

double
parse_prob(const Token &tok, const std::string &value)
{
    double p = 0;
    // Written so that NaN fails too.
    if (!parse_number(value, p) || !(p >= 0.0 && p <= 1.0))
        reject(tok, "bad probability (need 0..1)");
    return p;
}

uint64_t
parse_u64(const Token &tok, const std::string &value)
{
    uint64_t v = 0;
    if (!parse_number(value, v))
        reject(tok, "bad integer");
    return v;
}

/**
 * Fractional milliseconds as a Tick: finite, not negative, and
 * below 2^63 ps, so the conversion is defined.
 */
Tick
parse_ms(const Token &tok, const std::string &value)
{
    double ms = 0;
    if (!parse_number(value, ms) ||
        !(ms >= 0.0 && ms * static_cast<double>(ticks::MS) < 0x1p63))
        reject(tok, "bad outage time (need finite, >= 0 ms, within a tick)");
    return ticks::from_ms(ms);
}

/** "S:F[:R]" with F/R in fractional milliseconds. */
ServerOutage
parse_outage(const Token &tok, const std::string &value)
{
    ServerOutage o;
    size_t c1 = value.find(':');
    if (c1 == std::string::npos)
        reject(tok, "bad outage (need server:fail[:recover])");
    size_t c2 = value.find(':', c1 + 1);
    uint64_t server = parse_u64(tok, value.substr(0, c1));
    if (server > std::numeric_limits<NodeId>::max())
        reject(tok, "server id does not fit a node id");
    o.server = static_cast<NodeId>(server);
    o.fail_at = parse_ms(tok, value.substr(c1 + 1, c2 == std::string::npos
                                                       ? std::string::npos
                                                       : c2 - c1 - 1));
    if (c2 != std::string::npos) {
        o.recover_at = parse_ms(tok, value.substr(c2 + 1));
        if (o.recover_at < o.fail_at)
            reject(tok, "outage recovers before it fails");
    }
    return o;
}

/**
 * @p t ticks, clamped to [0, TICK_MAX]: casting a double past the
 * range of Tick is undefined, and a large enough multiplier or
 * backoff base gets there.
 */
Tick
saturating_ticks(double t)
{
    if (!(t > 0))
        return 0;
    if (t >= static_cast<double>(TICK_MAX))
        return TICK_MAX;
    return static_cast<Tick>(t);
}

} // namespace

bool
FaultPlan::enabled() const
{
    if (duplicate_prob > 0.0 || !outages.empty())
        return true;
    for (size_t k = 0; k < kMsgKindCount; ++k) {
        if (loss_prob[k] > 0.0 || corrupt_prob[k] > 0.0)
            return true;
    }
    return false;
}

void
FaultPlan::set_loss(double p)
{
    std::fill(loss_prob, loss_prob + kMsgKindCount, p);
}

void
FaultPlan::set_corrupt(double p)
{
    std::fill(corrupt_prob, corrupt_prob + kMsgKindCount, p);
}

FaultPlan
FaultPlan::parse(const std::string &spec, const char *source)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        std::string text = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? spec.size() : comma + 1;
        if (text.empty())
            continue;
        const Token tok{source, text};
        size_t eq = text.find('=');
        if (eq == std::string::npos)
            reject(tok, "not key=value");
        std::string key = text.substr(0, eq);
        std::string value = text.substr(eq + 1);
        if (key == "seed") {
            plan.seed = parse_u64(tok, value);
        } else if (key == "loss") {
            plan.set_loss(parse_prob(tok, value));
        } else if (key == "corrupt") {
            plan.set_corrupt(parse_prob(tok, value));
        } else if (key == "duplicate") {
            plan.duplicate_prob = parse_prob(tok, value);
        } else if (key == "down") {
            plan.outages.push_back(parse_outage(tok, value));
        } else if (key.rfind("loss-", 0) == 0) {
            size_t k = kind_of_suffix(tok, key.substr(5));
            plan.loss_prob[k] = parse_prob(tok, value);
        } else if (key.rfind("corrupt-", 0) == 0) {
            size_t k = kind_of_suffix(tok, key.substr(8));
            plan.corrupt_prob[k] = parse_prob(tok, value);
        } else {
            reject(tok, "unknown key");
        }
    }
    return plan;
}

Tick
RetryPolicy::timeout_for(const NetParams &net, uint32_t bytes) const
{
    Tick expected = net.demand_fetch_latency(bytes);
    Tick timeout = saturating_ticks(timeout_multiplier *
                                    static_cast<double>(expected));
    return std::max(timeout, min_timeout);
}

Tick
RetryPolicy::backoff_delay(uint32_t attempt, Tick base_timeout,
                           double jitter_u) const
{
    SGMS_ASSERT(attempt >= 2);
    double factor = 1.0;
    for (uint32_t i = 2; i < attempt; ++i)
        factor *= backoff_base;
    double scale =
        1.0 + jitter_frac * (2.0 * jitter_u - 1.0);
    return saturating_ticks(static_cast<double>(base_timeout) * factor *
                            scale);
}

} // namespace sgms::fault
