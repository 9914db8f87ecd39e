/**
 * @file
 * Declarative description of everything that goes wrong in a run.
 *
 * A FaultPlan is a seeded, deterministic schedule of network and
 * server failures: per-message-kind loss and corruption
 * probabilities, duplicate deliveries, and per-server fail/recover
 * windows in simulated time. The plan is pure data — the
 * FaultInjector (fault_injector.h) draws the actual outcomes from a
 * PRNG seeded by the plan, so the same plan + seed reproduces the
 * same faults event-for-event.
 *
 * The RetryPolicy describes how the GMS fetch protocol reacts:
 * per-attempt timeouts derived from the calibrated network model,
 * bounded retries with exponential backoff and seeded jitter, and
 * degradation to the local disk when retries are exhausted or the
 * owning server is down.
 *
 * Both parse from a compact "key=value,key=value" spec, exposed as
 * --faults=SPEC on every tool and as the SGMS_FAULTS environment
 * variable (the flag wins). See parse() for the key list.
 */

#ifndef SGMS_FAULT_FAULT_PLAN_H
#define SGMS_FAULT_FAULT_PLAN_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/params.h"

namespace sgms::fault
{

/** One scheduled outage of a server node, in simulated time. */
struct ServerOutage
{
    NodeId server = 0;          ///< node id (servers are 1..N)
    Tick fail_at = 0;           ///< start of the outage
    Tick recover_at = TICK_MAX; ///< end; TICK_MAX = never recovers

    bool
    covers(Tick t) const
    {
        return t >= fail_at && t < recover_at;
    }
};

/** Seeded fault schedule; all-zero (the default) means "off". */
struct FaultPlan
{
    /** Seed of the injector's PRNG streams. */
    uint64_t seed = 1;

    /** Per-kind probability a message is lost on the wire. */
    double loss_prob[kMsgKindCount] = {};

    /**
     * Per-kind probability a message arrives corrupted: it occupies
     * every stage and pays the receive cost, but the receiver
     * discards the payload, so the data never lands.
     */
    double corrupt_prob[kMsgKindCount] = {};

    /** Probability a delivered message is delivered a second time. */
    double duplicate_prob = 0.0;

    /** Scheduled server fail/recover windows. */
    std::vector<ServerOutage> outages;

    /** True if any probability is nonzero or any outage scheduled. */
    bool enabled() const;

    /** Set the loss probability of every message kind. */
    void set_loss(double p);

    /** Set the corruption probability of every message kind. */
    void set_corrupt(double p);

    /**
     * Parse a comma-separated "key=value" spec. Keys:
     *   seed=N                injector PRNG seed
     *   loss=P                loss probability, all kinds
     *   loss-<kind>=P         per-kind loss (request, demand,
     *                         background, putpage)
     *   corrupt=P             corruption probability, all kinds
     *   corrupt-<kind>=P      per-kind corruption
     *   duplicate=P           duplicate-delivery probability
     *   down=S:F[:R]          server node S fails at F ms and
     *                         recovers at R ms (omitted R = never);
     *                         repeatable
     * fatal() on an unknown key or a value that does not fit its
     * field: a probability outside 0..1 or NaN, an outage time that
     * is negative, not finite or past a Tick, a server id past a
     * NodeId. The message names @p source (the flag or environment
     * variable the spec came from) and the token.
     */
    static FaultPlan parse(const std::string &spec,
                           const char *source = "fault plan");
};

/** Timeout / retry / degradation policy for reliable fetches. */
struct RetryPolicy
{
    /** Total tries per fetch (first attempt + retries). */
    uint32_t max_attempts = 4;

    /**
     * Per-attempt timeout = multiplier x the calibrated analytic
     * latency of the attempt's transfer plan (NetParams::
     * demand_fetch_latency), clamped below by min_timeout. The
     * margin absorbs queueing behind other traffic without treating
     * ordinary congestion as loss.
     */
    double timeout_multiplier = 3.0;
    Tick min_timeout = ticks::from_us(500);

    /** Exponential backoff base between attempts. */
    double backoff_base = 2.0;

    /**
     * Jitter: the backoff delay is scaled by a uniform draw in
     * [1 - jitter_frac, 1 + jitter_frac] from the injector's seeded
     * stream, so retries are de-synchronized but reproducible.
     */
    double jitter_frac = 0.25;

    /**
     * How long a server stays marked failed in the GMS directory
     * after a fetch from it exhausted its retries (faults on its
     * pages go straight to disk until then).
     */
    Tick quarantine = ticks::from_ms(50);

    /** Per-attempt timeout for a plan of @p bytes total. */
    Tick timeout_for(const NetParams &net, uint32_t bytes) const;

    /**
     * Backoff delay before retry attempt @p attempt (2 = first
     * retry). @p jitter_u is a uniform [0,1) draw.
     */
    Tick backoff_delay(uint32_t attempt, Tick base_timeout,
                       double jitter_u) const;
};

} // namespace sgms::fault

#endif // SGMS_FAULT_FAULT_PLAN_H
