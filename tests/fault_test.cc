/**
 * @file
 * Fault-injection and reliability-layer tests: plan parsing, injector
 * determinism, timeout/retry/backoff arithmetic, and whole-run
 * properties — every policy survives lossy networks and server
 * outages, the same seed reproduces the same run, duplicates are
 * suppressed, and the reliable fetch path is timing-transparent when
 * no fault actually fires.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/sim_config.h"
#include "core/sim_result.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/tracer.h"
#include "sim/kernel.h"
#include "trace/synthetic.h"

namespace sgms
{
namespace
{

using fault::FaultInjector;
using fault::FaultPlan;
using fault::MsgFate;
using fault::RetryPolicy;
using fault::ServerOutage;

// ---------------------------------------------------------------
// Plan parsing

TEST(FaultPlan, DefaultIsDisabled)
{
    FaultPlan p;
    EXPECT_FALSE(p.enabled());
    EXPECT_FALSE(FaultPlan::parse("").enabled());
    EXPECT_FALSE(FaultPlan::parse("seed=42").enabled());
}

TEST(FaultPlan, ParseFullSpec)
{
    FaultPlan p = FaultPlan::parse(
        "seed=9,loss=0.05,loss-demand=0.2,corrupt=0.01,"
        "corrupt-putpage=0.3,duplicate=0.02,down=1:10:50,down=2:5");
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.seed, 9u);
    EXPECT_DOUBLE_EQ(
        p.loss_prob[static_cast<size_t>(MsgKind::Request)], 0.05);
    EXPECT_DOUBLE_EQ(
        p.loss_prob[static_cast<size_t>(MsgKind::DemandData)], 0.2);
    EXPECT_DOUBLE_EQ(
        p.corrupt_prob[static_cast<size_t>(MsgKind::Request)], 0.01);
    EXPECT_DOUBLE_EQ(
        p.corrupt_prob[static_cast<size_t>(MsgKind::PutPage)], 0.3);
    EXPECT_DOUBLE_EQ(p.duplicate_prob, 0.02);
    ASSERT_EQ(p.outages.size(), 2u);
    EXPECT_EQ(p.outages[0].server, 1u);
    EXPECT_EQ(p.outages[0].fail_at, ticks::from_ms(10));
    EXPECT_EQ(p.outages[0].recover_at, ticks::from_ms(50));
    EXPECT_EQ(p.outages[1].server, 2u);
    EXPECT_EQ(p.outages[1].recover_at, TICK_MAX);
}

TEST(FaultPlanDeathTest, RejectsUnknownKeysAndBadValues)
{
    EXPECT_EXIT(FaultPlan::parse("bogus=1"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(FaultPlan::parse("loss=notanumber"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(FaultPlan::parse("loss=1.5"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(FaultPlan::parse("loss-nosuchkind=0.1"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(FaultPlan::parse("down=1:50:10"), // recover < fail
                ::testing::ExitedWithCode(1), "");
}

TEST(FaultPlanDeathTest, ValuesThatDoNotFitTheirFieldAreFatal)
{
    // Each of these once parsed: an empty kind suffix wrote index -1
    // of a per-kind array (loss- the seed, corrupt- the last kind's
    // loss), NaN passed the 0..1 test, an outage time of NaN or 1e300
    // went through an out-of-range double-to-Tick cast, and a server
    // id of 2^32 + 1 was truncated to 1. The error names the token.
    const struct
    {
        const char *spec;
        const char *error;
    } cases[] = {
        {"loss-=0.5", "unknown message kind in 'loss-=0.5'"},
        {"corrupt-=0.5", "unknown message kind in 'corrupt-=0.5'"},
        {"loss=nan", "bad probability .* in 'loss=nan'"},
        {"corrupt=nan", "bad probability .* in 'corrupt=nan'"},
        {"duplicate=nan", "bad probability .* in 'duplicate=nan'"},
        {"down=0:nan", "bad outage time .* in 'down=0:nan'"},
        {"down=0:1e300", "bad outage time .* in 'down=0:1e300'"},
        {"down=0:1:inf", "bad outage time .* in 'down=0:1:inf'"},
        {"down=4294967297:1",
         "server id does not fit a node id in 'down=4294967297:1'"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.spec);
        EXPECT_EXIT(FaultPlan::parse(c.spec), ::testing::ExitedWithCode(1),
                    std::string("fault plan: ") + c.error);
    }
}

TEST(FaultPlan, OutageCovers)
{
    ServerOutage o{2, ticks::from_ms(10), ticks::from_ms(20)};
    EXPECT_FALSE(o.covers(ticks::from_ms(9)));
    EXPECT_TRUE(o.covers(ticks::from_ms(10)));
    EXPECT_TRUE(o.covers(ticks::from_ms(19)));
    EXPECT_FALSE(o.covers(ticks::from_ms(20)));
    ServerOutage forever{1, ticks::from_ms(5)};
    EXPECT_TRUE(forever.covers(TICK_MAX - 1));
}

// ---------------------------------------------------------------
// Retry policy arithmetic

TEST(RetryPolicyTest, TimeoutScalesWithCalibratedLatencyAndFloors)
{
    RetryPolicy rp;
    NetParams net = NetParams::an2();
    // Large plans: multiplier x the analytic fetch latency.
    EXPECT_EQ(rp.timeout_for(net, 8192),
              static_cast<Tick>(rp.timeout_multiplier *
                                net.demand_fetch_latency(8192)));
    // The floor binds for tiny transfers with a tiny multiplier.
    RetryPolicy tight;
    tight.timeout_multiplier = 0.001;
    EXPECT_EQ(tight.timeout_for(net, 256), tight.min_timeout);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithBoundedJitter)
{
    RetryPolicy rp;
    Tick base = ticks::from_ms(1);
    // Jitter draw 0.5 means scale exactly 1.0.
    Tick d2 = rp.backoff_delay(2, base, 0.5);
    Tick d3 = rp.backoff_delay(3, base, 0.5);
    Tick d4 = rp.backoff_delay(4, base, 0.5);
    EXPECT_EQ(d2, base);
    EXPECT_EQ(d3, 2 * base);
    EXPECT_EQ(d4, 4 * base);
    // Jitter stays within [1 - f, 1 + f].
    Tick lo = rp.backoff_delay(2, base, 0.0);
    Tick hi = rp.backoff_delay(2, base, 1.0 - 1e-12);
    EXPECT_GE(lo, static_cast<Tick>((1.0 - rp.jitter_frac) * base));
    EXPECT_LE(hi, static_cast<Tick>((1.0 + rp.jitter_frac) * base) + 1);
}

TEST(RetryPolicyTest, TimeoutNeverDecreasesAsTheMultiplierGrows)
{
    // A multiplier past Tick's range once cast to an undefined Tick:
    // 1e300 timed out sooner than 3.
    NetParams net = NetParams::an2();
    RetryPolicy rp;
    Tick prev = 0;
    for (int e = 0; e <= 300; ++e) {
        rp.timeout_multiplier = std::pow(10.0, e);
        Tick t = rp.timeout_for(net, 8192);
        EXPECT_GE(t, prev) << "multiplier 1e" << e;
        prev = t;
    }
    EXPECT_EQ(prev, TICK_MAX);
}

TEST(RetryPolicyTest, BackoffSaturatesAtTheLargestTick)
{
    RetryPolicy rp;
    Tick base = ticks::from_ms(1);
    Tick prev = 0;
    for (uint32_t attempt = 2; attempt < 200; ++attempt) {
        Tick d = rp.backoff_delay(attempt, base, 0.5);
        EXPECT_GE(d, prev) << "attempt " << attempt;
        prev = d;
    }
    EXPECT_EQ(prev, TICK_MAX);
    rp.backoff_base = 1e300;
    EXPECT_EQ(rp.backoff_delay(4, base, 0.5), TICK_MAX);
    EXPECT_EQ(rp.backoff_delay(2, TICK_MAX, 1.0 - 1e-12), TICK_MAX);
}

// ---------------------------------------------------------------
// Injector determinism

TEST(FaultInjectorTest, SameSeedSameFates)
{
    FaultPlan p;
    p.seed = 77;
    p.set_loss(0.3);
    p.set_corrupt(0.1);
    p.duplicate_prob = 0.1;
    FaultInjector a(p), b(p);
    int non_deliver = 0;
    for (int i = 0; i < 2000; ++i) {
        MsgKind k = static_cast<MsgKind>(i % kMsgKindCount);
        MsgFate fa = a.fate(i, k, 0, 1);
        MsgFate fb = b.fate(i, k, 0, 1);
        ASSERT_EQ(fa, fb) << "diverged at draw " << i;
        if (fa != MsgFate::Deliver)
            ++non_deliver;
    }
    // With these probabilities a large minority must be faulted.
    EXPECT_GT(non_deliver, 200);
    EXPECT_EQ(a.dropped(), b.dropped());
    EXPECT_EQ(a.corrupted(), b.corrupted());
    EXPECT_EQ(a.duplicated(), b.duplicated());
}

TEST(FaultInjectorTest, OutageDropsEverythingTouchingTheServer)
{
    FaultPlan p;
    p.outages.push_back({2, ticks::from_ms(10), ticks::from_ms(20)});
    FaultInjector inj(p);
    Tick in = ticks::from_ms(15), out = ticks::from_ms(25);
    EXPECT_EQ(inj.fate(in, MsgKind::Request, 0, 2), MsgFate::Drop);
    EXPECT_EQ(inj.fate(in, MsgKind::DemandData, 2, 0), MsgFate::Drop);
    EXPECT_EQ(inj.fate(in, MsgKind::Request, 0, 1),
              MsgFate::Deliver);
    EXPECT_EQ(inj.fate(out, MsgKind::Request, 0, 2),
              MsgFate::Deliver);
    EXPECT_TRUE(inj.server_down(2, in));
    EXPECT_FALSE(inj.server_down(2, out));
    EXPECT_EQ(inj.recovery_time(2, in), ticks::from_ms(20));
}

// ---------------------------------------------------------------
// Whole-run properties

/** Small but fault-heavy synthetic workload (obs-test's smoke). */
WorkloadSpec
fault_workload()
{
    WorkloadSpec spec;
    spec.name = "fault-smoke";
    spec.hot_pages = 8;

    PhaseSpec sweep;
    sweep.kind = PhaseSpec::Kind::SweepScan;
    sweep.page_lo = 8;
    sweep.page_hi = 72;
    sweep.refs = 64 * 10000;
    sweep.hot_frac = 1.0 - 1.0 / 10000;
    spec.phases.push_back(sweep);

    PhaseSpec dense;
    dense.kind = PhaseSpec::Kind::DenseScan;
    dense.page_lo = 72;
    dense.page_hi = 88;
    dense.stride = 64;
    dense.hot_frac = 0.9;
    dense.refs = 16 * 128 * 10;
    spec.phases.push_back(dense);
    return spec;
}

SimResult
run_with_faults(const std::string &policy, const FaultPlan &plan,
                obs::Tracer *tracer = nullptr)
{
    SimConfig cfg;
    cfg.policy = policy;
    cfg.subpage_size = 1024;
    cfg.mem_pages = 44;
    cfg.faults = plan;
    cfg.tracer = tracer;
    SyntheticTrace trace(fault_workload(), /*seed=*/42);
    Simulator sim(cfg);
    return sim.run(trace);
}

double
metric_value(const SimResult &r, const std::string &name)
{
    for (const auto &m : r.metrics)
        if (m.name == name)
            return m.value;
    return -1.0;
}

FaultPlan
stress_plan()
{
    FaultPlan plan;
    plan.seed = 5;
    plan.set_loss(0.08);
    plan.duplicate_prob = 0.02;
    plan.outages.push_back({1, ticks::from_ms(5), ticks::from_ms(60)});
    return plan;
}

TEST(FaultSim, EveryPolicyCompletesUnderLossAndOutages)
{
    const char *policies[] = {"fullpage",       "lazy",
                              "eager",          "pipelining",
                              "pipelining-all", "pipelining-adaptive"};
    for (const char *policy : policies) {
        SCOPED_TRACE(policy);
        SimResult r = run_with_faults(policy, stress_plan());
        // The run consumed the whole trace and made progress.
        EXPECT_EQ(r.refs, 64u * 10000 + 16 * 128 * 10);
        EXPECT_GT(r.page_faults, 0u);
        EXPECT_GT(r.runtime, 0u);
        // Faults actually happened and the protocol reacted.
        EXPECT_GT(r.net_stats.dropped, 0u);
        EXPECT_GT(r.retries, 0u);
        EXPECT_GT(r.timeouts, 0u);
        // ... and all of it is visible in the metrics snapshot.
        EXPECT_GT(metric_value(r, "fault.msgs_dropped"), 0.0);
        EXPECT_GT(metric_value(r, "gms.retries"), 0.0);
        EXPECT_GT(metric_value(r, "gms.timeouts"), 0.0);
    }
}

TEST(FaultSimDeathTest, TimerPastTheTickRangeIsFatal)
{
    // A lost message under a saturated timeout once wrapped the
    // timer into the past; now the run stops, naming the flag.
    FaultPlan plan;
    plan.seed = 3;
    plan.set_loss(0.2);
    SimConfig cfg;
    cfg.policy = "eager";
    cfg.subpage_size = 1024;
    cfg.mem_pages = 44;
    cfg.faults = plan;
    cfg.retry.timeout_multiplier = 1e300;
    EXPECT_DEATH(
        {
            SyntheticTrace trace(fault_workload(), /*seed=*/42);
            Simulator(cfg).run(trace);
        },
        "passes the simulated clock's range; lower "
        "--fault-timeout-mult");
}

TEST(FaultSim, SameSeedReproducesTheRunExactly)
{
    SimResult a = run_with_faults("pipelining", stress_plan());
    SimResult b = run_with_faults("pipelining", stress_plan());
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.page_faults, b.page_faults);
    EXPECT_EQ(a.net_stats.messages, b.net_stats.messages);
    EXPECT_EQ(a.net_stats.bytes, b.net_stats.bytes);
    EXPECT_EQ(a.net_stats.dropped, b.net_stats.dropped);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.degraded_fetches, b.degraded_fetches);
    EXPECT_EQ(a.duplicate_deliveries, b.duplicate_deliveries);
    EXPECT_EQ(a.server_failures, b.server_failures);
}

TEST(FaultSim, DifferentSeedDiffers)
{
    FaultPlan p1 = stress_plan();
    FaultPlan p2 = stress_plan();
    p2.seed = 6;
    SimResult a = run_with_faults("eager", p1);
    SimResult b = run_with_faults("eager", p2);
    // Same loss rate, different draws: the drop pattern moves.
    EXPECT_NE(a.runtime, b.runtime);
}

TEST(FaultSim, ReliablePathIsTimingTransparentWithoutFaults)
{
    // An enabled plan whose faults essentially never fire must give
    // the exact fault-free timing: the timeout/retry machinery may
    // not perturb a healthy run.
    FaultPlan never;
    never.duplicate_prob = 1e-15;
    ASSERT_TRUE(never.enabled());
    SimResult faulted = run_with_faults("pipelining", never);
    SimResult clean = run_with_faults("pipelining", FaultPlan{});
    EXPECT_EQ(faulted.runtime, clean.runtime);
    EXPECT_EQ(faulted.page_faults, clean.page_faults);
    EXPECT_EQ(faulted.net_stats.messages, clean.net_stats.messages);
    EXPECT_EQ(faulted.retries, 0u);
    EXPECT_EQ(faulted.timeouts, 0u);
}

TEST(FaultSim, DisabledPlanRegistersNoFaultMetrics)
{
    SimResult r = run_with_faults("eager", FaultPlan{});
    for (const auto &m : r.metrics) {
        EXPECT_NE(m.name.rfind("fault.", 0), 0u) << m.name;
        EXPECT_NE(m.name, "gms.retries");
        EXPECT_NE(m.name, "gms.timeouts");
        EXPECT_NE(m.name, "gms.degraded_fetches");
    }
}

TEST(FaultSim, DuplicatesAreDeliveredOnceAndCounted)
{
    FaultPlan plan;
    plan.seed = 11;
    plan.duplicate_prob = 0.5;
    SimResult r = run_with_faults("eager", plan);
    SimResult clean = run_with_faults("eager", FaultPlan{});
    EXPECT_GT(r.net_stats.duplicated, 0u);
    EXPECT_GT(r.duplicate_deliveries, 0u);
    // Duplicate payloads are suppressed: no double-counted faults,
    // and the run still services exactly the same reference stream.
    EXPECT_EQ(r.refs, clean.refs);
    EXPECT_EQ(r.page_faults, clean.page_faults);
}

TEST(FaultSim, OutagesDegradeToDiskAndRecover)
{
    FaultPlan plan;
    plan.seed = 3;
    // Both servers down over the middle of the run, one recovers.
    plan.outages.push_back({1, ticks::from_ms(2), ticks::from_ms(80)});
    plan.outages.push_back({2, ticks::from_ms(2)}); // never recovers
    SimResult r = run_with_faults("pipelining", plan);
    EXPECT_EQ(r.refs, 64u * 10000 + 16 * 128 * 10);
    EXPECT_GT(r.degraded_fetches, 0u);
    EXPECT_GT(r.server_failures, 0u);
    EXPECT_GT(metric_value(r, "gms.degraded_fetches"), 0.0);
}

TEST(FaultSim, RetryAndDegradationSpansAppearInTrace)
{
    obs::Tracer tracer;
    FaultPlan plan = stress_plan();
    SimResult r = run_with_faults("pipelining", plan, &tracer);
    ASSERT_GT(r.retries, 0u);
    bool saw_timeout = false, saw_backoff = false;
    bool saw_fault_instant = false, saw_degraded = false;
    for (const auto &s : tracer.spans()) {
        std::string name = s.name;
        std::string track = s.track;
        if (name == "timeout")
            saw_timeout = true;
        if (name == "retry_backoff")
            saw_backoff = true;
        if (track == "faults" &&
            (name == "drop" || name == "duplicate"))
            saw_fault_instant = true;
        if (name == "degraded_disk" || name == "degraded_lookup" ||
            name == "server_failed")
            saw_degraded = true;
    }
    EXPECT_TRUE(saw_timeout);
    EXPECT_TRUE(saw_backoff);
    EXPECT_TRUE(saw_fault_instant);
    EXPECT_TRUE(saw_degraded);
}

} // namespace
} // namespace sgms
