/**
 * @file
 * Ablation beyond the paper: how the subpage win holds up when the
 * GMS servers are not idle. Two ways of making them busy are put side
 * by side:
 *
 *   analytic   the cluster_load knob injects synthetic foreign
 *              getpage traffic at a target server utilization — the
 *              original single-client approximation
 *   emergent   the simulator (sim/kernel.h) runs N real faulting
 *              clients against the shared servers, so the load is
 *              the clients' own fault traffic
 *
 * For each client count the emergent run's measured server
 *  utilization is fed back into the analytic knob, and the two mean
 * demand-subpage waits are compared. The divergence column is the
 * headline: it quantifies how much the open-loop approximation
 * misses — queueing correlation (clients fault in bursts, synthetic
 * load is smooth) makes the emergent waits longer at equal mean
 * utilization.
 */

#include "bench/bench_common.h"

using namespace sgms;

namespace
{

double
gauge_of(const SimResult &r, const std::string &name)
{
    for (const auto &m : r.metrics)
        if (m.name == name)
            return m.value;
    return 0.0;
}

double
mean_sp_wait_ms(const SimResult &r)
{
    return r.page_faults ? ticks::to_ms(r.sp_latency) /
                               static_cast<double>(r.page_faults)
                         : 0.0;
}

} // namespace

int
main()
{
    double scale = scale_from_env(1.0);
    bench::banner("Ablation",
                  "busy-cluster sensitivity (modula3, 1/2-mem)",
                  scale);

    const std::vector<double> loads = {0.0, 0.2, 0.4, 0.6};
    std::vector<Experiment> points;
    for (double load : loads) {
        Experiment ex;
        ex.app = "modula3";
        ex.scale = scale;
        ex.mem = MemConfig::Half;
        ex.base.cluster_load.server_utilization = load;
        ex.policy = "fullpage";
        points.push_back(ex);
        ex.policy = "eager";
        ex.subpage_size = 1024;
        points.push_back(ex);
    }
    std::vector<SimResult> results = bench::run_batch(points);

    Table t({"server load", "p_8192 (ms)", "sp_1024 (ms)",
             "improvement", "mean sp wait (ms)"});
    for (size_t i = 0; i < loads.size(); ++i) {
        const SimResult &base = results[2 * i];
        const SimResult &eager = results[2 * i + 1];
        double mean_sp =
            eager.page_faults
                ? ticks::to_ms(eager.sp_latency) / eager.page_faults
                : 0;
        t.add_row({Table::fmt_pct(loads[i]), format_ms(base.runtime),
                   format_ms(eager.runtime),
                   Table::fmt_pct(eager.reduction_vs(base)),
                   Table::fmt(mean_sp, 3)});
    }
    t.print(std::cout);
    std::printf("\nexpected: both configurations slow down as servers "
                "busy up, but the\nsubpage advantage persists (demand "
                "priority shields the small demand\ntransfers).\n");

    bench::section("analytic knob vs emergent multi-client contention");
    const std::vector<uint32_t> nclients = {1, 4, 8, 16};
    Table t3({"clients", "measured util", "emergent sp wait (ms)",
              "analytic sp wait (ms)", "divergence"});
    for (uint32_t n : nclients) {
        Experiment em;
        em.app = "modula3";
        em.scale = scale;
        em.mem = MemConfig::Half;
        em.policy = "eager";
        em.subpage_size = 1024;
        em.clients = n;
        SimResult emr = em.run();
        double util =
            std::max({gauge_of(emr, "gms.server_cpu_util_max"),
                      gauge_of(emr, "gms.server_dma_util_max"),
                      gauge_of(emr, "gms.server_wire_util_max")});

        // Closed loop: hand the emergent utilization to the analytic
        // knob and ask the single-client model for the same point.
        Experiment an;
        an.app = "modula3";
        an.scale = scale;
        an.mem = MemConfig::Half;
        an.policy = "eager";
        an.subpage_size = 1024;
        an.base.cluster_load.server_utilization = util;
        SimResult anr = an.run();

        double esp = mean_sp_wait_ms(emr);
        double asp = mean_sp_wait_ms(anr);
        double div = asp > 0 ? esp / asp - 1.0 : 0.0;
        t3.add_row({Table::fmt_int(n), Table::fmt_pct(util),
                    Table::fmt(esp, 3), Table::fmt(asp, 3),
                    Table::fmt_pct(div)});
    }
    t3.print(std::cout);
    std::printf("\ndivergence = emergent / analytic - 1 at equal mean "
                "server utilization.\nPositive divergence means real "
                "interleaved clients queue worse than the\nsmooth "
                "synthetic load predicts (bursty arrivals); the knob "
                "remains a\ncheap lower bound, not a substitute.\n");

    bench::section("adaptive pipelining (future-work extension)");
    const std::vector<const char *> policies = {
        "eager", "pipelining", "pipelining-all",
        "pipelining-adaptive"};
    Experiment ex;
    ex.app = "modula3";
    ex.scale = scale;
    ex.mem = MemConfig::Half;
    ex.subpage_size = 1024;
    std::vector<Experiment> adaptive_points;
    ex.policy = "fullpage";
    adaptive_points.push_back(ex);
    for (const char *pol : policies) {
        ex.policy = pol;
        adaptive_points.push_back(ex);
    }
    std::vector<SimResult> adaptive_results =
        bench::run_batch(adaptive_points);

    Table t2({"policy", "runtime (ms)", "vs p_8192"});
    const SimResult &abase = adaptive_results[0];
    for (size_t k = 0; k < policies.size(); ++k) {
        const SimResult &r = adaptive_results[1 + k];
        t2.add_row({policies[k], format_ms(r.runtime),
                    Table::fmt_pct(r.reduction_vs(abase))});
    }
    t2.print(std::cout);
    std::printf("expected: adaptive ordering matches or beats the "
                "static +-distance\norder once it has learned the "
                "workload's next-subpage distribution.\n");
    return 0;
}
