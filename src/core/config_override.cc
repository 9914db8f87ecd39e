#include "core/config_override.h"

#include <cmath>
#include <cstdlib>

#include "common/logging.h"

namespace sgms
{

void
apply_config_overrides(SimConfig &cfg, const Options &opts)
{
    cfg.page_size =
        fit_u32(opts.get_bytes("page", cfg.page_size), "option --page");
    cfg.subpage_size = fit_u32(opts.get_bytes("subpage", cfg.subpage_size),
                               "option --subpage");
    cfg.policy = opts.get("policy", cfg.policy);
    cfg.mem_pages = opts.get_u64("mem-pages", cfg.mem_pages);
    cfg.replacement = opts.get("replacement", cfg.replacement);
    cfg.gms.servers =
        fit_u32(opts.get_u64("servers", cfg.gms.servers), "option --servers");
    if (opts.get_bool("cold"))
        cfg.gms.warm = false;
    if (opts.get_bool("no-putpage"))
        cfg.gms.putpage_traffic = false;
    cfg.gms.server_capacity_pages = opts.get_u64(
        "global-capacity", cfg.gms.server_capacity_pages);
    if (opts.get_bool("software-pal"))
        cfg.protection = ProtectionMode::SoftwarePal;
    if (opts.has("tlb")) {
        cfg.tlb_enabled = true;
        uint64_t entries = opts.get_u64("tlb", 0);
        if (entries > 1) {
            cfg.tlb_entries = fit_u32(entries, "option --tlb");
            cfg.tlb_assoc = cfg.tlb_entries;
        }
    }
    if (opts.get_bool("fifo-network")) {
        cfg.net.priority_scheduling = false;
        cfg.net.preemptive_demand = false;
    }
    if (opts.get_bool("proto-controller")) {
        cfg.net.pipelined_recv_fixed = ticks::from_us(60);
        cfg.net.pipelined_recv_per_byte = ticks::from_ns(31);
    }
    if (opts.has("ns-per-ref")) {
        // 0 is a clock that charges nothing per reference. Written so
        // that NaN fails too.
        double ns = opts.get_double("ns-per-ref", 12.0);
        if (!(ns >= 0.0 && ns * static_cast<double>(ticks::NS) < 0x1p63)) {
            fatal("option --ns-per-ref=%s is not a step in [0, 2^63) ps",
                  opts.get("ns-per-ref").c_str());
        }
        cfg.ns_per_ref = ticks::from_ns(ns);
    }
    // Fault injection: the --faults flag wins over the SGMS_FAULTS
    // environment variable (same spec syntax; fault/fault_plan.h).
    if (opts.has("faults")) {
        cfg.faults =
            fault::FaultPlan::parse(opts.get("faults"), "--faults");
    } else if (const char *env = std::getenv("SGMS_FAULTS");
               env && *env) {
        cfg.faults = fault::FaultPlan::parse(env, "SGMS_FAULTS");
    }
    cfg.retry.max_attempts =
        fit_u32(opts.get_u64("fault-retries", cfg.retry.max_attempts),
                "option --fault-retries");
    cfg.retry.timeout_multiplier = opts.get_double(
        "fault-timeout-mult", cfg.retry.timeout_multiplier);
    if (!std::isfinite(cfg.retry.timeout_multiplier)) {
        fatal("option --fault-timeout-mult=%s is not finite",
              opts.get("fault-timeout-mult").c_str());
    }
}

const char *
config_override_help()
{
    return "config overrides: --page=N --subpage=N --policy=P "
           "--mem-pages=N --replacement=R\n  --servers=N --cold "
           "--no-putpage --global-capacity=N\n"
           "  --software-pal --tlb[=entries] --fifo-network "
           "--proto-controller --ns-per-ref=NS\n"
           "  --faults=SPEC (or SGMS_FAULTS; e.g. "
           "loss=0.05,seed=7,down=1:10:50)\n"
           "  --fault-retries=N --fault-timeout-mult=X";
}

} // namespace sgms
