#include "core/config_override.h"

#include <cstdlib>

namespace sgms
{

void
apply_config_overrides(SimConfig &cfg, const Options &opts)
{
    cfg.page_size = static_cast<uint32_t>(
        opts.get_bytes("page", cfg.page_size));
    cfg.subpage_size = static_cast<uint32_t>(
        opts.get_bytes("subpage", cfg.subpage_size));
    cfg.policy = opts.get("policy", cfg.policy);
    cfg.mem_pages = opts.get_u64("mem-pages", cfg.mem_pages);
    cfg.replacement = opts.get("replacement", cfg.replacement);
    cfg.gms.servers = static_cast<uint32_t>(
        opts.get_u64("servers", cfg.gms.servers));
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
            cfg.tlb_entries = static_cast<uint32_t>(entries);
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
        cfg.ns_per_ref =
            ticks::from_ns(opts.get_double("ns-per-ref", 12.0));
    }
    // Fault injection: the --faults flag wins over the SGMS_FAULTS
    // environment variable (same spec syntax; fault/fault_plan.h).
    if (opts.has("faults")) {
        cfg.faults = fault::FaultPlan::parse(opts.get("faults"));
    } else if (const char *env = std::getenv("SGMS_FAULTS");
               env && *env) {
        cfg.faults = fault::FaultPlan::parse(env);
    }
    cfg.retry.max_attempts = static_cast<uint32_t>(
        opts.get_u64("fault-retries", cfg.retry.max_attempts));
    cfg.retry.timeout_multiplier = opts.get_double(
        "fault-timeout-mult", cfg.retry.timeout_multiplier);
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
