/**
 * @file
 * Map command-line options onto a SimConfig, so every tool exposes
 * the simulator's full configuration surface uniformly.
 *
 * Recognized keys (all optional):
 *   --page=<bytes>           full page size (default 8K)
 *   --subpage=<bytes>        subpage size
 *   --policy=<name>          fetch policy
 *   --mem-pages=<n>          resident capacity (0 = unlimited)
 *   --replacement=<name>     lru | fifo | clock
 *   --servers=<n>            GMS server count
 *   --cold                   cold global cache
 *   --no-putpage             suppress putpage traffic
 *   --global-capacity=<n>    per-server global memory pages
 *   --software-pal           PALcode protection instead of TLB bits
 *   --tlb[=entries]          enable the TLB model
 *   --fifo-network           disable demand priority + preemption
 *   --proto-controller       AN2 per-subpage interrupt costs for
 *                            pipelined transfers
 *   --ns-per-ref=<ns>        simulation clock
 *   --faults=<spec>          fault-injection plan (fault_plan.h);
 *                            SGMS_FAULTS env is an alternative
 *                            spelling, the flag wins
 *   --fault-retries=<n>      max fetch attempts under faults
 *   --fault-timeout-mult=<x> timeout margin over the calibrated
 *                            fetch latency
 *
 * A value that does not fit its field is fatal and names the flag:
 * a count past 32 bits, a non-finite double, an --ns-per-ref that is
 * negative or past a Tick, a malformed --faults spec.
 */

#ifndef SGMS_CORE_CONFIG_OVERRIDE_H
#define SGMS_CORE_CONFIG_OVERRIDE_H

#include "common/options.h"
#include "core/sim_config.h"

namespace sgms
{

/** Apply recognized option keys onto @p cfg. */
void apply_config_overrides(SimConfig &cfg, const Options &opts);

/** One-line help text for the recognized keys. */
const char *config_override_help();

} // namespace sgms

#endif // SGMS_CORE_CONFIG_OVERRIDE_H
