/**
 * @file
 * Tests for the Options parser and the SimConfig override mapping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/options.h"
#include "core/config_override.h"
#include "core/experiment.h"

namespace sgms
{
namespace
{

Options
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return Options(static_cast<int>(args.size()),
                   const_cast<char **>(args.data()));
}

TEST(Options, KeyValueAndFlags)
{
    Options o = parse({"--policy=eager", "--tlb", "pos1", "pos2"});
    EXPECT_TRUE(o.has("policy"));
    EXPECT_EQ(o.get("policy"), "eager");
    EXPECT_TRUE(o.get_bool("tlb"));
    EXPECT_FALSE(o.has("missing"));
    EXPECT_EQ(o.get("missing", "dflt"), "dflt");
    ASSERT_EQ(o.positional().size(), 2u);
    EXPECT_EQ(o.positional()[0], "pos1");
    EXPECT_EQ(o.positional()[1], "pos2");
}

TEST(Options, TypedGetters)
{
    Options o = parse({"--a=2.5", "--b=42", "--c=8K", "--d=yes",
                       "--e=off"});
    EXPECT_DOUBLE_EQ(o.get_double("a", 0), 2.5);
    EXPECT_EQ(o.get_u64("b", 0), 42u);
    EXPECT_EQ(o.get_bytes("c", 0), 8192u);
    EXPECT_TRUE(o.get_bool("d"));
    EXPECT_FALSE(o.get_bool("e"));
    EXPECT_DOUBLE_EQ(o.get_double("zz", 7.5), 7.5);
    EXPECT_EQ(o.get_u64("zz", 9), 9u);
    EXPECT_EQ(o.get_bytes("zz", 11), 11u);
}

TEST(Options, NumbersMustBeWhole)
{
    Options o = parse({"--u=18446744073709551615", "--d=-0.25",
                       "--e=1e3", "--subpage=2K"});
    EXPECT_EQ(o.get_u64("u", 0), UINT64_MAX);
    EXPECT_DOUBLE_EQ(o.get_double("d", 0), -0.25);
    EXPECT_DOUBLE_EQ(o.get_double("e", 0), 1000.0);
    // Suffixed sizes go through get_bytes, not the strict getters.
    EXPECT_EQ(o.get_bytes("subpage", 0), 2048u);

    uint64_t u = 0;
    double d = 0;
    EXPECT_TRUE(parse_number("42", u));
    EXPECT_EQ(u, 42u);
    EXPECT_TRUE(parse_number("0.01", d));
    EXPECT_DOUBLE_EQ(d, 0.01);
    for (const char *bad : {"", "abc", "12x", " 1", "1 ", "+1", "-1",
                            "0x10", "18446744073709551616", "1.5"})
        EXPECT_FALSE(parse_number(bad, u)) << bad;
    for (const char *bad : {"", "0.01x", "1.5.2", " 1", "+1", "1e999"})
        EXPECT_FALSE(parse_number(bad, d)) << bad;
}

TEST(OptionsDeathTest, MalformedNumbersAreFatal)
{
    // Each of these once parsed as a prefix or wrapped around:
    // --seed=-1 as 2^64-1, --scale=0.01x as 0.01, --jobs=-1 as
    // 2^64-1 worker threads.
    EXPECT_DEATH(parse({"--seed=-1"}).get_u64("seed", 1), "bad integer");
    EXPECT_DEATH(parse({"--jobs=-1"}).get_u64("jobs", 1), "bad integer");
    EXPECT_DEATH(parse({"--seed=3x"}).get_u64("seed", 1), "bad integer");
    EXPECT_DEATH(parse({"--scale=0.01x"}).get_double("scale", 1),
                 "bad number");
    EXPECT_DEATH(parse({"--scale="}).get_double("scale", 1),
                 "bad number");
    EXPECT_DEATH(
        {
            ::setenv("SGMS_TEST_U64", "-1", 1);
            env_u64("SGMS_TEST_U64", 0);
        },
        "bad integer");
    // The tools' positional arguments, each named in its error: a
    // subpage past 32 bits once ran wrapped, a seed or scale with
    // trailing text as its leading digits, and an unknown memory
    // word as half memory.
    EXPECT_DEATH(parse_size32("4294968320", "subpage"),
                 "subpage=4294968320 does not fit 32 bits");
    EXPECT_DEATH(parse_u64("7x", "seed"), "seed: bad integer '7x'");
    EXPECT_DEATH(parse_double("abc", "scale"), "scale: bad number 'abc'");
    EXPECT_DEATH(parse_mem_config("bogus", "mem"),
                 "mem: bad memory configuration 'bogus'");
    EXPECT_EQ(parse_size32("4294967295", "subpage"), UINT32_MAX);
    EXPECT_EQ(parse_mem_config("quarter", "mem"), MemConfig::Quarter);
}

TEST(OptionsDeathTest, ScalesMustBeFiniteAndAboveZero)
{
    // Each of these once ran: SGMS_SCALE=0.02x at 0.02 (strtod), the
    // rest until the workload model failed on a malformed phase
    // region, naming neither the input nor its value, or (a zero
    // --scale) as a degenerate grid.
    for (const char *bad : {"nan", "inf", "-inf", "0", "-0", "-1"}) {
        EXPECT_DEATH(parse_scale(bad, "scale"),
                     std::string("scale: bad scale '") + bad + "'");
    }
    EXPECT_DEATH(parse_scale("1e400", "scale"), "scale: bad number");
    EXPECT_DEATH(parse({"--scale=nan"}).get_scale("scale", 1),
                 "option --scale: bad scale 'nan'");
    EXPECT_DEATH(parse({"--scale=0"}).get_scale("scale", 1),
                 "option --scale: bad scale '0'");
    EXPECT_DEATH(parse({"--scale=inf"}).get_scale("scale", 1),
                 "option --scale: bad scale 'inf'");
    EXPECT_DEATH(parse({"--scale=-1"}).get_scale("scale", 1),
                 "option --scale: bad scale '-1'");
    for (const char *bad : {"0.02x", "1e400"}) {
        EXPECT_DEATH(
            {
                ::setenv("SGMS_SCALE", bad, 1);
                scale_from_env(1.0);
            },
            "SGMS_SCALE: bad number");
    }
    for (const char *bad : {"nan", "inf", "0"}) {
        EXPECT_DEATH(
            {
                ::setenv("SGMS_SCALE", bad, 1);
                scale_from_env(1.0);
            },
            "SGMS_SCALE: bad scale");
    }
    EXPECT_EQ(parse_scale("0.02", "scale"), 0.02);
    EXPECT_EQ(parse({"--scale=1e-3"}).get_scale("scale", 1), 1e-3);
    EXPECT_EQ(parse({}).get_scale("scale", 0.5), 0.5);
}

TEST(Options, UnusedDetection)
{
    Options o = parse({"--used=1", "--typo=1"});
    o.get("used");
    auto unused = o.unused();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "typo");
}

TEST(Options, EmptyCommandLine)
{
    Options o = parse({});
    EXPECT_TRUE(o.positional().empty());
    EXPECT_TRUE(o.unused().empty());
}

TEST(ConfigOverride, AppliesRecognizedKeys)
{
    Options o = parse({"--subpage=2K", "--policy=pipelining",
                       "--mem-pages=128", "--replacement=clock",
                       "--servers=8", "--cold", "--no-putpage",
                       "--global-capacity=1000",
                       "--cluster-load=0.3", "--software-pal",
                       "--tlb=64", "--fifo-network",
                       "--ns-per-ref=10"});
    SimConfig cfg;
    apply_config_overrides(cfg, o);
    EXPECT_EQ(cfg.subpage_size, 2048u);
    EXPECT_EQ(cfg.policy, "pipelining");
    EXPECT_EQ(cfg.mem_pages, 128u);
    EXPECT_EQ(cfg.replacement, "clock");
    EXPECT_EQ(cfg.gms.servers, 8u);
    EXPECT_FALSE(cfg.gms.warm);
    EXPECT_FALSE(cfg.gms.putpage_traffic);
    EXPECT_EQ(cfg.gms.server_capacity_pages, 1000u);
    EXPECT_EQ(cfg.protection, ProtectionMode::SoftwarePal);
    EXPECT_TRUE(cfg.tlb_enabled);
    EXPECT_EQ(cfg.tlb_entries, 64u);
    EXPECT_FALSE(cfg.net.priority_scheduling);
    EXPECT_FALSE(cfg.net.preemptive_demand);
    EXPECT_EQ(cfg.ns_per_ref, ticks::from_ns(10));
    // Busy servers are modelled only by N real clients, so no
    // override reads --cluster-load.
    EXPECT_EQ(o.unused(), std::vector<std::string>{"cluster-load"});
}

TEST(ConfigOverride, DefaultsUntouched)
{
    Options o = parse({});
    SimConfig cfg;
    SimConfig before = cfg;
    apply_config_overrides(cfg, o);
    EXPECT_EQ(cfg.page_size, before.page_size);
    EXPECT_EQ(cfg.policy, before.policy);
    EXPECT_TRUE(cfg.gms.warm);
    EXPECT_TRUE(cfg.net.priority_scheduling);
    EXPECT_EQ(cfg.protection, ProtectionMode::HardwareTlb);
}

TEST(ConfigOverride, ProtoControllerCosts)
{
    Options o = parse({"--proto-controller"});
    SimConfig cfg;
    apply_config_overrides(cfg, o);
    EXPECT_EQ(cfg.net.pipelined_recv_fixed, ticks::from_us(60));
    EXPECT_EQ(cfg.net.pipelined_recv_per_byte, ticks::from_ns(31));
}

TEST(ConfigOverride, ZeroNsPerRefStaysValid)
{
    SimConfig cfg;
    apply_config_overrides(cfg, parse({"--ns-per-ref=0"}));
    EXPECT_EQ(cfg.ns_per_ref, 0);
}

TEST(ConfigOverrideDeathTest, ValuesThatDoNotFitTheirFieldAreFatal)
{
    // Each of these once ran: a negative or NaN step until the event
    // queue's order assertion, 2^32 + 8192-byte pages as 8 KiB pages,
    // 2^32 + 1 servers as one, a NaN timeout margin into a
    // double-to-Tick cast. The error must name the flag.
    const struct
    {
        const char *arg;
        const char *error;
    } cases[] = {
        {"--ns-per-ref=-12", "--ns-per-ref=-12 is not a step"},
        {"--ns-per-ref=nan", "--ns-per-ref=nan is not a step"},
        {"--ns-per-ref=inf", "--ns-per-ref=inf is not a step"},
        {"--ns-per-ref=1e300", "--ns-per-ref=1e300 is not a step"},
        {"--page=4294975488", "--page=4294975488 does not fit"},
        {"--subpage=4294968320", "--subpage=4294968320 does not fit"},
        {"--servers=4294967297", "--servers=4294967297 does not fit"},
        {"--tlb=4294967297", "--tlb=4294967297 does not fit"},
        {"--fault-retries=4294967297",
         "--fault-retries=4294967297 does not fit"},
        {"--fault-timeout-mult=nan",
         "--fault-timeout-mult=nan is not finite"},
        {"--faults=loss-=0.5",
         "--faults: unknown message kind in 'loss-=0.5'"},
        {"--faults=down=0:nan",
         "--faults: bad outage time .* in 'down=0:nan'"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.arg);
        EXPECT_DEATH(
            {
                SimConfig cfg;
                apply_config_overrides(cfg, parse({c.arg}));
            },
            c.error);
    }
    EXPECT_DEATH(
        {
            ::setenv("SGMS_FAULTS", "loss=nan", 1);
            SimConfig cfg;
            apply_config_overrides(cfg, parse({}));
        },
        "SGMS_FAULTS: bad probability \\(need 0..1\\) in 'loss=nan'");
}

} // namespace
} // namespace sgms
