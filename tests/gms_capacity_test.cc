/**
 * @file
 * Tests for finite global-memory capacity and the resource
 * utilization statistics.
 */

#include <gtest/gtest.h>

#include "gms/gms.h"
#include "sim/kernel.h"
#include "trace/trace.h"

namespace sgms
{
namespace
{

TEST(GmsCapacity, UnlimitedByDefault)
{
    EventQueue eq;
    Network net(eq, NetParams::an2());
    GmsCluster gms(net, GmsConfig{2, false, false, 0}, 0);
    for (PageId p = 0; p < 10000; ++p)
        gms.put_page(0, p, 8192, false);
    EXPECT_EQ(gms.global_discards(), 0u);
    for (PageId p = 0; p < 10000; ++p)
        ASSERT_TRUE(gms.in_global_memory(p));
}

TEST(GmsCapacity, DropsOldestWhenFull)
{
    EventQueue eq;
    Network net(eq, NetParams::an2());
    GmsCluster gms(net, GmsConfig{1, false, false, 3}, 0);
    // One server, capacity 3: pages 0..4 evicted in order.
    for (PageId p = 0; p < 5; ++p)
        gms.put_page(0, p, 8192, false);
    EXPECT_EQ(gms.global_discards(), 2u);
    EXPECT_FALSE(gms.in_global_memory(0));
    EXPECT_FALSE(gms.in_global_memory(1));
    EXPECT_TRUE(gms.in_global_memory(2));
    EXPECT_TRUE(gms.in_global_memory(3));
    EXPECT_TRUE(gms.in_global_memory(4));
    EXPECT_EQ(gms.stored_on(1), 3u);
}

TEST(GmsCapacity, RepeatedPutDoesNotDuplicate)
{
    EventQueue eq;
    Network net(eq, NetParams::an2());
    GmsCluster gms(net, GmsConfig{1, false, false, 2}, 0);
    gms.put_page(0, 7, 8192, false);
    gms.put_page(0, 7, 8192, false);
    gms.put_page(0, 8, 8192, false);
    EXPECT_EQ(gms.global_discards(), 0u);
    EXPECT_EQ(gms.stored_on(1), 2u);
    EXPECT_TRUE(gms.in_global_memory(7));
    EXPECT_TRUE(gms.in_global_memory(8));
}

TEST(GmsCapacity, DroppedPageFaultsFromDiskInSimulator)
{
    // Cold cache, tiny global memory: cycling through pages forces
    // some refaults back to disk.
    VectorTrace t;
    for (int round = 0; round < 3; ++round)
        for (Addr p = 0; p < 8; ++p)
            t.push(p * 8192);
    SimConfig cfg;
    cfg.policy = "fullpage";
    cfg.mem_pages = 2;
    cfg.gms.warm = false;
    cfg.gms.servers = 1;
    cfg.gms.server_capacity_pages = 2;
    Simulator sim(cfg);
    SimResult r = sim.run(t);
    EXPECT_GT(r.global_discards, 0u);
    uint64_t disk_faults = 0;
    for (const auto &f : r.faults)
        disk_faults += f.from_disk;
    // First touches (8) from disk plus refaults whose copy was
    // discarded.
    EXPECT_GT(disk_faults, 8u);

    // With ample global capacity the refaults stay remote.
    SimConfig big = cfg;
    big.gms.server_capacity_pages = 100;
    auto t2 = t;
    SimResult rb = Simulator(big).run(t2);
    uint64_t disk_faults_big = 0;
    for (const auto &f : rb.faults)
        disk_faults_big += f.from_disk;
    EXPECT_EQ(disk_faults_big, 8u);
    EXPECT_LT(rb.runtime, r.runtime);
}

TEST(Utilization, TrackedForRequesterResources)
{
    VectorTrace t;
    for (Addr p = 0; p < 16; ++p)
        t.push(p * 8192);
    SimConfig cfg;
    cfg.policy = "eager";
    cfg.subpage_size = 1024;
    Simulator sim(cfg);
    SimResult r = sim.run(t);
    EXPECT_GT(r.requester_wire_busy, 0);
    EXPECT_GT(r.requester_dma_busy, 0);
    EXPECT_GT(r.requester_cpu_busy, 0);
    EXPECT_LE(r.requester_wire_busy, r.runtime);
    double util = r.wire_utilization();
    EXPECT_GT(util, 0.0);
    EXPECT_LT(util, 1.0);
    // 16 pages of 8K each crossed the wire; occupancy must be at
    // least the pure serialization time of those bytes.
    Tick min_wire = 16 * (NetParams::an2().wire_per_byte * 8192);
    EXPECT_GE(r.requester_wire_busy, min_wire);
}

} // namespace
} // namespace sgms
