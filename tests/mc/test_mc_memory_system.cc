/**
 * @file
 * Shared-hierarchy tests for the memory system with several cores:
 * private L1s over one L2/MSHR/DRAM, per-core attribution of misses,
 * bus traffic, and pollution, cross-core MSHR merging, the stat-scoping
 * conservation audit, and the N-core snapshot round trip.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/snapshot.hh"
#include "prefetch/stream_prefetcher.hh"

namespace fdp
{
namespace
{

struct McSystem
{
    EventQueue events;
    StatGroup shared_stats{"mem"};
    std::deque<StatGroup> core_stats;
    std::vector<std::unique_ptr<StreamPrefetcher>> pfs;
    std::deque<FdpController> fdps;
    std::unique_ptr<MemorySystem> mem;

    explicit McSystem(unsigned cores, bool with_prefetchers = false,
                      MachineParams mp = {})
    {
        std::vector<Prefetcher *> pf_ptrs;
        std::vector<FdpController *> fdp_ptrs;
        std::vector<StatGroup *> group_ptrs;
        for (unsigned i = 0; i < cores; ++i) {
            core_stats.emplace_back("c" + std::to_string(i));
            if (with_prefetchers) {
                StreamPrefetcherParams sp;
                sp.initialLevel = 5;
                pfs.push_back(std::make_unique<StreamPrefetcher>(sp));
            } else {
                pfs.push_back(nullptr);
            }
            FdpParams fp;
            fp.dynamicAggressiveness = false;
            fp.label = "fdp_controller.c" + std::to_string(i);
            fdps.emplace_back(fp, pfs.back().get(), core_stats.back());
            pf_ptrs.push_back(pfs.back().get());
            fdp_ptrs.push_back(&fdps.back());
            group_ptrs.push_back(&core_stats.back());
        }
        mem = std::make_unique<MemorySystem>(mp, events, pf_ptrs,
                                             fdp_ptrs, shared_stats,
                                             group_ptrs);
    }

    /** Blocking demand load: returns the completion cycle. */
    Cycle
    load(unsigned core, Addr addr, Cycle now, Addr pc = 0x1000)
    {
        Cycle done = kNoCycle;
        mem->demandAccess(CoreId(core), addr, pc, false, now,
                          [&](Cycle c) { done = c; });
        events.serviceUntil(now + 1000000);
        return done;
    }
};

TEST(McMemorySystem, ColdMissPaysFullLatencyOnEachCore)
{
    McSystem s(2);
    EXPECT_EQ(s.load(0, 0x100000, 0), 2u + 10u + 500u);
    const Cycle t = s.events.horizon();
    EXPECT_EQ(s.load(1, 0x900000, t) - t, 2u + 10u + 500u);
    EXPECT_EQ(s.mem->l2Misses(CoreId(0)), 1u);
    EXPECT_EQ(s.mem->l2Misses(CoreId(1)), 1u);
    EXPECT_EQ(s.mem->demandAccesses(CoreId(0)), 1u);
    EXPECT_EQ(s.mem->demandAccesses(CoreId(1)), 1u);
    s.mem->audit();
}

TEST(McMemorySystem, L2IsSharedAcrossCores)
{
    McSystem s(2);
    s.load(0, 0x100000, 0);
    // Core 1's L1 is private (cold), but the block already sits in the
    // shared L2: 2 (L1 lookup) + 10 (L2 hit).
    const Cycle t = s.events.horizon();
    EXPECT_EQ(s.load(1, 0x100000, t) - t, 12u);
    EXPECT_EQ(s.mem->l2Misses(CoreId(1)), 0u);
}

TEST(McMemorySystem, L1sArePrivatePerCore)
{
    McSystem s(2);
    s.load(0, 0x100000, 0);
    Cycle t = s.events.horizon();
    s.load(0, 0x100000, t);
    // Core 0 hits its own L1 in 2 cycles...
    t = s.events.horizon();
    EXPECT_EQ(s.load(0, 0x100000, t) - t, 2u);
    // ...and that never warms core 1's L1.
    t = s.events.horizon();
    EXPECT_EQ(s.load(1, 0x100000, t) - t, 12u);
}

TEST(McMemorySystem, CrossCoreSecondaryMissMergesInMshr)
{
    McSystem s(2);
    std::vector<Cycle> done;
    s.mem->demandAccess(CoreId(0), 0x200000, 0, false, 0,
                        [&](Cycle c) { done.push_back(c); });
    s.mem->demandAccess(CoreId(1), 0x200008, 0, false, 1,
                        [&](Cycle c) { done.push_back(c); });
    s.events.serviceUntil(100000);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], done[1]);  // one fill serves both cores
    EXPECT_EQ(s.mem->dram().busAccesses(), 1u);
    s.mem->audit();
}

TEST(McMemorySystem, BusAccessesAttributedPerCore)
{
    McSystem s(2);
    Cycle t = 0;
    for (int i = 0; i < 6; ++i) {
        s.load(0, 0x1000000ull + i * 0x10000, t);
        t = s.events.horizon();
    }
    for (int i = 0; i < 3; ++i) {
        s.load(1, 0x8000000ull + i * 0x10000, t);
        t = s.events.horizon();
    }
    EXPECT_EQ(s.mem->dram().busAccessesByCore(CoreId(0)), 6u);
    EXPECT_EQ(s.mem->dram().busAccessesByCore(CoreId(1)), 3u);
    EXPECT_EQ(s.mem->dram().busAccesses(), 9u);
}

TEST(McMemorySystem, PrefetchFillsCreditTheIssuingCore)
{
    McSystem s(2, true);
    Cycle t = 0;
    for (int i = 0; i < 64; ++i) {
        s.load(0, 0x400000 + i * 64, t);
        t = s.events.horizon() + 2000;
    }
    // Only core 0 streamed: its controller saw every prefetch event.
    EXPECT_GT(s.fdps[0].counters().prefTotal().intervalValue(), 0u);
    EXPECT_EQ(s.fdps[1].counters().prefTotal().intervalValue(), 0u);
    s.mem->audit();
}

TEST(McMemorySystem, CrossCorePollutionAttributedToCauserAndVictim)
{
    MachineParams mp;
    mp.l2 = CacheParams{"L2", 8 * 1024, 4};  // 128 blocks, shared
    mp.l1 = CacheParams{"L1D", 1024, 2};     // nearly no L1 filtering
    McSystem s(2, true, mp);
    Cycle t = 0;
    // Core 0 fills the shared L2 with its demand working set.
    for (int i = 0; i < 128; ++i) {
        s.load(0, 0x10000000ull + i * 64, t);
        t = s.events.horizon() + 1000;
    }
    // Core 1 streams hard: its prefetch fills evict core 0's blocks.
    for (int i = 0; i < 256; ++i) {
        s.load(1, 0x20000000ull + i * 64, t);
        t = s.events.horizon() + 1000;
    }
    // Core 0 re-touches its set: the damage is already recorded.
    for (int i = 0; i < 128; ++i) {
        s.load(0, 0x10000000ull + i * 64, t);
        t = s.events.horizon() + 1000;
    }
    EXPECT_GT(s.mem->pollutionInflicted(CoreId(1)), 0u);
    EXPECT_GT(s.mem->crossPollutionSuffered(CoreId(0)), 0u);
    // Every block core 1 lost to a foreign prefetch was inflicted by
    // core 0, so the cross-suffered count can never exceed it.
    EXPECT_LE(s.mem->crossPollutionSuffered(CoreId(1)),
              s.mem->pollutionInflicted(CoreId(0)));
    s.mem->audit();
}

TEST(McMemorySystem, SamplingIntervalsStaySynchronized)
{
    MachineParams mp;
    mp.l2 = CacheParams{"L2", 8 * 1024, 4};
    McSystem s(2, true, mp);
    Cycle t = 0;
    // Enough shared-L2 evictions to pass several interval boundaries
    // (the audit asserts all controllers agree on the interval count).
    for (int i = 0; i < 512; ++i) {
        s.load(i % 2, (i % 2 ? 0x40000000ull : 0x10000000ull) + i * 64, t);
        t = s.events.horizon() + 500;
    }
    EXPECT_EQ(s.fdps[0].intervalsCompleted(),
              s.fdps[1].intervalsCompleted());
    s.mem->audit();
}

TEST(McMemorySystem, QuiescedAfterDrain)
{
    McSystem s(2, true);
    Cycle t = 0;
    for (int i = 0; i < 32; ++i) {
        s.load(i % 2, 0xC00000 + i * 64, t);
        t = s.events.horizon() + 1;
    }
    s.events.serviceUntil(t + 10000000);
    EXPECT_TRUE(s.mem->quiesced());
    s.mem->audit();
}

TEST(McMemorySystem, PrefetchCacheModeIsRejected)
{
    MachineParams mp;
    mp.prefetchCache.enabled = true;
    EXPECT_EXIT(McSystem(2, true, mp), testing::ExitedWithCode(1),
                "prefetch cache");
}

TEST(McMemorySystem, StatConservationHoldsUnderMixedTraffic)
{
    McSystem s(4, true);
    Cycle t = 0;
    for (int i = 0; i < 256; ++i) {
        const unsigned c = i % 4;
        s.load(c, (Addr{c} << 30) + (i / 4) * 64, t);
        t = s.events.horizon() + (i % 3 == 0 ? 1 : 1500);
    }
    s.events.serviceUntil(t + 10000000);
    // audit() cross-checks every per-core counter column against its
    // shared total; any mis-scoped increment dies here.
    s.mem->audit();
    std::uint64_t demand = 0;
    for (unsigned c = 0; c < 4; ++c)
        demand += s.mem->demandAccesses(CoreId(c));
    EXPECT_EQ(demand, 256u);
}

/** Drive mixed two-core traffic with prefetching and drain it. */
void
runTwoCoreTraffic(McSystem &s)
{
    Cycle t = 0;
    for (int i = 0; i < 192; ++i) {
        const unsigned c = i % 2;
        s.load(c, (Addr{c + 1} << 28) + (i / 2) * 64, t);
        if (i % 3 == 0)
            s.mem->demandAccess(CoreId(c), (Addr{c + 1} << 28) + i * 4096,
                                0x2000, true, s.events.horizon(),
                                [](Cycle) {});
        t = s.events.horizon() + 200;
    }
    s.events.serviceUntil(t + 10000000);
}

/** Serialize the memory system and every stat group it writes to. */
std::vector<std::uint8_t>
saveTwoCore(const McSystem &s)
{
    SnapWriter w;
    s.mem->saveState(w);
    s.shared_stats.saveState(w);
    for (const StatGroup &g : s.core_stats)
        g.saveState(w);
    return w.bytes();
}

TEST(McMemorySystem, TwoCoreSnapshotRoundTrips)
{
    MachineParams mp;
    mp.l2 = CacheParams{"L2", 16 * 1024, 4};  // evictions and pollution
    McSystem a(2, true, mp);
    runTwoCoreTraffic(a);
    ASSERT_TRUE(a.mem->quiesced());
    ASSERT_GT(a.mem->demandAccesses(CoreId(1)), 0u);
    const std::vector<std::uint8_t> saved = saveTwoCore(a);

    McSystem b(2, true, mp);
    SnapReader r(saved);
    b.mem->loadState(r);
    b.shared_stats.loadState(r);
    for (StatGroup &g : b.core_stats)
        g.loadState(r);
    EXPECT_TRUE(r.atEnd());

    // Re-saving the restored machine reproduces the image exactly, so
    // the per-core L1s, counters and owner tags all came back; spot
    // check each of them.
    EXPECT_EQ(saveTwoCore(b), saved);
    b.mem->audit();
    for (const CoreId core : {kCore0, CoreId(1)}) {
        EXPECT_EQ(b.mem->demandAccesses(core),
                  a.mem->demandAccesses(core));
        EXPECT_EQ(b.mem->pollutionInflicted(core),
                  a.mem->pollutionInflicted(core));
    }
    const BlockAddr mine = blockAddr((Addr{2} << 28) + 95 * 64);
    EXPECT_TRUE(b.mem->l1(CoreId(1)).probe(mine));
    EXPECT_FALSE(b.mem->l1(kCore0).probe(mine));
    EXPECT_EQ(b.mem->l2().ownerOf(mine), CoreId(1));

    // Both machines continue identically from the restore point.
    const Cycle t = a.events.horizon();
    b.events.serviceUntil(t);
    EXPECT_EQ(a.load(1, Addr{2} << 28, t) - t,
              b.load(1, Addr{2} << 28, t) - t);
    EXPECT_EQ(saveTwoCore(a), saveTwoCore(b));
}

TEST(McMemorySystem, SnapshotCoreCountMismatchIsFatal)
{
    McSystem a(2);
    a.load(1, 0x100000, 0);
    SnapWriter w;
    a.mem->saveState(w);
    McSystem b(3);
    SnapReader r(w.bytes());
    EXPECT_EXIT(b.mem->loadState(r), testing::ExitedWithCode(1),
                "snapshot");
}

} // namespace
} // namespace fdp
