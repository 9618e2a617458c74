/**
 * @file
 * The PrefetchObservation::busUtil window must be sourced from the DRAM
 * backend's measured data-bus occupancy identically whether the memory
 * system is built as a one-core machine or through the N-core
 * constructor with one core and its own per-core group: the same
 * request stream reports the same utilization either way, for both the
 * flat model and the FR-FCFS controller.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "prefetch/stream_prefetcher.hh"

namespace fdp
{
namespace
{

/** One demand stream, returning the utilization each system reports. */
struct ParityResult
{
    double busUtil;
    std::uint64_t busBusyCycles;
    std::uint64_t busAccesses;
};

std::vector<Addr>
demandStream()
{
    // Two interleaved sequential walks: enough misses to keep the bus
    // busy across several kBusUtilWindow boundaries, plus prefetcher
    // training so prefetch traffic flows through the window too.
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 600; ++i) {
        addrs.push_back(0x100000 + static_cast<Addr>(i) * 64);
        addrs.push_back(0x4000000 + static_cast<Addr>(i) * 128);
    }
    return addrs;
}

/** Run the stream through a one-core machine, built through the
 *  one-core constructor or (@p perCoreGroup) the N-core one. */
ParityResult
runStream(const MachineParams &mp, bool perCoreGroup)
{
    EventQueue events;
    StatGroup fdp_stats{"fdp"}, mem_stats{"mem"}, core0{"c0"};
    StreamPrefetcherParams sp;
    sp.initialLevel = 5;
    StreamPrefetcher pf(sp);
    FdpParams fp;
    fp.dynamicAggressiveness = false;
    FdpController fdp(fp, &pf, perCoreGroup ? core0 : fdp_stats);
    std::unique_ptr<MemorySystem> mem =
        perCoreGroup ? std::make_unique<MemorySystem>(
                           mp, events, std::vector<Prefetcher *>{&pf},
                           std::vector<FdpController *>{&fdp}, mem_stats,
                           std::vector<StatGroup *>{&core0})
                     : std::make_unique<MemorySystem>(mp, events, &pf, fdp,
                                                      mem_stats);
    for (const Addr a : demandStream()) {
        Cycle done = kNoCycle;
        mem->demandAccess(a, 0x1000, false, events.horizon(),
                          [&](Cycle c) { done = c; });
        // Blocking load: the bus stays busy across window boundaries,
        // so the last closed window always carries traffic.
        while (done == kNoCycle)
            events.serviceUntil(events.horizon() + 50);
    }
    mem->audit();
    return {mem->busUtilization(), mem->dram().busBusyCycles(),
            mem->dram().busAccesses()};
}

TEST(BusUtilParity, FlatBackendPathsAgree)
{
    MachineParams mp;
    const ParityResult a = runStream(mp, false);
    const ParityResult b = runStream(mp, true);
    EXPECT_GT(a.busUtil, 0.0);
    EXPECT_EQ(a.busUtil, b.busUtil);
    EXPECT_EQ(a.busBusyCycles, b.busBusyCycles);
    EXPECT_EQ(a.busAccesses, b.busAccesses);
}

TEST(BusUtilParity, ControllerBackendPathsAgree)
{
    MachineParams mp;
    mp.dramCtrl.kind = DramKind::Controller;
    mp.dramCtrl.channels = 2;
    const ParityResult a = runStream(mp, false);
    const ParityResult b = runStream(mp, true);
    EXPECT_GT(a.busUtil, 0.0);
    EXPECT_EQ(a.busUtil, b.busUtil);
    EXPECT_EQ(a.busBusyCycles, b.busBusyCycles);
    EXPECT_EQ(a.busAccesses, b.busAccesses);
}

TEST(BusUtilParity, ControllerNormalizesByChannelCount)
{
    // The same stream on more channels must never report MORE
    // utilization: occupancy is divided by the data-bus count.
    MachineParams one;
    one.dramCtrl.kind = DramKind::Controller;
    one.dramCtrl.channels = 1;
    MachineParams four;
    four.dramCtrl.kind = DramKind::Controller;
    four.dramCtrl.channels = 4;
    const ParityResult u1 = runStream(one, false);
    const ParityResult u4 = runStream(four, false);
    EXPECT_GT(u1.busUtil, 0.0);
    EXPECT_GT(u4.busUtil, 0.0);
    EXPECT_LE(u4.busUtil, u1.busUtil);
}

} // namespace
} // namespace fdp
