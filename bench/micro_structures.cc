/**
 * @file
 * google-benchmark microbenchmarks for the core simulator data
 * structures: these are the per-access costs that dominate simulation
 * wall-clock time, kept here so regressions are visible.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "core/fdp_controller.hh"
#include "core/pollution_filter.hh"
#include "dram/dram_controller.hh"
#include "harness/experiment.hh"
#include "manage/prefetcher_manager.hh"
#include "mem/cache.hh"
#include "mem/mshr.hh"
#include "prefetch/dspatch_prefetcher.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/vldp_prefetcher.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workload/generators.hh"
#include "workload/spec_suite.hh"

namespace
{

using namespace fdp;

/**
 * Payload matching the real event-queue call sites: the DRAM fill
 * wrapper captures a completion callback plus the fill cycle (~40-64
 * bytes), so callbacks benchmarked here carry the same weight instead
 * of an unrealistically empty capture.
 */
using CallbackPayload = std::array<std::uint64_t, 5>;

void
BM_CacheAccessHit(benchmark::State &state)
{
    SetAssocCache cache(CacheParams{"L2", 1024 * 1024, 16});
    for (BlockAddr b = 0; b < cache.numBlocks(); ++b)
        cache.insert(b, false, InsertPos::Mru, false);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.range(cache.numBlocks()), false).hit);
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheInsertEvict(benchmark::State &state)
{
    SetAssocCache cache(CacheParams{"L2", 1024 * 1024, 16});
    Rng rng(2);
    BlockAddr next = 0;
    for (auto _ : state) {
        const BlockAddr b = next++;
        if (!cache.probe(b))
            benchmark::DoNotOptimize(
                cache.insert(b, false, InsertPos::Mru, false).valid);
    }
}
BENCHMARK(BM_CacheInsertEvict);

void
BM_CacheInsertMid(benchmark::State &state)
{
    // The arbitrary-position insertion path of paper Section 3.3.2:
    // prefetch fills landing mid-stack under Dynamic Insertion.
    SetAssocCache cache(CacheParams{"L2", 1024 * 1024, 16});
    static constexpr InsertPos kPos[3] = {InsertPos::Lru, InsertPos::Lru4,
                                          InsertPos::Mid};
    Rng rng(5);
    BlockAddr next = 0;
    unsigned p = 0;
    for (auto _ : state) {
        const BlockAddr b = next++;
        benchmark::DoNotOptimize(
            cache.insert(b, true, kPos[p], false).valid);
        p = p == 2 ? 0 : p + 1;
    }
}
BENCHMARK(BM_CacheInsertMid);

void
BM_EventQueueScheduleService(benchmark::State &state)
{
    // One schedule + one dispatch per iteration, with the queue holding
    // a steady backlog the way the DRAM pump keeps it during a run.
    EventQueue q;
    CallbackPayload payload{1, 2, 3, 4, 5};
    std::uint64_t sink = 0;
    Cycle when = 1;
    for (Cycle c = 1; c <= 64; ++c)
        q.schedule(c, [payload, &sink] { sink += payload[0]; });
    when = 64;
    for (auto _ : state) {
        ++when;
        q.schedule(when, [payload, &sink] { sink += payload[0]; });
        q.serviceUntil(when - 64);
        benchmark::DoNotOptimize(sink);
    }
    q.reset();
}
BENCHMARK(BM_EventQueueScheduleService);

void
BM_EventQueueSameCycleBurst(benchmark::State &state)
{
    // Bursts of same-cycle events (a loaded bus draining), FIFO order.
    EventQueue q;
    CallbackPayload payload{7, 7, 7, 7, 7};
    std::uint64_t sink = 0;
    Cycle when = 0;
    for (auto _ : state) {
        ++when;
        for (int i = 0; i < 16; ++i)
            q.schedule(when, [payload, &sink] { sink += payload[1]; });
        q.serviceUntil(when);
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueSameCycleBurst);

void
BM_MshrAllocateDeallocate(benchmark::State &state)
{
    // The demand-miss path: allocate on miss, find + deallocate on fill,
    // with the file ~half full the whole time.
    MshrFile mshrs(32);
    for (BlockAddr b = 0; b < 16; ++b)
        mshrs.allocate(b, false, 0);
    BlockAddr next = 16;
    for (auto _ : state) {
        const BlockAddr fresh = next++;
        mshrs.allocate(fresh, false, 0);
        const BlockAddr old = fresh - 16;
        benchmark::DoNotOptimize(mshrs.find(old));
        mshrs.deallocate(old);
    }
}
BENCHMARK(BM_MshrAllocateDeallocate);

void
BM_MshrFindMixed(benchmark::State &state)
{
    // Lookup-heavy traffic: every demand access and every prefetch
    // candidate probes the file; most probes miss.
    MshrFile mshrs(32);
    for (BlockAddr b = 0; b < 24; ++b)
        mshrs.allocate(b * 3, false, 0);
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(mshrs.find(rng.range(96)));
}
BENCHMARK(BM_MshrFindMixed);

void
BM_MshrMergeWaiter(benchmark::State &state)
{
    // A demand merging into an in-flight miss: find + waiter push, then
    // the fill moves the waiters out (the per-fill hot sequence).
    MshrFile mshrs(32);
    std::uint64_t sink = 0;
    BlockAddr next = 0;
    for (auto _ : state) {
        const BlockAddr b = next++;
        MshrEntry &e = mshrs.allocate(b, false, 0);
        for (int w = 0; w < 2; ++w)
            e.waiters.push_back([&sink](Cycle c) { sink += c; });
        benchmark::DoNotOptimize(mshrs.find(b));
        mshrs.deallocate(b);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MshrMergeWaiter);

void
BM_PollutionFilter(benchmark::State &state)
{
    PollutionFilter filter;
    Rng rng(3);
    for (auto _ : state) {
        const BlockAddr b = rng.next() & 0xFFFFFF;
        filter.onDemandBlockEvictedByPrefetch(b);
        benchmark::DoNotOptimize(filter.demandMissCausedByPrefetcher(b));
    }
}
BENCHMARK(BM_PollutionFilter);

void
BM_StreamPrefetcherObserve(benchmark::State &state)
{
    StreamPrefetcher pf;
    pf.setAggressiveness(static_cast<unsigned>(state.range(0)));
    std::vector<BlockAddr> out;
    BlockAddr block = 1 << 20;
    for (auto _ : state) {
        out.clear();
        pf.observe({blockBase(block), block, 0x10, true}, out);
        benchmark::DoNotOptimize(out.size());
        ++block;
    }
}
BENCHMARK(BM_StreamPrefetcherObserve)->Arg(1)->Arg(5);

void
BM_StreamPrefetcherManyStreams(benchmark::State &state)
{
    // Shaped like art in a full run, where one steady stream is not
    // representative: 24 monitored streams, and about 96% of
    // observations are L2 hits outside every region. Every 33rd
    // observation is the next stream's demand, round robin, so every
    // stream stays inside the activity window (the pacing share, and so
    // the region size, stays fixed) and none ages into the LRU victim;
    // a trigger slides a region by the degree, so each demand steps by
    // the degree. The rest are seeded stray accesses above the streams,
    // 1% of them misses, which allocate entries that never train.
    constexpr unsigned kStreams = 24;
    StreamPrefetcher pf;
    pf.setAggressiveness(3);
    Rng rng(7);
    std::vector<BlockAddr> out;
    std::array<BlockAddr, kStreams> demand{};
    for (BlockAddr &d : demand) {
        d = (BlockAddr{1} << 20) + rng.range(BlockAddr{1} << 24);
        for (int i = 0; i < 3; ++i, ++d)
            pf.observe({blockBase(d), d, 0x10, true}, out);
    }
    std::uint64_t n = 0;
    for (auto _ : state) {
        out.clear();
        if (++n % 33 == 0) {
            BlockAddr &d = demand[(n / 33) % kStreams];
            pf.observe({blockBase(d), d, 0x10, false}, out);
            d += pf.degree();
        } else {
            const BlockAddr b =
                (BlockAddr{1} << 25) + rng.range(BlockAddr{1} << 25);
            pf.observe({blockBase(b), b, 0x10, rng.range(100) == 0}, out);
        }
        benchmark::DoNotOptimize(out.size());
    }
    if (pf.numMonitoringStreams() != kStreams ||
        pf.numActiveStreams() != kStreams)
        state.SkipWithError("a monitored stream was lost");
}
BENCHMARK(BM_StreamPrefetcherManyStreams);

void
BM_StreamFsmTransition(benchmark::State &state)
{
    // The training half of the stream FSM: a fresh region every third
    // access keeps the prefetcher allocating and confirming entries
    // instead of riding one steady monitored stream.
    StreamPrefetcher pf;
    pf.setAggressiveness(3);
    std::vector<BlockAddr> out;
    BlockAddr region = 1 << 22;
    BlockAddr block = region;
    int step = 0;
    for (auto _ : state) {
        out.clear();
        pf.observe({blockBase(block), block, 0x20, true}, out);
        benchmark::DoNotOptimize(out.size());
        if (++step == 3) {
            step = 0;
            region += 4096;
            block = region;
        } else {
            ++block;
        }
    }
}
BENCHMARK(BM_StreamFsmTransition);

void
BM_GhbPrefetcherObserve(benchmark::State &state)
{
    GhbPrefetcher pf;
    pf.setAggressiveness(3);
    std::vector<BlockAddr> out;
    BlockAddr block = 1 << 20;
    for (auto _ : state) {
        out.clear();
        pf.observe({blockBase(block), block, 0x10, true}, out);
        benchmark::DoNotOptimize(out.size());
        block += 2;
    }
}
BENCHMARK(BM_GhbPrefetcherObserve);

void
BM_WorkloadNext(benchmark::State &state)
{
    SyntheticWorkload wl(benchmarkParams("parser"));
    for (auto _ : state)
        benchmark::DoNotOptimize(wl.next().addr);
}
BENCHMARK(BM_WorkloadNext);

void
BM_StatScalarIncrement(benchmark::State &state)
{
    // The memory system's per-op accounting: every event bumps a
    // registered ScalarStat directly.
    StatGroup stats("mem");
    ScalarStat demand(stats, "demand_accesses", "demand accesses");
    ScalarStat hits(stats, "l2_hits", "L2 hits");
    ScalarStat misses(stats, "l2_misses", "L2 misses");
    unsigned sel = 0;
    for (auto _ : state) {
        ++demand;
        if (sel++ & 1)
            ++hits;
        else
            ++misses;
        benchmark::DoNotOptimize(demand.value());
    }
}
BENCHMARK(BM_StatScalarIncrement);

void
BM_StatBatchedIncrement(benchmark::State &state)
{
    // The batched pattern the core uses: plain local counters,
    // added into the registered stats in bulk.
    StatGroup stats("mem");
    ScalarStat demand(stats, "demand_accesses", "demand accesses");
    ScalarStat hits(stats, "l2_hits", "L2 hits");
    ScalarStat misses(stats, "l2_misses", "L2 misses");
    std::uint64_t d = 0, h = 0, m = 0;
    unsigned sel = 0, pending = 0;
    for (auto _ : state) {
        ++d;
        if (sel++ & 1)
            ++h;
        else
            ++m;
        if (++pending == 1024) {
            demand += d;
            hits += h;
            misses += m;
            d = h = m = 0;
            pending = 0;
        }
        benchmark::DoNotOptimize(d);
    }
    demand += d;
    hits += h;
    misses += m;
    benchmark::DoNotOptimize(demand.value());
}
BENCHMARK(BM_StatBatchedIncrement);

void
BM_FdpControllerDemandMiss(benchmark::State &state)
{
    StatGroup stats("fdp");
    FdpParams params;
    FdpController fdp(params, nullptr, stats);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(fdp.onDemandMiss(rng.next() & 0xFFFFFF));
}
BENCHMARK(BM_FdpControllerDemandMiss);

void
BM_VldpObserve(benchmark::State &state)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(3);
    std::vector<BlockAddr> out;
    // Walk a repeating delta cycle across many pages: steady-state DHB
    // hits with DPT training plus the chained multi-degree predict.
    static constexpr unsigned kDeltas[3] = {1, 3, 2};
    Addr page = 0x5000;
    unsigned offset = 1, phase = 0;
    for (auto _ : state) {
        out.clear();
        const Addr a = (page << 12) + (Addr{offset} << kBlockShift);
        pf.observe({a, blockAddr(a), 0x14000, true}, out);
        benchmark::DoNotOptimize(out.size());
        offset += kDeltas[phase];
        phase = (phase + 1) % 3;
        if (offset >= 64) {
            offset = 1;
            ++page;
        }
    }
}
BENCHMARK(BM_VldpObserve);

void
BM_DspatchObserve(benchmark::State &state)
{
    DspatchPrefetcher pf;
    pf.setAggressiveness(3);
    std::vector<BlockAddr> out;
    // Dense region sweep under one PC: every region retirement trains
    // the SPT and every first touch replays a learned pattern.
    Addr block = 1 << 22;
    for (auto _ : state) {
        out.clear();
        pf.observe({blockBase(block), block, 0x20, true}, out);
        benchmark::DoNotOptimize(out.size());
        block += 2;
    }
}
BENCHMARK(BM_DspatchObserve);

void
BM_ManagerIntervalTick(benchmark::State &state)
{
    RunConfig config = RunConfig::fullFdp();
    config.manager = ManagerKind::Explore;
    auto pf = makeRunPrefetcher(config);  // manager over the full zoo
    std::uint64_t retired = 0, cycle = 0;
    double ipc = 0.9;
    for (auto _ : state) {
        retired += static_cast<std::uint64_t>(ipc * 10000);
        cycle += 10000;
        // Drift the signal so elections and collapses both happen.
        ipc = ipc > 1.4 ? 0.6 : ipc + 0.07;
        static_cast<ManagedPrefetcher &>(*pf).intervalTick(
            {0.5, 0.1, 0.05, retired, cycle});
        benchmark::DoNotOptimize(pf->aggressiveness());
    }
}
BENCHMARK(BM_ManagerIntervalTick);

void
BM_DramSchedulePick(benchmark::State &state)
{
    // Steady-state FR-FCFS scheduling over a populated queue with the
    // full comparator engaged: FDP tiers (Low ones shed at enqueue) and
    // weighted service, which scans the whole queue on every grant.
    EventQueue events;
    StatGroup stats{"dram"};
    DramCtrlParams ctrl;
    ctrl.kind = DramKind::Controller;
    ctrl.channels = 2;
    ctrl.qosWeighted = true;
    DramController dram(DramParams{}, ctrl, events, stats, 4);
    static constexpr PrefetchTier kTiers[3] = {PrefetchTier::High,
                                               PrefetchTier::Medium,
                                               PrefetchTier::Low};
    // Hold ~36 reads per channel, the mean queue a grant scans in situ
    // on the saturated 8-core co-run: service the event queue only
    // while more than that are resident.
    const std::size_t resident = 36 * ctrl.channels;
    std::uint64_t i = 0;
    for (auto _ : state) {
        const BusPriority prio =
            i % 3 == 0 ? BusPriority::Demand : BusPriority::Prefetch;
        dram.enqueue((i * 37) % (1 << 20), prio, events.horizon(),
                     [](Cycle) {}, CoreId(i % 4), kTiers[i % 3]);
        ++i;
        while (dram.queued() > resident)
            events.serviceUntil(events.horizon() + 32);
        benchmark::DoNotOptimize(dram.queued());
    }
}
BENCHMARK(BM_DramSchedulePick);

void
BM_DramBankTick(benchmark::State &state)
{
    // Single-channel bank/row bookkeeping: a same-row walk, so every
    // grant takes the row-hit path (activate bookkeeping amortized at
    // row boundaries) and the per-access cost is the bank timing tick.
    EventQueue events;
    StatGroup stats{"dram"};
    DramCtrlParams ctrl;
    ctrl.kind = DramKind::Controller;
    ctrl.channels = 1;
    DramController dram(DramParams{}, ctrl, events, stats);
    BlockAddr block = 0;
    for (auto _ : state) {
        dram.enqueue(block++, BusPriority::Demand, events.horizon(),
                     [](Cycle) {});
        events.serviceUntil(events.horizon() + 200);
        benchmark::DoNotOptimize(dram.busAccesses());
    }
}
BENCHMARK(BM_DramBankTick);

} // namespace

BENCHMARK_MAIN();
