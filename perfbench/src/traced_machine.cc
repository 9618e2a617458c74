#include "traced_machine.hh"

#include <algorithm>
#include <deque>

#include "core/fdp_controller.hh"
#include "cpu/ooo_core.hh"
#include "mc/mc_memory_system.hh"
#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "snap/machine_snapshot.hh"

namespace perfbench
{

using namespace fdp;

void
ModelCounts::add(const ModelCounts &o)
{
    insts += o.insts;
    cycles += o.cycles;
    robFullCycles += o.robFullCycles;
    demandAccesses += o.demandAccesses;
    l1Misses += o.l1Misses;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    mshrStalls += o.mshrStalls;
    mshrMerges += o.mshrMerges;
    prefDrops += o.prefDrops;
    demandMissFills += o.demandMissFills;
    demandMissCycles += o.demandMissCycles;
    prefSent += o.prefSent;
    prefUsed += o.prefUsed;
    prefLate += o.prefLate;
    demandMisses += o.demandMisses;
    pollutionMisses += o.pollutionMisses;
    intervals += o.intervals;
    for (std::size_t i = 0; i < levelBuckets.size(); ++i)
        levelBuckets[i] += o.levelBuckets[i];
    for (std::size_t i = 0; i < insertBuckets.size(); ++i)
        insertBuckets[i] += o.insertBuckets[i];
    busAccesses += o.busAccesses;
    busBusyCycles += o.busBusyCycles;
    busCapacityCycles += o.busCapacityCycles;
    rowHits += o.rowHits;
    rowConflicts += o.rowConflicts;
    rowEmpties += o.rowEmpties;
    promotions += o.promotions;
    lowTierDrops += o.lowTierDrops;
    queuedSum += o.queuedSum;
    queuedSamples += o.queuedSamples;
    eventsServiced += o.eventsServiced;
    crossPollution += o.crossPollution;
    if (o.coreIpcMax > 0.0) {
        coreIpcMin = coreIpcMax > 0.0 ? std::min(coreIpcMin, o.coreIpcMin)
                                      : o.coreIpcMin;
        coreIpcMax = std::max(coreIpcMax, o.coreIpcMax);
    }
}

namespace
{

/** Value of the scalar statistic @p name in @p g (0 when absent). */
std::uint64_t
scalar(const StatGroup &g, const char *name)
{
    for (const ScalarStat *s : g.scalars())
        if (s->name() == name)
            return s->value();
    return 0;
}

/** FdpParams as SimMachine resolves them: a static configuration pins
 *  the controller to the static level. */
FdpParams
resolvedFdpParams(const RunConfig &config)
{
    FdpParams fp = config.fdp;
    if (!fp.dynamicAggressiveness)
        fp.initialLevel = config.staticLevel;
    return fp;
}

/** Memory-side and DRAM counts from a memory stat group. */
void
readMemCounts(const StatGroup &mem, ModelCounts &c)
{
    c.demandAccesses = scalar(mem, "demand_accesses");
    c.l1Misses = scalar(mem, "l1_misses");
    c.l2Hits = scalar(mem, "l2_hits");
    c.l2Misses = scalar(mem, "l2_misses");
    c.mshrStalls = scalar(mem, "mshr_stalls");
    c.mshrMerges = scalar(mem, "mshr_merges");
    c.prefDrops = scalar(mem, "pref_drop_l2hit") +
                  scalar(mem, "pref_drop_inflight") +
                  scalar(mem, "pref_drop_queue_full");
    c.demandMissFills = scalar(mem, "demand_miss_fills");
    c.demandMissCycles = scalar(mem, "demand_miss_cycles");
    c.busAccesses = scalar(mem, "bus_accesses");
    c.busBusyCycles = scalar(mem, "bus_busy_cycles");
    c.rowHits = scalar(mem, "row_hits");
    c.rowConflicts = scalar(mem, "row_conflicts");
    c.rowEmpties = scalar(mem, "row_empties");
    c.promotions = scalar(mem, "promotions");
    c.lowTierDrops = scalar(mem, "low_tier_drops");
}

/** Core and FDP-controller counts of one core, added into @p c. */
void
addCoreCounts(const StatGroup &core, const StatGroup &fdpStats,
              const FdpController &fdp, ModelCounts &c)
{
    c.insts += scalar(core, "retired");
    c.cycles += scalar(core, "cycles");
    c.robFullCycles += scalar(core, "rob_full_cycles");
    c.prefSent += scalar(fdpStats, "pref_sent");
    c.prefUsed += scalar(fdpStats, "pref_used");
    c.prefLate += scalar(fdpStats, "pref_late");
    c.demandMisses += scalar(fdpStats, "demand_misses");
    c.pollutionMisses += scalar(fdpStats, "pollution_misses");
    c.intervals += fdp.intervalsCompleted();
    for (std::size_t i = 0; i < c.levelBuckets.size(); ++i)
        c.levelBuckets[i] += fdp.levelDistribution().bucket(i);
    for (std::size_t i = 0; i < c.insertBuckets.size(); ++i)
        c.insertBuckets[i] += fdp.insertDistribution().bucket(i);
}

/**
 * The single-core machine of SimMachine, with decorators. Member order
 * is construction order: the controller and memory system see the
 * TimedPrefetcher, the core sees the TimedPort and TimedWorkload.
 */
struct TracedMachine
{
    TracedMachine(Workload &w, const RunConfig &config, Tracer &tracer,
                  PrefetchLog *log)
        : inner(makeRunPrefetcher(config)),
          prefetcher(inner ? std::make_unique<TimedPrefetcher>(
                                 *inner, tracer, log)
                           : nullptr),
          fdp(resolvedFdpParams(config),
              config.warmupInsts == 0 ? prefetcher.get() : nullptr,
              fdpStats),
          mem(config.machine, events,
              config.warmupInsts == 0 ? prefetcher.get() : nullptr, fdp,
              memStats),
          port(mem, tracer),
          frontend(w, tracer),
          core(config.core, port, events, frontend, coreStats),
          workload(w)
    {
        // wireAudits publishes the memory system's batched counters at
        // every sampling interval; do the same.
        fdp.setEndOfIntervalHook([this] { mem.flushStats(); });
    }

    SnapshotParts
    parts()
    {
        return SnapshotParts{events,   workload, core,     mem,      fdp,
                             prefetcher.get(),   fdpStats, memStats,
                             coreStats};
    }

    EventQueue events;
    StatGroup fdpStats{"fdp"};
    StatGroup memStats{"mem"};
    StatGroup coreStats{"core"};
    std::unique_ptr<Prefetcher> inner;
    std::unique_ptr<TimedPrefetcher> prefetcher;
    FdpController fdp;
    MemorySystem mem;
    TimedPort port;
    TimedWorkload frontend;
    OooCore core;
    Workload &workload;
};

/** measurementBoundary() for a TracedMachine. */
void
crossBoundary(TracedMachine &m)
{
    drainToQuiesce(m.events, m.mem);
    m.mem.flushStats();
    m.fdpStats.resetAll();
    m.memStats.resetAll();
    m.coreStats.resetAll();
    m.mem.resetAttribution();
    m.fdp.setPrefetcher(m.prefetcher.get());
    m.fdp.reset();
    m.mem.setPrefetcher(m.prefetcher.get());
    if (m.prefetcher)
        m.prefetcher->reset();
}

/** OooCore::run() with a span around every serviceUntil and step, and
 *  the DRAM queue sampled after each service step. */
void
tracedCoreRun(OooCore &core, EventQueue &events, const DramBackend &dram,
              std::uint64_t numInsts, Tracer &tracer, ModelCounts &c)
{
    const std::uint64_t servicedBefore = events.serviced();
    core.beginRun(numInsts);
    Cycle cyc = events.horizon();
    const Cycle start = cyc;
    while (!core.runDone()) {
        {
            Span s(tracer, Layer::Sim);
            events.serviceUntil(cyc);
        }
        c.queuedSum += dram.queued();
        ++c.queuedSamples;
        bool progressed = false;
        {
            Span s(tracer, Layer::Cpu);
            progressed = core.step(cyc);
        }
        if (core.runDone())
            break;
        Cycle nxt = cyc + 1;
        if (!progressed) {
            Cycle target = std::min(events.nextEventCycle(), core.wakeCycle());
            if (target == kNoCycle) {
                if (!core.robEmpty())
                    panic("core deadlock: stalled with no pending events");
                target = cyc + 1;
            }
            if (target > cyc)
                nxt = target;
            core.noteDeadTime(nxt - cyc);
        }
        cyc = nxt;
    }
    core.closeRun(start, cyc);
    c.eventsServiced += events.serviced() - servicedBefore;
}

/** extractResult() for a TracedMachine. */
RunResult
extractTraced(TracedMachine &m, const std::string &label)
{
    m.mem.flushStats();
    RunResult r;
    r.benchmark = m.workload.name();
    r.config = label;
    r.insts = m.core.retired();
    r.cycles = m.core.cycles();
    r.ipc = m.core.ipc();
    r.busAccesses = m.mem.dram().busAccesses();
    r.bpki = ratio(static_cast<double>(r.busAccesses),
                   static_cast<double>(r.insts) / 1000.0);
    r.accuracy = m.fdp.lifetimeAccuracy();
    r.lateness = m.fdp.lifetimeLateness();
    r.pollution = m.fdp.lifetimePollution();
    r.l2Misses = m.mem.l2Misses();
    r.demandAccesses = m.mem.demandAccesses();
    r.mshrStallCount = m.mem.mshrStalls();
    r.avgMissLatency = m.mem.avgDemandMissLatency();
    r.demandGrants = scalar(m.memStats, "demand_grants");
    r.prefetchGrants = scalar(m.memStats, "prefetch_grants");
    r.writebackGrants = scalar(m.memStats, "writeback_grants");
    r.prefDropQueueFull = scalar(m.memStats, "pref_drop_queue_full");
    r.prefSent = scalar(m.fdpStats, "pref_sent");
    r.prefUsed = scalar(m.fdpStats, "pref_used");
    for (std::size_t i = 0; i < r.levelDist.size(); ++i)
        r.levelDist[i] = m.fdp.levelDistribution().fraction(i);
    for (std::size_t i = 0; i < r.insertDist.size(); ++i)
        r.insertDist[i] = m.fdp.insertDistribution().fraction(i);
    return r;
}

} // namespace

RunResult
runTracedSingle(Workload &workload, const RunConfig &config,
                const std::string &label,
                const std::vector<std::uint8_t> *warmImage, Tracer &tracer,
                PrefetchLog *log, ModelCounts &counts)
{
    if ((warmImage != nullptr) != (config.warmupInsts > 0))
        fatal("traced run: a warm image goes with a warm-up, and only "
              "with one");
    TracedMachine m(workload, config, tracer, log);
    ModelCounts c;
    if (warmImage != nullptr) {
        {
            Span s(tracer, Layer::Snap);
            restoreMachine(m.parts(), *warmImage, RestoreMode::Fork);
        }
        crossBoundary(m);
    }
    tracedCoreRun(m.core, m.events, m.mem.dram(), config.numInsts, tracer,
                  c);
    const RunResult r = extractTraced(m, label);

    readMemCounts(m.memStats, c);
    addCoreCounts(m.coreStats, m.fdpStats, m.fdp, c);
    c.busCapacityCycles = std::uint64_t{m.mem.dram().dataBuses()} * c.cycles;
    counts.add(c);
    return r;
}

McRunResult
runTracedMc(const McRunConfig &config,
            const std::vector<std::unique_ptr<Workload>> &workloads,
            const std::string &mixName, const std::string &label,
            Tracer &tracer, const std::vector<PrefetchLog *> &logs,
            ModelCounts &counts)
{
    const unsigned n = config.numCores;
    if (workloads.size() != n || !config.corePrefetchers.empty())
        fatal("traced co-run: %u homogeneous cores need %u workloads", n,
              n);
    if (!logs.empty() && logs.size() != n)
        fatal("traced co-run: %zu prefetch logs for %u cores",
              logs.size(), n);

    // The assembly of runMcWorkloads, with decorators (deques: stat
    // groups, controllers and cores must never relocate).
    EventQueue events;
    StatGroup sharedStats("mem");
    std::deque<StatGroup> coreStats;
    std::deque<FdpController> controllers;
    std::deque<OooCore> cores;
    std::deque<TimedPort> ports;
    std::deque<TimedWorkload> frontends;
    std::vector<std::unique_ptr<Prefetcher>> inner;
    std::vector<std::unique_ptr<TimedPrefetcher>> timed;

    FdpParams fp = config.base.fdp;
    if (!fp.dynamicAggressiveness)
        fp.initialLevel = config.base.staticLevel;

    std::vector<Prefetcher *> pfPtrs;
    std::vector<FdpController *> fdpPtrs;
    std::vector<StatGroup *> groupPtrs;
    for (unsigned i = 0; i < n; ++i) {
        coreStats.emplace_back("c" + std::to_string(i));
        inner.push_back(makeRunPrefetcher(config.base));
        timed.push_back(
            inner.back()
                ? std::make_unique<TimedPrefetcher>(
                      *inner.back(), tracer,
                      logs.empty() ? nullptr : logs[i])
                : nullptr);
        FdpParams fpi = fp;
        fpi.label = "fdp_controller.c" + std::to_string(i);
        controllers.emplace_back(fpi, timed.back().get(), coreStats.back());
        pfPtrs.push_back(timed.back().get());
        fdpPtrs.push_back(&controllers.back());
        groupPtrs.push_back(&coreStats.back());
    }

    McMemorySystem mem(config.base.machine, events, pfPtrs, fdpPtrs,
                       sharedStats, groupPtrs);
    for (unsigned i = 0; i < n; ++i) {
        ports.emplace_back(mem.port(CoreId(i)), tracer);
        frontends.emplace_back(*workloads[i], tracer);
        cores.emplace_back(config.base.core, ports.back(), events,
                           frontends.back(), coreStats[i]);
    }

    ModelCounts c;
    const std::uint64_t servicedBefore = events.serviced();
    for (unsigned i = 0; i < n; ++i)
        cores[i].beginRun(config.base.numInsts);
    Cycle cyc = events.horizon();
    const Cycle start = cyc;
    std::vector<Cycle> finish(n, start);
    std::vector<bool> running(n, true);
    unsigned live = n;

    while (live > 0) {
        {
            Span s(tracer, Layer::Sim);
            events.serviceUntil(cyc);
        }
        c.queuedSum += mem.dram().queued();
        ++c.queuedSamples;
        bool progressed = false;
        for (unsigned i = 0; i < n; ++i) {
            if (!running[i])
                continue;
            {
                Span s(tracer, Layer::Cpu);
                progressed = cores[i].step(cyc) || progressed;
            }
            if (cores[i].runDone()) {
                running[i] = false;
                finish[i] = cyc;
                --live;
            }
        }
        if (live == 0)
            break;

        Cycle nxt = cyc + 1;
        if (!progressed) {
            Cycle target = events.nextEventCycle();
            for (unsigned i = 0; i < n; ++i)
                if (running[i])
                    target = std::min(target, cores[i].wakeCycle());
            if (target == kNoCycle) {
                for (unsigned i = 0; i < n; ++i)
                    if (running[i] && !cores[i].robEmpty())
                        panic("core %u deadlock: stalled with no "
                              "pending events", i);
                target = cyc + 1;
            }
            if (target > cyc)
                nxt = target;
            for (unsigned i = 0; i < n; ++i)
                if (running[i])
                    cores[i].noteDeadTime(nxt - cyc);
        }
        cyc = nxt;
    }
    for (unsigned i = 0; i < n; ++i)
        cores[i].closeRun(start, finish[i]);
    c.eventsServiced = events.serviced() - servicedBefore;

    McRunResult r;
    r.mix = mixName;
    r.config = label;
    r.numCores = n;
    r.busAccesses = mem.dram().busAccesses();
    for (unsigned i = 0; i < n; ++i) {
        McCoreResult cr;
        cr.program = workloads[i]->name();
        cr.prefetcher = pfPtrs[i] != nullptr ? pfPtrs[i]->name() : "-";
        cr.insts = cores[i].retired();
        cr.cycles = cores[i].cycles();
        cr.ipc = cores[i].ipc();
        cr.accuracy = controllers[i].lifetimeAccuracy();
        cr.lateness = controllers[i].lifetimeLateness();
        cr.pollution = controllers[i].lifetimePollution();
        cr.l2Misses = mem.l2Misses(CoreId(i));
        cr.demandAccesses = mem.demandAccesses(CoreId(i));
        cr.busAccesses = mem.dram().busAccessesByCore(CoreId(i));
        cr.bpki = ratio(static_cast<double>(cr.busAccesses),
                        static_cast<double>(cr.insts) / 1000.0);
        cr.pollutionInflicted = mem.pollutionInflicted(CoreId(i));
        cr.crossPollutionSuffered = mem.crossPollutionSuffered(CoreId(i));
        cr.prefSent = scalar(coreStats[i], "pref_sent");
        cr.prefUsed = scalar(coreStats[i], "pref_used");
        r.cycles = std::max(r.cycles, cr.cycles);
        r.throughput += cr.ipc;

        addCoreCounts(coreStats[i], coreStats[i], controllers[i], c);
        c.crossPollution += cr.crossPollutionSuffered;
        c.coreIpcMin = i == 0 ? cr.ipc : std::min(c.coreIpcMin, cr.ipc);
        c.coreIpcMax = std::max(c.coreIpcMax, cr.ipc);
        r.cores.push_back(std::move(cr));
    }
    readMemCounts(sharedStats, c);
    c.busCapacityCycles = std::uint64_t{mem.dram().dataBuses()} * r.cycles;
    counts.add(c);
    return r;
}

} // namespace perfbench
