#include "mc/mc_machine.hh"

#include <algorithm>
#include <deque>

#include "manage/prefetcher_manager.hh"
#include "sim/logging.hh"

namespace fdp
{

namespace
{

/** Human-readable prefetcher label for the per-core result row. */
std::string
describePrefetcher(const Prefetcher *pf)
{
    if (pf == nullptr)
        return "-";
    if (const auto *mgr = dynamic_cast<const ManagedPrefetcher *>(pf))
        return std::string("manager[") + mgr->activeName() + "]";
    return pf->name();
}

} // namespace

McRunResult
runMcWorkloads(const McRunConfig &config,
               const std::vector<std::unique_ptr<Workload>> &workloads,
               const std::string &mixName, const std::string &configLabel)
{
    const unsigned n = config.numCores;
    if (n == 0)
        fatal("a co-run needs at least one core");
    if (workloads.size() != n)
        fatal("co-run of %u cores got %zu workloads", n,
              workloads.size());
    if (!config.corePrefetchers.empty() && config.corePrefetchers.size() != n)
        fatal("co-run of %u cores got %zu per-core prefetcher selections",
              n, config.corePrefetchers.size());

    EventQueue events;
    StatGroup sharedStats("mem");
    // deques: StatGroup, FdpController, and OooCore register stats on
    // construction and must never relocate.
    std::deque<StatGroup> coreStats;
    std::deque<FdpController> controllers;
    std::deque<OooCore> cores;
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;

    const FdpParams fp = config.base.resolvedFdpParams();

    std::vector<Prefetcher *> pfPtrs;
    std::vector<FdpController *> fdpPtrs;
    std::vector<StatGroup *> groupPtrs;
    for (unsigned i = 0; i < n; ++i) {
        coreStats.emplace_back("c" + std::to_string(i));
        // Heterogeneous co-runs re-derive each core's config from the
        // base; makeRunPrefetcher picks the same start level the
        // controllers use (initialLevel when dynamic, staticLevel
        // otherwise) and wraps the zoo in a manager when selected.
        RunConfig cc = config.corePrefetchers.empty()
                           ? config.base
                           : applyPrefetcherSelection(
                                 config.base, config.corePrefetchers[i]);
        prefetchers.push_back(makeRunPrefetcher(cc));
        FdpParams fpi = fp;
        fpi.label = "fdp_controller.c" + std::to_string(i);
        controllers.emplace_back(fpi, prefetchers.back().get(),
                                 coreStats.back());
        pfPtrs.push_back(prefetchers.back().get());
        fdpPtrs.push_back(&controllers.back());
        groupPtrs.push_back(&coreStats.back());
    }

    MemorySystem mem(config.base.machine, events, pfPtrs, fdpPtrs,
                       sharedStats, groupPtrs);
    for (unsigned i = 0; i < n; ++i)
        cores.emplace_back(config.base.core, mem.port(CoreId(i)), events,
                           *workloads[i], coreStats[i]);

    AuditSet audits;
    audits.add(&events);
    audits.add(&mem);
    for (unsigned i = 0; i < n; ++i) {
        audits.add(fdpPtrs[i]);
        if (pfPtrs[i])
            audits.add(pfPtrs[i]);
        if (const auto *aw =
                dynamic_cast<const Auditable *>(workloads[i].get()))
            audits.add(aw);
    }
    const bool periodicAudit = debugBuild() || auditRequestedByEnv();
    // Per-controller hooks: each manager samples ITS core's feedback
    // counters and retired-instruction count at that core's interval
    // boundary. Audits ride on the LAST controller only: shared-L2
    // evictions tick the controllers in core-id order, so only after
    // the last one closes its interval are all interval counts equal
    // again (which the mc audit asserts).
    for (unsigned i = 0; i < n; ++i) {
        auto *mgr = dynamic_cast<ManagedPrefetcher *>(pfPtrs[i]);
        const bool auditsHere = periodicAudit && i + 1 == n;
        if (mgr == nullptr && !auditsHere)
            continue;
        FdpController &ctrl = controllers[i];
        OooCore &core = cores[i];
        ctrl.setEndOfIntervalHook([&audits, &events, &ctrl, &core, mgr,
                                   auditsHere] {
            if (mgr != nullptr)
                tickManager(*mgr, ctrl, core, events);
            if (auditsHere)
                audits.runAll();
        });
    }

    // Lockstep drive: every core steps at every simulated cycle, in
    // core-id order, until each has retired the per-core budget.
    for (unsigned i = 0; i < n; ++i)
        cores[i].beginRun(config.base.numInsts);
    Cycle cyc = events.horizon();
    const Cycle start = cyc;
    std::vector<Cycle> finish(n, start);
    std::vector<bool> running(n, true);
    unsigned live = n;

    while (live > 0) {
        events.serviceUntil(cyc);
        bool progressed = false;
        for (unsigned i = 0; i < n; ++i) {
            if (!running[i])
                continue;
            progressed = cores[i].step(cyc) || progressed;
            if (cores[i].runDone()) {
                running[i] = false;
                finish[i] = cyc;
                --live;
            }
        }
        if (live == 0)
            break;

        // Advance the clock, skipping dead time when fully stalled.
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

    if (periodicAudit)
        audits.runAll();

    McRunResult r;
    r.mix = mixName;
    r.config = configLabel;
    r.numCores = n;
    r.busAccesses = mem.dram().busAccesses();
    for (unsigned i = 0; i < n; ++i) {
        McCoreResult c;
        c.program = workloads[i]->name();
        c.prefetcher = describePrefetcher(pfPtrs[i]);
        c.insts = cores[i].retired();
        c.cycles = cores[i].cycles();
        c.ipc = cores[i].ipc();
        c.accuracy = controllers[i].lifetimeAccuracy();
        c.lateness = controllers[i].lifetimeLateness();
        c.pollution = controllers[i].lifetimePollution();
        c.l2Misses = mem.l2Misses(CoreId(i));
        c.demandAccesses = mem.demandAccesses(CoreId(i));
        c.busAccesses = mem.dram().busAccessesByCore(CoreId(i));
        c.bpki = ratio(static_cast<double>(c.busAccesses),
                       static_cast<double>(c.insts) / 1000.0);
        c.pollutionInflicted = mem.pollutionInflicted(CoreId(i));
        c.crossPollutionSuffered = mem.crossPollutionSuffered(CoreId(i));
        for (const auto *s : coreStats[i].scalars()) {
            if (s->name() == "pref_sent")
                c.prefSent = s->value();
            else if (s->name() == "pref_used")
                c.prefUsed = s->value();
        }
        r.cycles = std::max(r.cycles, c.cycles);
        r.throughput += c.ipc;
        r.cores.push_back(std::move(c));
    }
    return r;
}

McRunResult
runMix(const MixSpec &spec, const McRunConfig &config,
       const std::string &configLabel)
{
    if (spec.numCores() != config.numCores)
        fatal("mix %s names %u cores but the configuration has %u",
              spec.name.c_str(), spec.numCores(), config.numCores);
    McRunConfig cfg = config;
    if (cfg.corePrefetchers.empty())
        cfg.corePrefetchers = spec.corePrefetchers;
    const auto workloads = buildMixWorkloads(spec);
    return runMcWorkloads(cfg, workloads, spec.name, configLabel);
}

} // namespace fdp
