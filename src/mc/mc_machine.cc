#include "mc/mc_machine.hh"

#include <algorithm>
#include <deque>
#include <vector>

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

void
runLockstep(Machine &m, std::uint64_t insts)
{
    // Every core steps at every simulated cycle, in core-id order,
    // until each has retired the per-core budget.
    EventQueue &events = m.events;
    std::deque<OooCore> &cores = m.cores;
    const unsigned n = m.numCores();
    for (unsigned i = 0; i < n; ++i)
        cores[i].beginRun(insts);
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
}

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

    std::vector<Workload *> programs;
    for (const auto &w : workloads)
        programs.push_back(w.get());
    Machine m(std::move(programs), config.base, config.corePrefetchers);
    runMachine(m, config.base, runLockstep);

    McRunResult r;
    r.mix = mixName;
    r.config = configLabel;
    r.numCores = n;
    r.busAccesses = m.mem.dram().busAccesses();
    for (unsigned i = 0; i < n; ++i) {
        const RunResult one = extractResult(m, configLabel, CoreId(i));
        McCoreResult c;
        c.program = one.benchmark;
        c.prefetcher = describePrefetcher(m.prefetchers[i].get());
        c.insts = one.insts;
        c.cycles = one.cycles;
        c.ipc = one.ipc;
        c.bpki = one.bpki;
        c.accuracy = one.accuracy;
        c.lateness = one.lateness;
        c.pollution = one.pollution;
        c.prefSent = one.prefSent;
        c.prefUsed = one.prefUsed;
        c.l2Misses = one.l2Misses;
        c.demandAccesses = one.demandAccesses;
        c.busAccesses = one.busAccesses;
        c.pollutionInflicted = m.mem.pollutionInflicted(CoreId(i));
        c.crossPollutionSuffered = m.mem.crossPollutionSuffered(CoreId(i));
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
