#include "harness/experiment.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <string>

#include "prefetch/dspatch_prefetcher.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/nextline_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/stride_prefetcher.hh"
#include "prefetch/vldp_prefetcher.hh"
#include "sim/check.hh"
#include "sim/logging.hh"
#include "trace/trace_workload.hh"
#include "workload/spec_suite.hh"

namespace fdp
{

FdpParams
RunConfig::resolvedFdpParams() const
{
    FdpParams fp = fdp;
    if (!fp.dynamicAggressiveness)
        fp.initialLevel = staticLevel;
    return fp;
}

RunConfig
RunConfig::noPrefetching()
{
    RunConfig c;
    c.prefetcher = PrefetcherKind::None;
    c.fdp.dynamicAggressiveness = false;
    c.fdp.dynamicInsertion = false;
    return c;
}

RunConfig
RunConfig::staticLevelConfig(unsigned level, InsertPos ins)
{
    RunConfig c;
    c.staticLevel = level;
    c.fdp.dynamicAggressiveness = false;
    c.fdp.dynamicInsertion = false;
    c.fdp.staticInsertPos = ins;
    return c;
}

RunConfig
RunConfig::dynamicAggressiveness()
{
    RunConfig c;
    c.fdp.dynamicAggressiveness = true;
    c.fdp.dynamicInsertion = false;
    c.fdp.staticInsertPos = InsertPos::Mru;
    return c;
}

RunConfig
RunConfig::dynamicInsertion(unsigned staticLevel)
{
    RunConfig c;
    c.staticLevel = staticLevel;
    c.fdp.dynamicAggressiveness = false;
    c.fdp.dynamicInsertion = true;
    return c;
}

RunConfig
RunConfig::fullFdp()
{
    RunConfig c;
    c.fdp.dynamicAggressiveness = true;
    c.fdp.dynamicInsertion = true;
    return c;
}

RunConfig
RunConfig::accuracyOnlyFdp()
{
    RunConfig c = fullFdp();
    c.fdp.accuracyOnly = true;
    return c;
}

std::unique_ptr<Prefetcher>
makePrefetcher(PrefetcherKind kind, unsigned level)
{
    switch (kind) {
      case PrefetcherKind::None:
        return nullptr;
      case PrefetcherKind::Stream: {
        StreamPrefetcherParams p;
        p.initialLevel = level;
        return std::make_unique<StreamPrefetcher>(p);
      }
      case PrefetcherKind::GhbCdc: {
        GhbPrefetcherParams p;
        p.initialLevel = level;
        return std::make_unique<GhbPrefetcher>(p);
      }
      case PrefetcherKind::Stride: {
        StridePrefetcherParams p;
        p.initialLevel = level;
        return std::make_unique<StridePrefetcher>(p);
      }
      case PrefetcherKind::Vldp: {
        VldpPrefetcherParams p;
        p.initialLevel = level;
        return std::make_unique<VldpPrefetcher>(p);
      }
      case PrefetcherKind::Dspatch: {
        DspatchPrefetcherParams p;
        p.initialLevel = level;
        return std::make_unique<DspatchPrefetcher>(p);
      }
      case PrefetcherKind::NextLine: {
        NextLinePrefetcherParams p;
        p.initialLevel = level;
        return std::make_unique<NextLinePrefetcher>(p);
      }
    }
    panic("unknown prefetcher kind");
}

const char *
prefetcherKindName(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None: return "none";
      case PrefetcherKind::Stream: return "stream";
      case PrefetcherKind::GhbCdc: return "ghb";
      case PrefetcherKind::Stride: return "stride";
      case PrefetcherKind::Vldp: return "vldp";
      case PrefetcherKind::Dspatch: return "dspatch";
      case PrefetcherKind::NextLine: return "nextline";
    }
    panic("unknown prefetcher kind");
}

const std::vector<std::string> &
knownPrefetcherNames()
{
    static const std::vector<std::string> names = {
        "none",    "stream",   "ghb",     "stride",
        "vldp",    "dspatch",  "nextline", "manager",
    };
    return names;
}

PrefetcherSelection
prefetcherSelectionFromName(const std::string &name)
{
    if (name == "manager")
        return {PrefetcherKind::Stream, ManagerKind::Explore};
    for (const PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Stream,
          PrefetcherKind::GhbCdc, PrefetcherKind::Stride,
          PrefetcherKind::Vldp, PrefetcherKind::Dspatch,
          PrefetcherKind::NextLine})
        if (name == prefetcherKindName(kind))
            return {kind, ManagerKind::Off};
    std::string known;
    for (const auto &n : knownPrefetcherNames())
        known += (known.empty() ? "" : " ") + n;
    fatal("unknown prefetcher `%s' (known: %s)", name.c_str(),
          known.c_str());
}

RunConfig
applyPrefetcherSelection(const RunConfig &base, const std::string &name)
{
    const PrefetcherSelection sel = prefetcherSelectionFromName(name);
    RunConfig c = base;
    c.prefetcher = sel.kind;
    c.manager = sel.manager;
    return c;
}

std::vector<PrefetcherKind>
defaultManagerZoo()
{
    return {PrefetcherKind::Stream, PrefetcherKind::Stride,
            PrefetcherKind::Vldp, PrefetcherKind::Dspatch,
            PrefetcherKind::NextLine};
}

namespace
{

/** The prefetcher's construction-time aggressiveness level. */
unsigned
startLevel(const RunConfig &config)
{
    return config.fdp.dynamicAggressiveness ? config.fdp.initialLevel
                                            : config.staticLevel;
}

} // namespace

std::unique_ptr<Prefetcher>
makeRunPrefetcher(const RunConfig &config)
{
    const unsigned level = startLevel(config);
    if (config.manager == ManagerKind::Off)
        return makePrefetcher(config.prefetcher, level);
    const std::vector<PrefetcherKind> kinds =
        config.managerZoo.empty() ? defaultManagerZoo() : config.managerZoo;
    std::vector<std::unique_ptr<Prefetcher>> zoo;
    zoo.reserve(kinds.size());
    for (const PrefetcherKind kind : kinds) {
        if (kind == PrefetcherKind::None)
            fatal("manager zoo cannot contain `none'");
        zoo.push_back(makePrefetcher(kind, level));
    }
    ManagerParams mp = config.managerParams;
    mp.initialLevel = level;
    return std::make_unique<ManagedPrefetcher>(mp, std::move(zoo));
}

MachineCores::MachineCores(std::vector<Workload *> programs,
                           const RunConfig &config,
                           const std::vector<std::string> &corePrefetchers)
    : workloads(std::move(programs))
{
    const std::size_t n = workloads.size();
    if (!corePrefetchers.empty() && corePrefetchers.size() != n)
        fatal("machine of %zu cores got %zu per-core prefetcher "
              "selections", n, corePrefetchers.size());
    if (n == 1) {
        for (const char *name : {"fdp", "mem", "core"})
            stats.emplace_back(name);
    } else {
        stats.emplace_back("mem");
        for (std::size_t i = 0; i < n; ++i)
            stats.emplace_back("c" + std::to_string(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
        // Heterogeneous machines re-derive each core's config from the
        // base; makeRunPrefetcher picks the same start level the
        // controllers use and wraps the zoo in a manager when selected.
        prefetchers.push_back(makeRunPrefetcher(
            corePrefetchers.empty()
                ? config
                : applyPrefetcherSelection(config, corePrefetchers[i])));
        attached.push_back(config.warmupInsts == 0 ? prefetchers[i].get()
                                                   : nullptr);
        FdpParams fp = config.resolvedFdpParams();
        if (n > 1)
            fp.label = "fdp_controller.c" + std::to_string(i);
        controllerPtrs.push_back(&controllers.emplace_back(
            fp, attached[i], fdpStats(CoreId(i))));
        // One core's share of every shared counter is the total itself.
        memGroups.push_back(n == 1 ? nullptr : &coreStats(CoreId(i)));
    }
}

namespace
{

/** Hand @p manager the interval @p fdp just closed: reconfiguration
 *  and throttling share one boundary. FDP_MANAGER_TRACE=1 logs each
 *  tick to stderr. */
void
tickManager(ManagedPrefetcher &manager, const FdpController &fdp,
            const OooCore &core, const EventQueue &events)
{
    const FeedbackCounters &fc = fdp.counters();
    manager.intervalTick({fc.accuracy(), fc.lateness(), fc.pollution(),
                          core.retired(), events.horizon()});
    if (std::getenv("FDP_MANAGER_TRACE") != nullptr)
        std::cerr << "mgr tick=" << manager.ticks()
                  << " ops=" << core.retired() << " phase="
                  << (manager.phase() == ManagedPrefetcher::Phase::Explore
                          ? "explore"
                          : "exploit")
                  << " active=" << manager.activeName() << '\n';
}

} // namespace

Machine::Machine(std::vector<Workload *> programs, const RunConfig &config,
                 const std::vector<std::string> &corePrefetchers)
    : MachineCores(std::move(programs), config, corePrefetchers),
      mem(config.machine, events, attached, controllerPtrs, memStats(),
          memGroups)
{
    const std::size_t n = workloads.size();
    for (std::size_t i = 0; i < n; ++i) {
        // One core drives the memory system as its own port.
        MemoryPort &port = n == 1 ? static_cast<MemoryPort &>(mem)
                                  : mem.port(CoreId(i));
        cores.emplace_back(config.core, port, events, *workloads[i],
                           coreStats(CoreId(i)));
    }
}

SnapshotParts
Machine::parts()
{
    std::vector<SnapshotParts::Core> parts;
    for (std::size_t i = 0; i < cores.size(); ++i)
        parts.push_back({*workloads[i], cores[i], controllers[i],
                         prefetchers[i].get()});
    std::vector<StatGroup *> groups;
    for (StatGroup &g : stats)
        groups.push_back(&g);
    return SnapshotParts(events, mem, std::move(parts), std::move(groups));
}

void
measurementBoundary(Machine &m)
{
    drainToQuiesce(m.events, m.mem);
    FDP_ASSERT(m.events.empty(),
               "measurement boundary: %zu events pending after drain",
               m.events.size());
    for (StatGroup &g : m.stats)
        g.resetAll();
    m.mem.resetAttribution();
    for (std::size_t i = 0; i < m.cores.size(); ++i) {
        Prefetcher *pf = m.prefetchers[i].get();
        m.controllers[i].setPrefetcher(pf);
        m.controllers[i].reset();
        m.mem.setPrefetcher(pf, CoreId(i));
        // The prefetcher was detached all through warm-up, so for the
        // static kinds this is a no-op on an already-fresh component. A
        // ManagedPrefetcher, though, was ticked by the warm-up's
        // interval boundaries; resetting its FSM here makes the cold
        // path bit-identical to a fork restore (which rebuilds it
        // fresh).
        if (pf)
            pf->reset();
    }
}

// Audit the assembled machine at every sampling-interval boundary so
// structural corruption surfaces at the paper's natural checkpoint
// cadence instead of as silently wrong results.
bool
wireAudits(Machine &m, AuditSet &audits)
{
    const std::size_t n = m.cores.size();
    audits.add(&m.events);
    audits.add(&m.mem);
    for (std::size_t i = 0; i < n; ++i) {
        audits.add(&m.controllers[i]);
        if (m.prefetchers[i])
            audits.add(m.prefetchers[i].get());
        // Auditable frontends (e.g. TraceWorkload) join the same pass.
        if (const auto *aw = dynamic_cast<const Auditable *>(m.workloads[i]))
            audits.add(aw);
    }
    const bool periodicAudit = debugBuild() || auditRequestedByEnv();
    // Each manager samples ITS core's feedback counters and retired
    // count at that controller's interval boundary. Audits ride on the
    // LAST controller only: shared-L2 evictions tick the controllers in
    // core-id order, so only after the last one closes its interval are
    // all interval counts equal again (which the memory audit asserts).
    for (std::size_t i = 0; i < n; ++i) {
        auto *mgr = dynamic_cast<ManagedPrefetcher *>(m.prefetchers[i].get());
        const bool auditsHere = periodicAudit && i + 1 == n;
        if (mgr == nullptr && !auditsHere)
            continue;
        FdpController &ctrl = m.controllers[i];
        OooCore &core = m.cores[i];
        EventQueue &events = m.events;
        ctrl.setEndOfIntervalHook([&audits, &events, &ctrl, &core, mgr,
                                   auditsHere] {
            if (mgr != nullptr)
                tickManager(*mgr, ctrl, core, events);
            if (auditsHere)
                audits.runAll();
        });
    }
    return periodicAudit;
}

void
runSingleCore(Machine &m, std::uint64_t insts)
{
    m.cores.front().run(insts);
}

void
runMachine(Machine &m, const RunConfig &config, MachineDriver drive,
           const std::vector<std::uint8_t> *warmImage)
{
    AuditSet audits;
    const bool periodicAudit = wireAudits(m, audits);

    if (warmImage != nullptr)
        restoreMachine(m.parts(), *warmImage, RestoreMode::Fork);
    else if (config.warmupInsts > 0)
        drive(m, config.warmupInsts);
    if (warmImage != nullptr || config.warmupInsts > 0)
        measurementBoundary(m);
    drive(m, config.numInsts);

    if (periodicAudit)
        audits.runAll();
}

RunResult
extractResult(Machine &m, const std::string &configLabel, CoreId core)
{
    const OooCore &c = m.cores[core.index()];
    const FdpController &fdp = m.controllers[core.index()];
    RunResult r;
    r.benchmark = m.workloads[core.index()]->name();
    r.config = configLabel;
    r.insts = c.retired();
    r.cycles = c.cycles();
    r.ipc = c.ipc();
    r.busAccesses = m.mem.dram().busAccessesByCore(core);
    r.bpki = ratio(static_cast<double>(r.busAccesses),
                   static_cast<double>(r.insts) / 1000.0);
    r.accuracy = fdp.lifetimeAccuracy();
    r.lateness = fdp.lifetimeLateness();
    r.pollution = fdp.lifetimePollution();
    r.l2Misses = m.mem.l2Misses(core);
    r.demandAccesses = m.mem.demandAccesses(core);
    r.mshrStallCount = m.mem.mshrStalls(core);
    r.avgMissLatency = m.mem.avgDemandMissLatency();
    const auto scalar = [](const StatGroup &g, const char *name) {
        for (const ScalarStat *s : g.scalars())
            if (s->name() == name)
                return s->value();
        return std::uint64_t{0};
    };
    r.demandGrants = scalar(m.memStats(), "demand_grants");
    r.prefetchGrants = scalar(m.memStats(), "prefetch_grants");
    r.writebackGrants = scalar(m.memStats(), "writeback_grants");
    r.prefDropQueueFull = scalar(m.memStats(), "pref_drop_queue_full");
    r.prefSent = scalar(m.fdpStats(core), "pref_sent");
    r.prefUsed = scalar(m.fdpStats(core), "pref_used");
    const DistributionStat &ld = fdp.levelDistribution();
    for (std::size_t i = 0; i < r.levelDist.size(); ++i)
        r.levelDist[i] = ld.fraction(i);
    const DistributionStat &id = fdp.insertDistribution();
    for (std::size_t i = 0; i < r.insertDist.size(); ++i)
        r.insertDist[i] = id.fraction(i);
    return r;
}

RunResult
runWorkload(Workload &workload, const RunConfig &config,
            const std::string &configLabel)
{
    Machine m({&workload}, config);
    runMachine(m, config, runSingleCore);
    return extractResult(m, configLabel);
}

RunResult
runBenchmark(const std::string &benchmark, const RunConfig &config,
             const std::string &configLabel)
{
    // The workload seed is the benchmark's hand-calibrated one from
    // spec_suite.cc — a pure function of the benchmark name and nothing
    // else. Every configuration therefore simulates the identical
    // trace, so cross-config deltas isolate the config effect, and
    // results stay bit-identical for any thread count or completion
    // order (DESIGN.md Section 10).
    SyntheticWorkload workload(benchmarkParams(benchmark));
    return runWorkload(workload, config, configLabel);
}

RunResult
recordBenchmark(const std::string &benchmark, const RunConfig &config,
                const std::string &configLabel,
                const std::string &tracePath)
{
    const SyntheticParams &params = benchmarkParams(benchmark);
    SyntheticWorkload workload(params);
    TraceWriter writer(tracePath, benchmark, params.seed);
    RecordingWorkload recorder(workload, writer);
    const RunResult r = runWorkload(recorder, config, configLabel);
    writer.finish();
    return r;
}

RunResult
replayTrace(const std::string &tracePath, const RunConfig &config,
            const std::string &configLabel)
{
    TraceWorkload workload(tracePath);
    const std::uint64_t available = workload.reader().header().opCount;
    if (config.warmupInsts + config.numInsts > available)
        fatal("trace %s holds %llu micro-ops but this run consumes "
              "%llu; record a longer trace", tracePath.c_str(),
              static_cast<unsigned long long>(available),
              static_cast<unsigned long long>(config.warmupInsts +
                                              config.numInsts));
    return runWorkload(workload, config, configLabel);
}

std::vector<RunResult>
runSuite(const std::vector<std::string> &benchmarks,
         const RunConfig &config, const std::string &configLabel)
{
    std::vector<RunResult> results;
    results.reserve(benchmarks.size());
    for (const auto &b : benchmarks)
        results.push_back(runBenchmark(b, config, configLabel));
    return results;
}

std::uint64_t
parseCountArg(const char *flag, const char *text, std::uint64_t maxValue)
{
    if (text == nullptr || *text == '\0')
        fatal("%s: empty value (expected a positive integer)", flag);
    std::uint64_t value = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc::result_out_of_range)
        fatal("%s: value `%s' does not fit in 64 bits", flag, text);
    if (ec != std::errc() || ptr != end)
        fatal("%s: `%s' is not a positive integer", flag, text);
    if (value == 0)
        fatal("%s: must be at least 1", flag);
    if (value > maxValue)
        fatal("%s: %llu is implausibly large (max %llu)", flag,
              static_cast<unsigned long long>(value),
              static_cast<unsigned long long>(maxValue));
    return value;
}

std::uint64_t
instructionBudget(int argc, char **argv, std::uint64_t fallback)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            return 1'000'000;
        if (std::strcmp(argv[i], "--insts") == 0) {
            if (i + 1 >= argc)
                fatal("--insts requires a value (instruction count)");
            return parseCountArg("--insts", argv[i + 1]);
        }
    }
    return fallback;
}

} // namespace fdp
