#include "harness/experiment.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

SimMachine::SimMachine(Workload &workload, const RunConfig &config)
    : prefetcher(makeRunPrefetcher(config)),
      fdp(config.resolvedFdpParams(),
          config.warmupInsts == 0 ? prefetcher.get() : nullptr, fdpStats),
      mem(config.machine, events,
          config.warmupInsts == 0 ? prefetcher.get() : nullptr, fdp,
          memStats),
      core(config.core, mem, events, workload, coreStats),
      workload(workload)
{
}

SnapshotParts
SimMachine::parts()
{
    return SnapshotParts{events,   workload, core,     mem,      fdp,
                         prefetcher.get(),   fdpStats, memStats, coreStats};
}

void
measurementBoundary(SimMachine &m)
{
    drainToQuiesce(m.events, m.mem);
    FDP_ASSERT(m.events.empty(),
               "measurement boundary: %zu events pending after drain",
               m.events.size());
    m.fdpStats.resetAll();
    m.memStats.resetAll();
    m.coreStats.resetAll();
    m.mem.resetAttribution();
    m.fdp.setPrefetcher(m.prefetcher.get());
    m.fdp.reset();
    m.mem.setPrefetcher(m.prefetcher.get());
    // The prefetcher was detached all through warm-up, so for the
    // static kinds this is a no-op on an already-fresh component. A
    // ManagedPrefetcher, though, was ticked by the warm-up's interval
    // boundaries; resetting its FSM here makes the cold path
    // bit-identical to a fork restore (which rebuilds it fresh).
    if (m.prefetcher)
        m.prefetcher->reset();
}

// Audit the assembled machine at every sampling-interval boundary so
// structural corruption surfaces at the paper's natural checkpoint
// cadence instead of as silently wrong results.
bool
wireAudits(SimMachine &m, AuditSet &audits)
{
    audits.add(&m.events);
    audits.add(&m.fdp);
    audits.add(&m.mem);
    if (m.prefetcher)
        audits.add(m.prefetcher.get());
    // Auditable frontends (e.g. TraceWorkload) join the same pass.
    if (const auto *aw = dynamic_cast<const Auditable *>(&m.workload))
        audits.add(aw);
    const bool periodicAudit = debugBuild() || auditRequestedByEnv();
    // A managed prefetcher consumes each closed interval; audit builds
    // then verify the whole machine at the same paper checkpoint.
    auto *manager = dynamic_cast<ManagedPrefetcher *>(m.prefetcher.get());
    m.fdp.setEndOfIntervalHook([&m, &audits, periodicAudit, manager] {
        if (manager != nullptr)
            tickManager(*manager, m.fdp, m.core, m.events);
        if (periodicAudit)
            audits.runAll();
    });
    return periodicAudit;
}

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

RunResult
extractResult(SimMachine &m, const std::string &configLabel)
{
    RunResult r;
    r.benchmark = m.workload.name();
    r.config = configLabel;
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
    for (const auto *s : m.memStats.scalars()) {
        if (s->name() == "demand_grants")
            r.demandGrants = s->value();
        else if (s->name() == "prefetch_grants")
            r.prefetchGrants = s->value();
        else if (s->name() == "writeback_grants")
            r.writebackGrants = s->value();
        else if (s->name() == "pref_drop_queue_full")
            r.prefDropQueueFull = s->value();
    }

    for (const auto *s : m.fdpStats.scalars()) {
        if (s->name() == "pref_sent")
            r.prefSent = s->value();
        else if (s->name() == "pref_used")
            r.prefUsed = s->value();
    }
    const DistributionStat &ld = m.fdp.levelDistribution();
    for (std::size_t i = 0; i < r.levelDist.size(); ++i)
        r.levelDist[i] = ld.fraction(i);
    const DistributionStat &id = m.fdp.insertDistribution();
    for (std::size_t i = 0; i < r.insertDist.size(); ++i)
        r.insertDist[i] = id.fraction(i);
    return r;
}

RunResult
runWorkload(Workload &workload, const RunConfig &config,
            const std::string &configLabel)
{
    SimMachine m(workload, config);

    AuditSet audits;
    const bool periodicAudit = wireAudits(m, audits);

    if (config.warmupInsts > 0) {
        m.core.run(config.warmupInsts);
        measurementBoundary(m);
    }
    m.core.run(config.numInsts);

    if (periodicAudit)
        audits.runAll();

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
