/**
 * @file
 * Experiment runner: assembles a full simulated machine (workload ->
 * core -> memory system -> prefetcher -> FDP controller), runs it, and
 * returns the metrics every paper table/figure is built from.
 */

#ifndef FDP_HARNESS_EXPERIMENT_HH
#define FDP_HARNESS_EXPERIMENT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fdp_controller.hh"
#include "cpu/ooo_core.hh"
#include "manage/prefetcher_manager.hh"
#include "mem/memory_system.hh"
#include "prefetch/prefetcher.hh"
#include "snap/machine_snapshot.hh"
#include "workload/generators.hh"

namespace fdp
{

/** Which prefetcher the machine uses. */
enum class PrefetcherKind : std::uint8_t
{
    None,
    Stream,
    GhbCdc,
    Stride,
    Vldp,
    Dspatch,
    NextLine,
};

/** Whether a runtime manager sits above the prefetcher. */
enum class ManagerKind : std::uint8_t
{
    /** The configured PrefetcherKind runs statically. */
    Off,
    /** ManagedPrefetcher explores/exploits the configured zoo. */
    Explore,
};

/** One complete machine + policy configuration. */
struct RunConfig
{
    MachineParams machine;
    CoreParams core;
    PrefetcherKind prefetcher = PrefetcherKind::Stream;
    /** Aggressiveness used while dynamic aggressiveness is off. */
    unsigned staticLevel = kMaxAggrLevel;
    FdpParams fdp;
    /** Runtime prefetcher management above FDP (DESIGN.md §17). */
    ManagerKind manager = ManagerKind::Off;
    ManagerParams managerParams;
    /** Candidate zoo when manager != Off; empty = defaultManagerZoo(). */
    std::vector<PrefetcherKind> managerZoo;
    std::uint64_t numInsts = 5'000'000;
    /**
     * Instructions simulated before measurement begins. The warm-up
     * phase runs with the prefetcher detached, so the warmed machine
     * state is a pure function of (benchmark, machine geometry,
     * warmupInsts) — never of the prefetcher or FDP policy — and one
     * warm snapshot can seed every cell of a policy sweep
     * (DESIGN.md Section 16). 0 (the default) measures from reset.
     */
    std::uint64_t warmupInsts = 0;

    /** FdpParams as every core's controller runs them: a static
     *  configuration pins the controller to the static level. */
    FdpParams resolvedFdpParams() const;

    /// @name Named configurations used throughout the paper
    /// @{

    /** No prefetcher at all. */
    static RunConfig noPrefetching();

    /** Traditional static configuration at @p level, MRU insertion. */
    static RunConfig staticLevelConfig(unsigned level,
                                       InsertPos ins = InsertPos::Mru);

    /** Dynamic Aggressiveness only (Section 5.1). */
    static RunConfig dynamicAggressiveness();

    /** Dynamic Insertion only, on a Very Aggressive prefetcher (5.2). */
    static RunConfig dynamicInsertion(unsigned staticLevel = kMaxAggrLevel);

    /** Full FDP: Dynamic Aggressiveness + Dynamic Insertion (5.3). */
    static RunConfig fullFdp();

    /** Section 5.6 ablation: throttle on accuracy alone. */
    static RunConfig accuracyOnlyFdp();

    /// @}
};

/** Everything a bench binary needs from one run. */
struct RunResult
{
    std::string benchmark;
    std::string config;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;
    /** Memory bus accesses per thousand retired instructions. */
    double bpki = 0.0;
    double accuracy = 0.0;
    double lateness = 0.0;
    double pollution = 0.0;
    std::uint64_t prefSent = 0;
    std::uint64_t prefUsed = 0;
    std::uint64_t busAccesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandGrants = 0;
    std::uint64_t prefetchGrants = 0;
    std::uint64_t writebackGrants = 0;
    std::uint64_t mshrStallCount = 0;
    std::uint64_t prefDropQueueFull = 0;
    double avgMissLatency = 0.0;
    /** Fraction of sampling intervals at each aggressiveness level. */
    std::array<double, 5> levelDist{};
    /** Fraction of prefetch fills per insertion position (LRU..MRU). */
    std::array<double, 4> insertDist{};
};

/** Build the configured prefetcher (nullptr for PrefetcherKind::None). */
std::unique_ptr<Prefetcher> makePrefetcher(PrefetcherKind kind,
                                           unsigned level);

/** Stable CLI/name-table identifier for @p kind ("stream", "vldp", …). */
const char *prefetcherKindName(PrefetcherKind kind);

/**
 * A per-core prefetcher selection as named on a command line or in a
 * workload mix: either one concrete PrefetcherKind, or the runtime
 * manager over the default zoo.
 */
struct PrefetcherSelection
{
    PrefetcherKind kind = PrefetcherKind::Stream;
    ManagerKind manager = ManagerKind::Off;
};

/** Every name prefetcherSelectionFromName accepts, in display order. */
const std::vector<std::string> &knownPrefetcherNames();

/** Resolve "none|stream|ghb|stride|vldp|dspatch|nextline|manager";
 *  unknown names are a clean fatal listing the valid ones. */
PrefetcherSelection prefetcherSelectionFromName(const std::string &name);

/** Apply @p name's selection to a copy of @p base. */
RunConfig applyPrefetcherSelection(const RunConfig &base,
                                   const std::string &name);

/** The manager's candidate zoo when RunConfig.managerZoo is empty. */
std::vector<PrefetcherKind> defaultManagerZoo();

/**
 * Build the run's prefetcher from the full config: the static
 * PrefetcherKind when the manager is off, or a ManagedPrefetcher over
 * the configured zoo (every candidate at the config's start level).
 */
std::unique_ptr<Prefetcher> makeRunPrefetcher(const RunConfig &config);

/**
 * One fully-assembled simulated machine: the event queue, the three
 * stat groups, the prefetcher, the FDP controller, the memory system,
 * and the core, wired together for @p config and driving @p workload.
 *
 * When @p config.warmupInsts is 0 the prefetcher is attached from
 * construction (the classic measure-from-reset machine). Otherwise it
 * is built but left detached — the warm-up phase runs prefetcher-free,
 * and measurementBoundary() attaches it. Snapshot capture and restore
 * see the machine through parts().
 */
struct SimMachine
{
    SimMachine(Workload &workload, const RunConfig &config);

    /** The snapshot view of this machine. */
    SnapshotParts parts();

    EventQueue events;
    StatGroup fdpStats{"fdp"};
    StatGroup memStats{"mem"};
    StatGroup coreStats{"core"};
    std::unique_ptr<Prefetcher> prefetcher;
    FdpController fdp;
    MemorySystem mem;
    OooCore core;
    Workload &workload;
};

/**
 * Transition @p m from warm-up to measurement: drain in-flight misses
 * to a quiesce point, zero every statistic and the memory system's
 * per-core attribution, reset the FDP controller to its configured
 * initial policy, and attach the per-configuration prefetcher. Both
 * the cold path (after an in-place warm-up run) and the fork path
 * (after restoring a warm snapshot) cross exactly this boundary, which
 * is what makes them bit-identical.
 */
void measurementBoundary(SimMachine &m);

/**
 * Wire @p m's Auditable components into @p audits and, in debug builds
 * (or under FDP_AUDIT=1), re-audit at every sampling-interval boundary.
 * Returns whether periodic auditing is active, so the caller knows to
 * run a final pass after the measured run.
 */
bool wireAudits(SimMachine &m, AuditSet &audits);

/**
 * Hand @p manager the interval @p fdp just closed, from that controller's
 * end-of-interval hook: reconfiguration and throttling share one
 * boundary. FDP_MANAGER_TRACE=1 logs each tick to stderr.
 */
void tickManager(ManagedPrefetcher &manager, const FdpController &fdp,
                 const OooCore &core, const EventQueue &events);

/** Pull every RunResult field out of a finished measured run. */
RunResult extractResult(SimMachine &m, const std::string &configLabel);

/**
 * Run one named SPEC stand-in under @p config.
 *
 * The workload seed is the benchmark's calibrated one from
 * spec_suite.cc — a pure function of the benchmark name alone, never of
 * the configuration, scheduling, or completion order of other runs. All
 * configurations therefore see the identical trace (DESIGN.md Section
 * 10); runWorkload leaves caller-built workloads untouched.
 */
RunResult runBenchmark(const std::string &benchmark,
                       const RunConfig &config,
                       const std::string &configLabel);

/** Run a custom workload under @p config. */
RunResult runWorkload(Workload &workload, const RunConfig &config,
                      const std::string &configLabel);

/**
 * Run @p benchmark live exactly as runBenchmark does while recording
 * every micro-op the core consumes into an fdptrace-v1 file at
 * @p tracePath. The core pulls exactly numInsts ops, so replaying the
 * file with the same configuration is bit-identical to this run.
 */
RunResult recordBenchmark(const std::string &benchmark,
                          const RunConfig &config,
                          const std::string &configLabel,
                          const std::string &tracePath);

/**
 * Replay a recorded trace through the standard machine. Fatal (before
 * simulating anything) when the trace holds fewer micro-ops than
 * config.numInsts would consume.
 */
RunResult replayTrace(const std::string &tracePath,
                      const RunConfig &config,
                      const std::string &configLabel);

/** Run every benchmark in @p benchmarks under @p config. */
std::vector<RunResult> runSuite(const std::vector<std::string> &benchmarks,
                                const RunConfig &config,
                                const std::string &configLabel);

/**
 * Instruction-count override for bench binaries: honors
 * "--insts N" and "--quick" (1M) command-line flags. Fatal with a
 * clear diagnostic when --insts is trailing or not a number.
 */
std::uint64_t instructionBudget(int argc, char **argv,
                                std::uint64_t fallback = 5'000'000);

/**
 * Parse the value of a numeric command-line flag defensively: fatal
 * (with the offending flag and text in the message) unless @p text is
 * a plain positive decimal integer no larger than @p maxValue.
 */
std::uint64_t parseCountArg(const char *flag, const char *text,
                            std::uint64_t maxValue = ~0ull);

} // namespace fdp

#endif // FDP_HARNESS_EXPERIMENT_HH
