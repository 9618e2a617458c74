/**
 * @file
 * Traced machines: the same single-core and multi-core machines the
 * simulator library assembles (SimMachine, runMcWorkloads), built here
 * from the library's public constructors with the tracer's decorators
 * at every layer boundary, and driven by a stepped loop that times each
 * OooCore::step and EventQueue::serviceUntil call.
 *
 * A traced run must reproduce the untraced run's deterministic results
 * bit for bit; the benchmark checks that it does.
 */

#ifndef PERFBENCH_TRACED_MACHINE_HH
#define PERFBENCH_TRACED_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "mc/mc_machine.hh"
#include "tracer.hh"

namespace perfbench
{

/**
 * Simulated statistics of traced runs, read from the public stat groups
 * and accessors once each run ends, summed over every run of a rep.
 * The per-layer model metrics are ratios of these sums.
 */
struct ModelCounts
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t robFullCycles = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t prefDrops = 0;
    std::uint64_t demandMissFills = 0;
    std::uint64_t demandMissCycles = 0;
    std::uint64_t prefSent = 0;
    std::uint64_t prefUsed = 0;
    std::uint64_t prefLate = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t pollutionMisses = 0;
    std::uint64_t intervals = 0;
    std::array<std::uint64_t, 5> levelBuckets{};
    std::array<std::uint64_t, 4> insertBuckets{};
    std::uint64_t busAccesses = 0;
    std::uint64_t busBusyCycles = 0;
    /** Data buses x elapsed cycles: the bus-utilization base. */
    std::uint64_t busCapacityCycles = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t rowEmpties = 0;
    std::uint64_t promotions = 0;
    std::uint64_t lowTierDrops = 0;
    /** DRAM queue occupancy summed at each event-service step. */
    std::uint64_t queuedSum = 0;
    std::uint64_t queuedSamples = 0;
    std::uint64_t eventsServiced = 0;
    std::uint64_t crossPollution = 0;
    /** Lowest and highest per-core IPC of co-runs (0 = no co-run). */
    double coreIpcMin = 0.0;
    double coreIpcMax = 0.0;

    void add(const ModelCounts &other);
};

/**
 * One traced single-core run of @p workload under @p config: the
 * machine SimMachine builds, with a TimedPrefetcher (logging into
 * @p log when non-null), a TimedPort and a TimedWorkload. With a
 * @p warmImage body the machine is fork-restored from it and crosses
 * the measurement boundary first (runBenchmarkFromSnapshot); without
 * one it starts from reset. Adds its model statistics into @p counts
 * and returns the RunResult extractResult would give.
 */
fdp::RunResult runTracedSingle(fdp::Workload &workload,
                               const fdp::RunConfig &config,
                               const std::string &label,
                               const std::vector<std::uint8_t> *warmImage,
                               Tracer &tracer, PrefetchLog *log,
                               ModelCounts &counts);

/**
 * One traced co-run of @p workloads under @p config, as
 * runMcWorkloads runs it (lockstep, one event queue). @p logs holds
 * one PrefetchLog per core, or is empty to record nothing.
 */
fdp::McRunResult runTracedMc(
    const fdp::McRunConfig &config,
    const std::vector<std::unique_ptr<fdp::Workload>> &workloads,
    const std::string &mixName, const std::string &label, Tracer &tracer,
    const std::vector<PrefetchLog *> &logs, ModelCounts &counts);

} // namespace perfbench

#endif // PERFBENCH_TRACED_MACHINE_HH
