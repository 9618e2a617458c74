/**
 * @file
 * The benchmark's four workloads (see README.md for why each exists).
 *
 * A workload sets up its inputs from a seed, runs one untraced "rep"
 * of simulation work at a time through the library's own entry points
 * (runWorkload, runMcWorkloads, replayTrace, a warm-fork sweep over
 * SweepPool), and runs the same rep traced through the machines of
 * traced_machine.hh. Every rep returns its deterministic outputs as
 * records, so reps can be checked against each other, against the
 * traced rep, and against the library's reference entry points.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "traced_machine.hh"
#include "tracer.hh"

namespace perfbench
{

/** The calibrated per-benchmark seeds of spec_suite.cc. */
inline constexpr std::uint64_t kCalibratedSeed = 0;

/** Command-line settings a workload needs. */
struct Options
{
    std::string workload;
    /** kCalibratedSeed, or the seed every generator is rebuilt with. */
    std::uint64_t seed = kCalibratedSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for files the workload writes (trace recordings). */
    std::string workDir;
};

/** One deterministic output: a name and its values in a fixed order. */
struct Record
{
    std::string name;
    std::vector<std::pair<std::string, double>> values;

    /** Bit-exact text form (hex floats) for equality checks. */
    std::string fingerprint() const;
};

/** Fingerprint of a whole record list. */
std::string fingerprint(const std::vector<Record> &records);

/** Host timings of one warm-fork sweep rep. */
struct SweepTiming
{
    unsigned workers = 0;
    double wallS = 0.0;
    /** Wall time of the per-benchmark warm-ups and captures. */
    double warmS = 0.0;
    /** Wall time of the cell phase (pool start to last cell). */
    double cellPhaseS = 0.0;
    std::vector<double> cellS;
    double captureS = 0.0;
    double restoreS = 0.0;
    std::uint64_t captures = 0;
    std::uint64_t restores = 0;
    std::uint64_t imageBytes = 0;
};

/** What one rep produced. */
struct RepResult
{
    /** Simulated runs (benchmarks, co-runs or cells) in the rep. */
    std::uint64_t runs = 0;
    /** Retired simulated instructions over every core and run. */
    std::uint64_t insts = 0;
    /** Memory-bus accesses over every run. */
    std::uint64_t busAccesses = 0;
    /** IPC of each run; a co-run's is the sum of its per-core IPCs. */
    std::vector<double> ipcs;
    std::vector<Record> records;
    SweepTiming sweep;
};

/** A prefetch log with the configuration its prefetcher was built for. */
struct LoggedPrefetcher
{
    fdp::RunConfig config;
    PrefetchLog log;
};

/** What a traced rep collects besides its RepResult. */
struct TraceSink
{
    Tracer tracer;
    ModelCounts counts;
    /** Busy thread-seconds of the rep: the base of every share. */
    double busyS = 0.0;
    /** Non-null on the rep that records prefetcher calls. */
    std::deque<LoggedPrefetcher> *logs = nullptr;
    /** Calls each new log may hold. */
    std::size_t logCapacity = 0;
};

/** Outcome of one named output check. */
struct Check
{
    std::string name;
    bool ok = true;
    /** Simulated runs the check covers (counted as attempted). */
    std::uint64_t runs = 0;
    std::string detail;
    /** Runs among them whose output was wrong. */
    std::uint64_t failedRuns = 0;
};

/**
 * One benchmark workload.
 *
 * A workload has variants(): input sets whose generator seeds are all
 * derived from the one --seed (variant 0 uses the seed itself). Rep r
 * simulates variant r % variants(), so a run covers every variant and
 * its model metrics average over them.
 */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Input sets a run cycles through. */
    virtual unsigned variants() const = 0;

    /** Build every variant's inputs from the seed and warm the host
     *  (an untimed rep, trace recordings). Called several times; each
     *  call is timed. */
    virtual void setup() = 0;

    /** One untraced rep of @p variant. */
    virtual RepResult rep(unsigned variant) = 0;

    /** The same rep through traced machines. */
    virtual RepResult tracedRep(unsigned variant, TraceSink &sink) = 0;

    /** Checks beyond rep-to-rep equality, given the first rep of every
     *  variant (indexed by variant). */
    virtual std::vector<Check> checks(const std::vector<RepResult> &first) = 0;

    /** Workload-specific report values (trace bytes per op, ...). */
    virtual std::vector<std::pair<std::string, double>>
    extras() const
    {
        return {};
    }
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p opts.workload; nullptr for an unknown name. */
std::unique_ptr<BenchWorkload> makeWorkload(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
