/**
 * @file
 * Parallel sweep scheduler for the experiment harness.
 *
 * Every paper artifact is a benchmark x configuration sweep of fully
 * independent simulated machines, so the harness fans each (benchmark,
 * config) cell out to a fixed-size thread pool. Determinism contract
 * (DESIGN.md Section 10): each run's workload seed is the benchmark's
 * calibrated one from spec_suite.cc — a pure function of the benchmark
 * name, so every config sees the identical trace — and a run shares no
 * mutable state with any other run, so result tables are bit-identical
 * regardless of thread count or completion order.
 *
 * This is the only file in src/ or tools/ allowed to touch std::thread
 * (enforced by fdp_analyze rule pool-only-threading).
 */

#ifndef FDP_HARNESS_SWEEP_POOL_HH
#define FDP_HARNESS_SWEEP_POOL_HH

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace fdp
{

/**
 * Fixed-size worker pool. Jobs are opaque closures; the pool makes no
 * fairness or ordering guarantee between them, which is why sweep
 * results are written into pre-sized slots instead of being collected
 * in completion order.
 */
class SweepPool
{
  public:
    /** Spin up @p threads workers (clamped to at least one). */
    explicit SweepPool(unsigned threads);

    /**
     * Joins all workers. Jobs that have not started yet are dropped so
     * an early exit (e.g. an exception unwinding a sweep) cannot hang
     * on a deep queue; the currently running jobs complete first.
     */
    ~SweepPool();

    SweepPool(const SweepPool &) = delete;
    SweepPool &operator=(const SweepPool &) = delete;

    /** Enqueue one job. Must not be called concurrently with wait(). */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished, then rethrow the
     * first exception any job raised (if one did).
     */
    void wait();

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> pending_;
    std::vector<std::thread> workers_;
    std::size_t running_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Run every job on a SweepPool of @p threads workers and wait for all
 * of them. A fatal() inside a job is re-raised here, on the calling
 * thread, only after every worker has joined, so the exit cannot race
 * them. The one pool path of runSweep and runMixSweep.
 */
void runPoolJobs(unsigned threads, std::vector<std::function<void()>> jobs);

/** One labeled configuration column of a sweep. */
using LabeledConfig = std::pair<std::string, RunConfig>;

/**
 * Result-store attachment for sweeps (see harness/result_store.hh).
 * With a directory set, every fresh cell is persisted there; with
 * resume also set, cells whose key is already present are served from
 * the store instead of being re-simulated. Because stored results are
 * bit-identical to freshly computed ones (determinism contract), the
 * merged output is byte-for-byte the same as a cold run's.
 */
struct SweepStoreConfig
{
    std::string dir;     ///< empty = store disabled
    bool resume = false; ///< reuse cells already present

    bool enabled() const { return !dir.empty(); }
};

/**
 * Parse "--store DIR" / "--resume" from a bench binary's command line.
 * Fatal when --store is trailing or --resume appears without --store.
 */
SweepStoreConfig parseSweepStoreArgs(int argc, char **argv);

/** Install @p config process-wide for subsequent runSweep calls. */
void setSweepStore(const SweepStoreConfig &config);

/** The installed store configuration (disabled by default). */
const SweepStoreConfig &sweepStore();

/**
 * One-call adoption for bench binaries: parse --store/--resume from
 * argv and install the result. Returns the parsed configuration.
 */
SweepStoreConfig configureSweepStore(int argc, char **argv);

/**
 * Run every (benchmark, config) cell of a sweep, fanning the cells out
 * over @p jobs worker threads (0 = defaultSweepJobs(); 1 = one worker
 * running the cells in turn). results[c][b] is benchmark
 * b under configs[c], in the argument order, regardless of completion
 * order. Cells are handed to the pool longest-first (LPT by the
 * config's instruction count) so a long run picked up last cannot
 * leave the tail of the sweep running on one thread; the ordering only
 * affects wall-clock, never results. Prints one sweep-throughput line
 * to stderr (stdout tables stay bit-identical across thread counts).
 */
std::vector<std::vector<RunResult>>
runSweep(const std::vector<std::string> &benchmarks,
         const std::vector<LabeledConfig> &configs, unsigned jobs = 0);

/** Single-configuration sweep: the parallel form of runSuite(). */
std::vector<RunResult>
runSuiteParallel(const std::vector<std::string> &benchmarks,
                 const RunConfig &config, const std::string &configLabel,
                 unsigned jobs = 0);

/**
 * Sweep width when the caller does not say: FDP_JOBS from the
 * environment if set (fatal if not a positive integer), else
 * hardware_concurrency, else 1.
 */
unsigned defaultSweepJobs();

/**
 * Parse "--jobs N" from a bench binary's command line; falls back to
 * defaultSweepJobs(). Fatal with a clear diagnostic on a missing,
 * non-numeric, zero, or implausibly large value.
 */
unsigned sweepJobs(int argc, char **argv);

} // namespace fdp

#endif // FDP_HARNESS_SWEEP_POOL_HH
