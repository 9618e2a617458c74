#include "harness/sweep_pool.hh"

// fdp-analyze: suppress-file(wall-clock, steady_clock feeds the
// stderr throughput report only; simulated results never read it)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>

#include "harness/reporting.hh"
#include "harness/result_store.hh"
#include "harness/warm_fork.hh"
#include "sim/logging.hh"
#include "workload/spec_suite.hh"

namespace fdp
{

namespace
{

// More workers than this is a configuration typo, not a machine.
constexpr std::uint64_t kMaxSweepJobs = 4096;

/** Process-wide store attachment (set once at startup, before any
 *  sweep runs, so there is no cross-thread mutation to order). */
SweepStoreConfig g_sweepStore;

} // namespace

SweepStoreConfig
parseSweepStoreArgs(int argc, char **argv)
{
    SweepStoreConfig config;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--store") == 0) {
            if (i + 1 >= argc)
                fatal("--store requires a directory path argument");
            config.dir = argv[++i];
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            config.resume = true;
        }
    }
    if (config.resume && config.dir.empty())
        fatal("--resume needs --store DIR (nothing to resume from)");
    return config;
}

void
setSweepStore(const SweepStoreConfig &config)
{
    if (config.resume && config.dir.empty())
        fatal("sweep store: resume without a store directory");
    g_sweepStore = config;
}

const SweepStoreConfig &
sweepStore()
{
    return g_sweepStore;
}

SweepStoreConfig
configureSweepStore(int argc, char **argv)
{
    const SweepStoreConfig config = parseSweepStoreArgs(argc, argv);
    setSweepStore(config);
    return config;
}

SweepPool::SweepPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SweepPool::~SweepPool()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        pending_.clear();
    }
    workReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
SweepPool::submit(std::function<void()> job)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        pending_.push_back(std::move(job));
    }
    workReady_.notify_one();
}

void
SweepPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock,
                  [this] { return pending_.empty() && running_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
SweepPool::workerLoop()
{
    // A fatal() inside a job must not std::exit(1) from a worker:
    // sibling workers would still be running while static destructors
    // tear the process down. The guard turns it into a FatalError that
    // the catch below stores and wait() rethrows on the main thread.
    const detail::FatalThrowsGuard fatalThrows;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !pending_.empty();
            });
            if (stopping_)
                return;
            job = std::move(pending_.front());
            pending_.pop_front();
            ++running_;
        }
        try {
            job();
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --running_;
            if (pending_.empty() && running_ == 0)
                allDone_.notify_all();
        }
    }
}

void
runPoolJobs(unsigned threads, std::vector<std::function<void()>> jobs)
{
    // A worker fatal is deferred (FatalThrowsGuard) and re-raised here
    // on the calling thread, once the pool has left scope.
    std::string workerFatal;
    bool sawWorkerFatal = false;
    {
        SweepPool pool(threads);
        for (std::function<void()> &job : jobs)
            pool.submit(std::move(job));
        try {
            pool.wait();
        } catch (const FatalError &e) {
            sawWorkerFatal = true;
            workerFatal = e.what();
        }
    }
    if (sawWorkerFatal)
        fatal("%s", workerFatal.c_str());
}

std::vector<std::vector<RunResult>>
runSweep(const std::vector<std::string> &benchmarks,
         const std::vector<LabeledConfig> &configs, unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultSweepJobs();
    const std::size_t cells = benchmarks.size() * configs.size();
    // Clamp so the throughput line reports the worker count that
    // actually ran: never more than one per cell.
    if (static_cast<std::size_t>(jobs) > cells)
        jobs = cells == 0 ? 1 : static_cast<unsigned>(cells);
    // A bad benchmark name is a user error: report it from the main
    // thread, before any worker exists, instead of from inside a job.
    for (const auto &b : benchmarks)
        benchmarkParams(b);
    const auto start = std::chrono::steady_clock::now();

    std::vector<std::vector<RunResult>> results(configs.size());
    for (auto &row : results)
        row.resize(benchmarks.size());

    // Result-store attachment: resolve every cell's key up front (the
    // workload trace hash is memoized per (benchmark, numInsts) pair),
    // and serve resumable cells straight into their slots. All store
    // lookups happen here on the main thread; workers only insert, and
    // each insert touches its own entry file.
    const SweepStoreConfig storeCfg = sweepStore();
    std::unique_ptr<ResultStore> store;
    std::vector<StoreKey> keys;
    std::vector<char> cached;
    std::size_t hits = 0;
    if (storeCfg.enabled()) {
        store = std::make_unique<ResultStore>(storeCfg.dir);
        keys.resize(cells);
        cached.assign(cells, 0);
        std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
            traceHashes;
        for (std::size_t cell = 0; cell < cells; ++cell) {
            const std::size_t c = cell / benchmarks.size();
            const std::size_t b = cell % benchmarks.size();
            const auto hk = std::make_pair(benchmarks[b],
                                           configs[c].second.numInsts);
            auto it = traceHashes.find(hk);
            if (it == traceHashes.end())
                it = traceHashes
                         .emplace(hk,
                                  workloadTraceHash(hk.first, hk.second))
                         .first;
            keys[cell] = makeStoreKey(benchmarks[b], configs[c].second,
                                      configs[c].first, it->second);
            if (storeCfg.resume &&
                store->lookup(keys[cell], &results[c][b])) {
                cached[cell] = 1;
                ++hits;
            }
        }
    }
    const auto isCached = [&](std::size_t cell) {
        return !cached.empty() && cached[cell] != 0;
    };

    // Warm-fork attachment: cells with a warm-up phase share one
    // neutral warm snapshot per (benchmark, geometry, warmup) group —
    // captured here on the main thread (or served from the store's
    // snaps/ subdirectory), then fork-restored by each cell. Restoring
    // is bit-identical to warming in place (DESIGN.md Section 16), so
    // results do not depend on whether forking is active; FDP_NO_WARM_FORK=1
    // forces every cell down the cold in-place path.
    std::vector<std::shared_ptr<const SnapshotImage>> cellImage(cells);
    std::size_t snapGroups = 0, snapHits = 0;
    const char *noForkEnv = std::getenv("FDP_NO_WARM_FORK");
    if (noForkEnv == nullptr || *noForkEnv == '\0' ||
        std::strcmp(noForkEnv, "0") == 0) {
        std::map<std::string, std::shared_ptr<const SnapshotImage>> images;
        std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
            warmHashes;
        for (std::size_t cell = 0; cell < cells; ++cell) {
            if (isCached(cell))
                continue;
            const std::size_t c = cell / benchmarks.size();
            const std::size_t b = cell % benchmarks.size();
            const RunConfig &cfg = configs[c].second;
            if (cfg.warmupInsts == 0)
                continue;
            const auto hk =
                std::make_pair(benchmarks[b], cfg.warmupInsts);
            auto ht = warmHashes.find(hk);
            if (ht == warmHashes.end())
                ht = warmHashes
                         .emplace(hk,
                                  workloadTraceHash(hk.first, hk.second))
                         .first;
            const std::string key =
                warmSnapshotKey(benchmarks[b], cfg, ht->second);
            auto it = images.find(key);
            if (it == images.end()) {
                bool hit = false;
                it = images
                         .emplace(key, std::make_shared<SnapshotImage>(
                                           loadOrCaptureWarmSnapshot(
                                               storeCfg.dir, benchmarks[b],
                                               cfg, ht->second, &hit)))
                         .first;
                ++snapGroups;
                if (hit)
                    ++snapHits;
            }
            cellImage[cell] = it->second;
        }
    }
    // LPT scheduling: submit the longest cells (most simulated
    // instructions) first so the pool tail does not idle behind one
    // long run picked up last. Ties keep the c-major submission order,
    // and every result still lands in its pre-sized slot, so the output
    // tables are unaffected by the ordering.
    std::vector<std::size_t> order;
    order.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i)
        if (!isCached(i))
            order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t lhs, std::size_t rhs) {
                         const std::uint64_t li =
                             configs[lhs / benchmarks.size()].second.numInsts;
                         const std::uint64_t ri =
                             configs[rhs / benchmarks.size()].second.numInsts;
                         return li > ri;
                     });
    // Each job writes only its own result slot and store entry.
    std::vector<std::function<void()>> work;
    for (const std::size_t cell : order)
        work.push_back([&, cell] {
            const std::size_t c = cell / benchmarks.size();
            const std::size_t b = cell % benchmarks.size();
            const LabeledConfig &cfg = configs[c];
            results[c][b] =
                cellImage[cell]
                    ? runBenchmarkFromSnapshot(*cellImage[cell], cfg.second,
                                               cfg.first)
                    : runBenchmark(benchmarks[b], cfg.second, cfg.first);
            if (store)
                store->insert(keys[cell], results[c][b]);
        });
    runPoolJobs(jobs, std::move(work));

    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    SweepStats stats;
    stats.runs = cells - hits;  // cells actually simulated
    stats.jobs = jobs;
    stats.wallSeconds = wall.count();
    printSweepThroughput(stats);
    // Like the throughput line: stderr only, so stdout result tables
    // stay bit-identical between cold and resumed runs.
    if (store)
        std::cerr << "sweep-store: dir=" << store->dir()
                  << " resume=" << (storeCfg.resume ? 1 : 0)
                  << " hits=" << hits << " misses=" << (cells - hits)
                  << '\n';
    if (snapGroups > 0)
        std::cerr << "sweep-snap: groups=" << snapGroups
                  << " store-hits=" << snapHits
                  << " captured=" << (snapGroups - snapHits) << '\n';
    return results;
}

std::vector<RunResult>
runSuiteParallel(const std::vector<std::string> &benchmarks,
                 const RunConfig &config, const std::string &configLabel,
                 unsigned jobs)
{
    std::vector<LabeledConfig> configs = {{configLabel, config}};
    return std::move(runSweep(benchmarks, configs, jobs).front());
}

unsigned
defaultSweepJobs()
{
    if (const char *env = std::getenv("FDP_JOBS"))
        return static_cast<unsigned>(
            parseCountArg("FDP_JOBS", env, kMaxSweepJobs));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
sweepJobs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 >= argc)
                fatal("--jobs requires a value (worker thread count)");
            return static_cast<unsigned>(
                parseCountArg("--jobs", argv[i + 1], kMaxSweepJobs));
        }
    }
    return defaultSweepJobs();
}

} // namespace fdp
