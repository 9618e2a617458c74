#include "workloads.hh"

#include <cstdio>
#include <filesystem>

#include "harness/sweep_pool.hh"
#include "mc/mc_machine.hh"
#include "mc/workload_mix.hh"
#include "snap/machine_snapshot.hh"
#include "trace/trace_workload.hh"
#include "trace/trace_writer.hh"
#include "workload/spec_suite.hh"

namespace perfbench
{

using namespace fdp;

namespace
{

/// @name Simulated work per rep and seed variants (README.md, "Sizing")
/// @{
constexpr std::uint64_t kStreamInsts = 2'000'000;  ///< per benchmark
constexpr std::uint64_t kMixInsts = 400'000;       ///< per core
constexpr std::uint64_t kSweepWarmInsts = 500'000; ///< per benchmark
constexpr std::uint64_t kSweepInsts = 250'000;     ///< per cell
constexpr std::uint64_t kReplayInsts = 2'000'000;  ///< per benchmark
constexpr unsigned kVariants = 8;
/** Fewer for replay-ghb: every variant is recorded at each setup. */
constexpr unsigned kReplayVariants = 2;
/** Sweep pool workers of the timed grid: one, so the measured wall
 *  time does not depend on a second host CPU being free. */
constexpr unsigned kSweepWorkers = 1;
/** Workers of the equivalence check against the timed grid. */
constexpr unsigned kCheckWorkers = 2;
/// @}

double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/**
 * Generator parameters of @p bench for one seed variant: the seed is
 * the --seed value (the calibrated one for kCalibratedSeed) plus a
 * fixed odd stride per variant.
 */
SyntheticParams
seededParams(const std::string &bench, std::uint64_t seed, unsigned variant)
{
    SyntheticParams p = benchmarkParams(bench);
    if (seed != kCalibratedSeed)
        p.seed = seed;
    p.seed += variant * 0x9E3779B97F4A7C15ull;
    return p;
}

Record
recordOf(const RunResult &r)
{
    Record rec;
    rec.name = r.benchmark + "/" + r.config;
    auto &v = rec.values;
    const auto u = [](std::uint64_t x) { return static_cast<double>(x); };
    v = {{"insts", u(r.insts)},
         {"cycles", u(r.cycles)},
         {"ipc", r.ipc},
         {"bpki", r.bpki},
         {"accuracy", r.accuracy},
         {"lateness", r.lateness},
         {"pollution", r.pollution},
         {"pref_sent", u(r.prefSent)},
         {"pref_used", u(r.prefUsed)},
         {"bus_accesses", u(r.busAccesses)},
         {"l2_misses", u(r.l2Misses)},
         {"demand_accesses", u(r.demandAccesses)},
         {"demand_grants", u(r.demandGrants)},
         {"prefetch_grants", u(r.prefetchGrants)},
         {"writeback_grants", u(r.writebackGrants)},
         {"mshr_stalls", u(r.mshrStallCount)},
         {"pref_drop_queue_full", u(r.prefDropQueueFull)},
         {"avg_miss_latency", r.avgMissLatency}};
    for (std::size_t i = 0; i < r.levelDist.size(); ++i)
        v.emplace_back("level_dist_" + std::to_string(i + 1),
                       r.levelDist[i]);
    for (std::size_t i = 0; i < r.insertDist.size(); ++i)
        v.emplace_back("insert_dist_" + std::to_string(i), r.insertDist[i]);
    return rec;
}

/** A rep made of single-core runs. */
RepResult
singleCoreRep(const std::vector<RunResult> &runs)
{
    RepResult rep;
    rep.runs = runs.size();
    for (const RunResult &r : runs) {
        rep.records.push_back(recordOf(r));
        rep.insts += r.insts;
        rep.busAccesses += r.busAccesses;
        rep.ipcs.push_back(r.ipc);
    }
    return rep;
}

/** A new prefetch log on the sink, or nullptr when not recording. */
PrefetchLog *
newLog(TraceSink &sink, const RunConfig &config)
{
    if (sink.logs == nullptr)
        return nullptr;
    sink.logs->push_back({config, PrefetchLog{}});
    sink.logs->back().log.capacity = sink.logCapacity;
    return &sink.logs->back().log;
}

/** Compare @p got with @p want record by record. */
Check
compareRuns(const std::string &name, const std::vector<Record> &want,
            const std::vector<Record> &got)
{
    Check c;
    c.name = name;
    c.runs = got.size();
    if (want.size() != got.size()) {
        c.ok = false;
        c.detail = "record count differs";
        return c;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (want[i].fingerprint() != got[i].fingerprint()) {
            c.ok = false;
            c.detail = "first difference at " + want[i].name;
            return c;
        }
    }
    return c;
}

// ---------------------------------------------------------------------
// stream-1c: swim, mcf, art under full FDP + stream, from empty caches.

class Stream1c : public BenchWorkload
{
  public:
    explicit Stream1c(const Options &o) : opts_(o)
    {
        config_ = RunConfig::fullFdp();
        config_.numInsts = kStreamInsts;
    }

    unsigned variants() const override { return kVariants; }

    void
    setup() override
    {
        params_.assign(kVariants, {});
        for (unsigned v = 0; v < kVariants; ++v)
            for (const char *b : kBenches)
                params_[v].push_back(seededParams(b, opts_.seed, v));
        rep(0);
    }

    RepResult
    rep(unsigned variant) override
    {
        std::vector<RunResult> runs;
        for (const SyntheticParams &p : params_[variant]) {
            SyntheticWorkload w(p);
            runs.push_back(runWorkload(w, config_, kLabel));
        }
        return singleCoreRep(runs);
    }

    RepResult
    tracedRep(unsigned variant, TraceSink &sink) override
    {
        std::vector<RunResult> runs;
        const std::int64_t start = nowNs();
        for (const SyntheticParams &p : params_[variant]) {
            SyntheticWorkload w(p);
            runs.push_back(runTracedSingle(w, config_, kLabel, nullptr,
                                           sink.tracer,
                                           newLog(sink, config_),
                                           sink.counts));
        }
        sink.busyS += secondsSince(start);
        return singleCoreRep(runs);
    }

    std::vector<Check>
    checks(const std::vector<RepResult> &first) override
    {
        if (opts_.seed != kCalibratedSeed)
            return {};
        // The same benchmarks and budget through runBenchmark.
        std::vector<RunResult> ref;
        for (const char *b : kBenches)
            ref.push_back(runBenchmark(b, config_, kLabel));
        return {compareRuns("equals-runBenchmark",
                            singleCoreRep(ref).records, first[0].records)};
    }

  private:
    static constexpr const char *kBenches[] = {"swim", "mcf", "art"};
    static constexpr const char *kLabel = "full-fdp";

    Options opts_;
    RunConfig config_;
    std::vector<std::vector<SyntheticParams>> params_;
};

// ---------------------------------------------------------------------
// frfcfs-mix8: mix8-mixed over the shared L2 and the FR-FCFS controller.

std::vector<Record>
mcRecords(const McRunResult &r)
{
    std::vector<Record> out;
    const auto u = [](std::uint64_t x) { return static_cast<double>(x); };
    for (std::size_t i = 0; i < r.cores.size(); ++i) {
        const McCoreResult &c = r.cores[i];
        Record rec;
        rec.name = "c" + std::to_string(i) + "/" + c.program;
        rec.values = {{"insts", u(c.insts)},
                      {"cycles", u(c.cycles)},
                      {"ipc", c.ipc},
                      {"bpki", c.bpki},
                      {"accuracy", c.accuracy},
                      {"lateness", c.lateness},
                      {"pollution", c.pollution},
                      {"pref_sent", u(c.prefSent)},
                      {"pref_used", u(c.prefUsed)},
                      {"l2_misses", u(c.l2Misses)},
                      {"demand_accesses", u(c.demandAccesses)},
                      {"bus_accesses", u(c.busAccesses)},
                      {"pollution_inflicted", u(c.pollutionInflicted)},
                      {"cross_pollution_suffered",
                       u(c.crossPollutionSuffered)}};
        out.push_back(std::move(rec));
    }
    Record total;
    total.name = r.mix + "/" + r.config;
    total.values = {{"cycles", u(r.cycles)},
                    {"bus_accesses", u(r.busAccesses)},
                    {"throughput", r.throughput}};
    out.push_back(std::move(total));
    return out;
}

class FrfcfsMix8 : public BenchWorkload
{
  public:
    explicit FrfcfsMix8(const Options &o) : opts_(o)
    {
        config_.base = RunConfig::fullFdp();
        config_.base.numInsts = kMixInsts;
        config_.base.machine.dramCtrl.kind = DramKind::Controller;
        config_.numCores = 8;
    }

    unsigned variants() const override { return kVariants; }

    void
    setup() override
    {
        const MixSpec &spec = mixByName(kMix);
        params_.assign(kVariants, {});
        for (unsigned v = 0; v < kVariants; ++v) {
            for (unsigned core = 0; core < spec.numCores(); ++core) {
                // buildMixWorkloads' duplicate-seed perturbation.
                unsigned dup = 0;
                for (unsigned prev = 0; prev < core; ++prev)
                    if (spec.entries[prev].benchmark ==
                        spec.entries[core].benchmark)
                        ++dup;
                SyntheticParams p = seededParams(
                    spec.entries[core].benchmark, opts_.seed, v);
                p.seed += 1000003ull * dup;
                params_[v].push_back(p);
            }
        }
        rep(0);
    }

    RepResult
    rep(unsigned variant) override
    {
        return mcRep(
            runMcWorkloads(config_, build(variant), kMix, kLabel));
    }

    RepResult
    tracedRep(unsigned variant, TraceSink &sink) override
    {
        std::vector<PrefetchLog *> logs;
        if (sink.logs != nullptr)
            for (unsigned i = 0; i < config_.numCores; ++i)
                logs.push_back(newLog(sink, config_.base));
        const std::int64_t start = nowNs();
        const McRunResult r =
            runTracedMc(config_, build(variant), kMix, kLabel, sink.tracer,
                        logs, sink.counts);
        sink.busyS += secondsSince(start);
        return mcRep(r);
    }

    std::vector<Check>
    checks(const std::vector<RepResult> &first) override
    {
        if (opts_.seed != kCalibratedSeed)
            return {};
        return {compareRuns("equals-runMix",
                            mcRecords(runMix(mixByName(kMix), config_,
                                             kLabel)),
                            first[0].records)};
    }

  private:
    static constexpr const char *kMix = "mix8-mixed";
    static constexpr const char *kLabel = "full-fdp";

    /** Fresh per-core workloads, rebased into each core's slice. */
    std::vector<std::unique_ptr<Workload>>
    build(unsigned variant) const
    {
        std::vector<std::unique_ptr<Workload>> w;
        const std::vector<SyntheticParams> &ps = params_[variant];
        for (std::size_t i = 0; i < ps.size(); ++i)
            w.push_back(std::make_unique<RebasedWorkload>(
                std::make_unique<SyntheticWorkload>(ps[i]),
                kCoreAddrStride * i));
        return w;
    }

    static RepResult
    mcRep(const McRunResult &r)
    {
        RepResult rep;
        rep.runs = 1;
        rep.records = mcRecords(r);
        for (const McCoreResult &c : r.cores)
            rep.insts += c.insts;
        rep.busAccesses = r.busAccesses;
        rep.ipcs = {r.throughput};
        return rep;
    }

    Options opts_;
    McRunConfig config_;
    std::vector<std::vector<SyntheticParams>> params_;
};

// ---------------------------------------------------------------------
// warmfork-sweep: a Fig. 9-style policy grid over warm-forked cells.

class WarmforkSweep : public BenchWorkload
{
  public:
    explicit WarmforkSweep(const Options &o) : opts_(o)
    {
        const auto add = [this](const char *label, RunConfig c) {
            c.warmupInsts = kSweepWarmInsts;
            c.numInsts = kSweepInsts;
            configs_.emplace_back(label, c);
        };
        add("static-1", RunConfig::staticLevelConfig(1));
        add("static-3", RunConfig::staticLevelConfig(3));
        add("static-5", RunConfig::staticLevelConfig(5));
        add("dyn-aggr", RunConfig::dynamicAggressiveness());
        add("dyn-ins", RunConfig::dynamicInsertion());
        add("full-fdp", RunConfig::fullFdp());
        add("acc-only", RunConfig::accuracyOnlyFdp());
    }

    unsigned variants() const override { return kVariants; }

    void
    setup() override
    {
        params_.assign(kVariants, {});
        for (unsigned v = 0; v < kVariants; ++v)
            for (const std::string &b : kBenches)
                params_[v].push_back(seededParams(b, opts_.seed, v));
        rep(0);
    }

    RepResult
    rep(unsigned variant) override
    {
        return sweep(variant, kSweepWorkers, nullptr);
    }

    RepResult
    tracedRep(unsigned variant, TraceSink &sink) override
    {
        return sweep(variant, kSweepWorkers, &sink);
    }

    std::vector<Check>
    checks(const std::vector<RepResult> &first) override
    {
        std::vector<Check> out;
        const std::vector<Record> &records = first[0].records;
        // One cold cell (warm-up simulated in place) against its
        // forked twin: full FDP on the first benchmark.
        const std::size_t c = configs_.size() - 2;
        {
            SyntheticWorkload w(params_[0][0]);
            const RunResult cold =
                runWorkload(w, configs_[c].second, configs_[c].first);
            out.push_back(compareRuns("cold-equals-fork",
                                      {records[c * kBenches.size()]},
                                      {recordOf(cold)}));
        }
        // The same grid on another worker count.
        out.push_back(compareRuns("jobs-" + std::to_string(kCheckWorkers),
                                  records,
                                  sweep(0, kCheckWorkers, nullptr).records));
        if (opts_.seed == kCalibratedSeed) {
            std::vector<RunResult> ref;
            for (auto &row : runSweep(kBenches, configs_, kSweepWorkers))
                for (RunResult &r : row)
                    ref.push_back(std::move(r));
            out.push_back(compareRuns("equals-runSweep",
                                      singleCoreRep(ref).records, records));
        }
        return out;
    }

  private:
    inline static const std::vector<std::string> kBenches = {
        "swim", "art", "mcf", "gcc", "gzip"};

    /** One warm-fork sweep: a warm image per benchmark captured on this
     *  thread, then every (config, benchmark) cell fork-restored from
     *  it on a SweepPool of @p jobs workers, in runSweep's c-major
     *  order. Traced when @p sink is non-null. */
    RepResult
    sweep(unsigned variant, unsigned jobs, TraceSink *sink)
    {
        const std::vector<SyntheticParams> &params = params_[variant];
        const std::size_t nb = kBenches.size();
        const std::size_t cells = nb * configs_.size();
        SweepTiming t;
        t.workers = jobs;
        const std::int64_t start = nowNs();

        std::vector<std::vector<std::uint8_t>> images(nb);
        for (std::size_t b = 0; b < nb; ++b) {
            // captureWarmSnapshot's neutral machine, on the seeded
            // workload.
            RunConfig neutral = RunConfig::noPrefetching();
            neutral.warmupInsts = kSweepWarmInsts;
            SyntheticWorkload w(params[b]);
            SimMachine m(w, neutral);
            m.core.run(kSweepWarmInsts);
            drainToQuiesce(m.events, m.mem);
            m.mem.flushStats();
            const std::int64_t c0 = nowNs();
            if (sink != nullptr) {
                Span s(sink->tracer, Layer::Snap);
                images[b] = captureMachine(m.parts()).bytes;
            } else {
                images[b] = captureMachine(m.parts()).bytes;
            }
            t.captureS += secondsSince(c0);
            ++t.captures;
            t.imageBytes += images[b].size();
        }
        t.warmS = secondsSince(start);

        std::vector<RunResult> results(cells);
        std::vector<double> cellS(cells, 0.0), restoreS(cells, 0.0);
        std::deque<TraceSink> cellSinks(sink != nullptr ? cells : 0);
        std::vector<PrefetchLog *> logs(cells, nullptr);
        if (sink != nullptr)
            for (std::size_t cell = 0; cell < cells; ++cell)
                logs[cell] = newLog(*sink, configs_[cell / nb].second);

        const auto runCell = [&](std::size_t cell) {
            const std::int64_t c0 = nowNs();
            const LabeledConfig &cfg = configs_[cell / nb];
            SyntheticWorkload w(params[cell % nb]);
            if (sink != nullptr) {
                TraceSink &cs = cellSinks[cell];
                results[cell] = runTracedSingle(
                    w, cfg.second, cfg.first,
                    &images[cell % nb], cs.tracer,
                    logs[cell], cs.counts);
            } else {
                // runBenchmarkFromSnapshot, on the seeded workload.
                SimMachine m(w, cfg.second);
                const std::int64_t r0 = nowNs();
                restoreMachine(m.parts(), images[cell % nb],
                               RestoreMode::Fork);
                restoreS[cell] = secondsSince(r0);
                AuditSet audits;
                const bool periodicAudit = wireAudits(m, audits);
                measurementBoundary(m);
                m.core.run(cfg.second.numInsts);
                if (periodicAudit)
                    audits.runAll();
                results[cell] = extractResult(m, cfg.first);
            }
            cellS[cell] = secondsSince(c0);
        };

        const std::int64_t p0 = nowNs();
        {
            SweepPool pool(jobs);
            for (std::size_t cell = 0; cell < cells; ++cell)
                pool.submit([&runCell, cell] { runCell(cell); });
            pool.wait();
        }
        t.cellPhaseS = secondsSince(p0);
        t.wallS = secondsSince(start);
        t.cellS = cellS;
        t.restores = cells;
        for (double s : restoreS)
            t.restoreS += s;

        if (sink != nullptr) {
            sink->busyS += t.warmS;
            for (std::size_t cell = 0; cell < cells; ++cell) {
                sink->tracer.merge(cellSinks[cell].tracer);
                sink->counts.add(cellSinks[cell].counts);
                sink->busyS += cellS[cell];
            }
        }
        RepResult rep = singleCoreRep(results);
        rep.sweep = std::move(t);
        return rep;
    }

    Options opts_;
    std::vector<LabeledConfig> configs_;
    std::vector<std::vector<SyntheticParams>> params_;
};

// ---------------------------------------------------------------------
// replay-ghb: art and swim recorded to fdptrace-v1, replayed under full
// FDP with the GHB C/DC prefetcher.

class ReplayGhb : public BenchWorkload
{
  public:
    explicit ReplayGhb(const Options &o) : opts_(o)
    {
        config_ = RunConfig::fullFdp();
        config_.prefetcher = PrefetcherKind::GhbCdc;
        config_.numInsts = kReplayInsts;
        paths_.assign(kReplayVariants, {});
        for (unsigned v = 0; v < kReplayVariants; ++v)
            for (const char *b : kBenches)
                paths_[v].push_back(opts_.workDir + "/replay-ghb-" + b +
                                    "-" + std::to_string(v) + ".fdptrace");
    }

    ~ReplayGhb() override
    {
        std::error_code ec;
        for (const auto &vp : paths_)
            for (const std::string &p : vp)
                std::filesystem::remove(p, ec);
    }

    unsigned variants() const override { return kReplayVariants; }

    void
    setup() override
    {
        // Record the live runs; their results are what every replay
        // must reproduce.
        live_.assign(kReplayVariants, {});
        for (unsigned v = 0; v < kReplayVariants; ++v) {
            std::vector<RunResult> live;
            for (std::size_t i = 0; i < paths_[v].size(); ++i) {
                const SyntheticParams p =
                    seededParams(kBenches[i], opts_.seed, v);
                SyntheticWorkload w(p);
                TraceWriter writer(paths_[v][i], kBenches[i], p.seed);
                RecordingWorkload recorder(w, writer);
                live.push_back(runWorkload(recorder, config_, kLabel));
                writer.finish();
            }
            live_[v] = singleCoreRep(live).records;
        }
        rep(0);
    }

    RepResult
    rep(unsigned variant) override
    {
        std::vector<RunResult> runs;
        for (const std::string &p : paths_[variant])
            runs.push_back(replayTrace(p, config_, kLabel));
        return singleCoreRep(runs);
    }

    RepResult
    tracedRep(unsigned variant, TraceSink &sink) override
    {
        std::vector<RunResult> runs;
        const std::int64_t start = nowNs();
        for (const std::string &p : paths_[variant]) {
            TraceWorkload w(p);
            runs.push_back(runTracedSingle(w, config_, kLabel, nullptr,
                                           sink.tracer,
                                           newLog(sink, config_),
                                           sink.counts));
        }
        sink.busyS += secondsSince(start);
        return singleCoreRep(runs);
    }

    std::vector<Check>
    checks(const std::vector<RepResult> &first) override
    {
        std::vector<Check> out;
        for (unsigned v = 0; v < kReplayVariants; ++v)
            out.push_back(compareRuns(
                "replay-equals-live-v" + std::to_string(v), live_[v],
                first[v].records));
        if (opts_.seed == kCalibratedSeed) {
            std::vector<RunResult> ref;
            for (const char *b : kBenches)
                ref.push_back(runBenchmark(b, config_, kLabel));
            out.push_back(compareRuns("live-equals-runBenchmark",
                                      singleCoreRep(ref).records,
                                      live_[0]));
        }
        return out;
    }

    std::vector<std::pair<std::string, double>>
    extras() const override
    {
        std::uintmax_t bytes = 0;
        std::uint64_t ops = 0;
        for (const auto &vp : paths_) {
            for (const std::string &p : vp) {
                bytes += std::filesystem::file_size(p);
                ops += TraceWorkload(p).reader().header().opCount;
            }
        }
        return {{"trace.bytes_per_op",
                 static_cast<double>(bytes) / static_cast<double>(ops)}};
    }

  private:
    static constexpr const char *kBenches[] = {"art", "swim"};
    static constexpr const char *kLabel = "full-fdp-ghb";

    Options opts_;
    RunConfig config_;
    std::vector<std::vector<std::string>> paths_;
    std::vector<std::vector<Record>> live_;
};

} // namespace

std::string
Record::fingerprint() const
{
    std::string s = name;
    char buf[64];
    for (const auto &[key, value] : values) {
        std::snprintf(buf, sizeof buf, " %s=%a", key.c_str(), value);
        s += buf;
    }
    return s;
}

std::string
fingerprint(const std::vector<Record> &records)
{
    std::string s;
    for (const Record &r : records)
        s += r.fingerprint() + "\n";
    return s;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "stream-1c", "frfcfs-mix8", "warmfork-sweep", "replay-ghb"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const Options &opts)
{
    if (opts.workload == "stream-1c")
        return std::make_unique<Stream1c>(opts);
    if (opts.workload == "frfcfs-mix8")
        return std::make_unique<FrfcfsMix8>(opts);
    if (opts.workload == "warmfork-sweep")
        return std::make_unique<WarmforkSweep>(opts);
    if (opts.workload == "replay-ghb")
        return std::make_unique<ReplayGhb>(opts);
    return nullptr;
}

} // namespace perfbench
