#include "mc/mix_runner.hh"

// fdp-analyze: suppress-file(wall-clock, steady_clock feeds the
// stderr throughput report only; simulated results never read it)

#include <algorithm>
#include <chrono>

#include "harness/sweep_pool.hh"
#include "sim/logging.hh"
#include "trace/trace_reader.hh"
#include "workload/spec_suite.hh"

namespace fdp
{

namespace
{

/**
 * Alone-baseline dedup key: two cores share a baseline cell exactly
 * when they replay the identical stream — the same trace file, or the
 * same benchmark at the same duplicate index (duplicates run perturbed
 * seeds, so they are distinct streams) — on the same machine, i.e. the
 * same per-core prefetcher selection when the mix is heterogeneous.
 */
std::string
baselineKey(const MixEntry &entry, unsigned dup, const std::string &sel)
{
    const std::string machine = sel.empty() ? "" : "|p:" + sel;
    if (!entry.tracePath.empty())
        return "t:" + entry.tracePath + machine;
    return "b:" + entry.benchmark + "#" + std::to_string(dup) + machine;
}

} // namespace

std::vector<McRunResult>
runMixSweep(const MixSpec &mix, const std::vector<McLabeledConfig> &configs,
            unsigned jobs)
{
    if (configs.empty())
        fatal("mix sweep needs at least one configuration");
    const unsigned n = mix.numCores();
    if (n == 0)
        fatal("mix %s has no entries", mix.name.c_str());
    std::uint64_t maxInsts = 0;
    for (const McLabeledConfig &c : configs) {
        if (c.config.numCores != n)
            fatal("mix %s names %u cores but configuration %s has %u",
                  mix.name.c_str(), n, c.label.c_str(),
                  c.config.numCores);
        maxInsts = std::max(maxInsts, c.config.base.numInsts);
    }

    // Validate every program on the main thread, before any worker
    // exists: unknown benchmarks and malformed/short traces are user
    // errors, not worker fatals.
    std::vector<unsigned> dup(n, 0);
    for (unsigned i = 0; i < n; ++i) {
        const MixEntry &e = mix.entries[i];
        for (unsigned prev = 0; prev < i; ++prev)
            if (mix.entries[prev].benchmark == e.benchmark &&
                mix.entries[prev].tracePath == e.tracePath)
                ++dup[i];
        if (!e.benchmark.empty()) {
            benchmarkParams(e.benchmark);
            continue;
        }
        TraceReader reader(e.tracePath);
        const std::uint64_t available = reader.header().opCount;
        if (maxInsts > available)
            fatal("trace %s holds %llu micro-ops but this mix consumes "
                  "%llu per core; record a longer trace",
                  e.tracePath.c_str(),
                  static_cast<unsigned long long>(available),
                  static_cast<unsigned long long>(maxInsts));
    }

    // Effective per-core prefetcher selections, per configuration
    // (runMix falls back to the mix's own line-up when the config
    // leaves its vector empty). Parsed on the main thread so a typo in
    // a selection name is a user error, not a worker fatal.
    std::vector<std::vector<std::string>> sel(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        sel[c] = configs[c].config.corePrefetchers.empty()
                     ? mix.corePrefetchers
                     : configs[c].config.corePrefetchers;
        if (!sel[c].empty() && sel[c].size() != n)
            fatal("mix %s names %u cores but configuration %s selects "
                  "%zu per-core prefetchers", mix.name.c_str(), n,
                  configs[c].label.c_str(), sel[c].size());
        for (const std::string &s : sel[c])
            prefetcherSelectionFromName(s);
    }

    // Alone-baseline cells, deduplicated within each configuration
    // (heterogeneous selections give each configuration its own key
    // space: the same program under a different prefetcher is a
    // different baseline).
    std::vector<std::vector<std::string>> keys(configs.size());
    std::vector<std::vector<unsigned>> exemplar(configs.size());
    std::vector<std::vector<std::size_t>> slotOf(
        configs.size(), std::vector<std::size_t>(n));
    std::size_t cells = configs.size();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (unsigned i = 0; i < n; ++i) {
            const std::string key = baselineKey(
                mix.entries[i], dup[i], sel[c].empty() ? "" : sel[c][i]);
            const auto it =
                std::find(keys[c].begin(), keys[c].end(), key);
            if (it == keys[c].end()) {
                slotOf[c][i] = keys[c].size();
                keys[c].push_back(key);
                exemplar[c].push_back(i);
            } else {
                slotOf[c][i] =
                    static_cast<std::size_t>(it - keys[c].begin());
            }
        }
        cells += keys[c].size();
    }
    if (jobs == 0)
        jobs = defaultSweepJobs();
    if (static_cast<std::size_t>(jobs) > cells)
        jobs = static_cast<unsigned>(cells);
    const auto start = std::chrono::steady_clock::now();

    std::vector<McRunResult> results(configs.size());
    std::vector<std::vector<RunResult>> alone(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        alone[c].resize(keys[c].size());

    // Each result lands in its pre-sized slot, so completion order
    // never affects the output. Co-runs (roughly N single-core runs'
    // worth of work each) are submitted first, LPT-style.
    std::vector<std::function<void()>> work;
    for (std::size_t c = 0; c < configs.size(); ++c)
        work.push_back([&, c] {
            results[c] = runMix(mix, configs[c].config, configs[c].label);
        });
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (std::size_t k = 0; k < keys[c].size(); ++k)
            work.push_back([&, c, k] {
                const unsigned coreIdx = exemplar[c][k];
                const auto workload =
                    buildAloneWorkload(mix.entries[coreIdx], dup[coreIdx]);
                RunConfig rc = configs[c].config.base;
                if (!sel[c].empty())
                    rc = applyPrefetcherSelection(rc, sel[c][coreIdx]);
                alone[c][k] =
                    runWorkload(*workload, rc, configs[c].label + "-alone");
            });
    runPoolJobs(jobs, std::move(work));

    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<double> aloneIpc(n, 0.0);
        for (unsigned i = 0; i < n; ++i)
            aloneIpc[i] = alone[c][slotOf[c][i]].ipc;
        finalizeSpeedups(results[c], aloneIpc);
    }

    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    SweepStats stats;
    stats.runs = cells;
    stats.jobs = jobs;
    stats.wallSeconds = wall.count();
    printSweepThroughput(stats);
    return results;
}

Table
buildMixCoreTable(const std::vector<McRunResult> &results)
{
    if (results.empty())
        panic("per-core mix table needs at least one co-run");
    Table t("mix " + results.front().mix + ": per-core breakdown (" +
            std::to_string(results.front().numCores) + " cores)");
    t.setHeader({"config", "core", "program", "prefetcher", "IPC",
                 "alone", "speedup", "BPKI", "accuracy", "pollution",
                 "poll-out", "poll-in"});
    for (std::size_t c = 0; c < results.size(); ++c) {
        if (c > 0)
            t.addRule();
        const McRunResult &r = results[c];
        for (std::size_t i = 0; i < r.cores.size(); ++i) {
            const McCoreResult &core = r.cores[i];
            t.addRow({r.config, "c" + std::to_string(i), core.program,
                      core.prefetcher, fmtDouble(core.ipc, 3),
                      fmtDouble(core.aloneIpc, 3),
                      fmtDouble(core.speedup, 3),
                      fmtDouble(core.bpki, 2),
                      fmtDouble(core.accuracy, 2),
                      fmtDouble(core.pollution, 3),
                      std::to_string(core.pollutionInflicted),
                      std::to_string(core.crossPollutionSuffered)});
        }
    }
    return t;
}

Table
buildMixSummaryTable(const std::vector<McRunResult> &results)
{
    if (results.empty())
        panic("mix summary table needs at least one co-run");
    Table t("mix " + results.front().mix + ": multi-program metrics");
    t.setHeader({"config", "weighted speedup", "harmonic speedup",
                 "fairness", "throughput", "bus accesses"});
    for (const McRunResult &r : results)
        t.addRow({r.config, fmtDouble(r.weightedSpeedup, 3),
                  fmtDouble(r.harmonicSpeedup, 3),
                  fmtDouble(r.fairness, 3), fmtDouble(r.throughput, 3),
                  std::to_string(r.busAccesses)});
    return t;
}

void
addMcRunResult(ResultsJson &json, const McRunResult &r)
{
    const std::string base = r.mix + "/" + r.config;
    // Speedups are relative to alone baselines; a bare runMix result has
    // none, and a 0 there would read as a measured value.
    const bool hasBaselines =
        std::all_of(r.cores.begin(), r.cores.end(),
                    [](const McCoreResult &c) { return c.aloneIpc > 0; });
    if (hasBaselines) {
        json.add(base + "/weighted_speedup", "ratio", r.weightedSpeedup,
                 "higher");
        json.add(base + "/harmonic_speedup", "ratio", r.harmonicSpeedup,
                 "higher");
        json.add(base + "/fairness", "ratio", r.fairness, "higher");
    }
    json.add(base + "/throughput", "insts/cycle", r.throughput, "higher");
    json.add(base + "/bus_accesses", "count",
             static_cast<double>(r.busAccesses), "lower");
    for (std::size_t i = 0; i < r.cores.size(); ++i) {
        const McCoreResult &c = r.cores[i];
        const std::string p =
            base + "/c" + std::to_string(i) + "/" + c.program;
        json.add(p + "/ipc", "insts/cycle", c.ipc, "higher");
        if (hasBaselines)
            json.add(p + "/speedup", "ratio", c.speedup, "higher");
        json.add(p + "/bpki", "bus-accesses/kilo-inst", c.bpki, "lower");
        json.add(p + "/accuracy", "ratio", c.accuracy, "higher");
        json.add(p + "/lateness", "ratio", c.lateness, "lower");
        json.add(p + "/pollution", "ratio", c.pollution, "lower");
        json.add(p + "/bus_accesses", "count",
                 static_cast<double>(c.busAccesses), "lower");
        json.add(p + "/pollution_inflicted", "count",
                 static_cast<double>(c.pollutionInflicted), "lower");
        json.add(p + "/cross_pollution_suffered", "count",
                 static_cast<double>(c.crossPollutionSuffered), "lower");
    }
}

} // namespace fdp
