/**
 * @file
 * fdp_perfbench: runs one benchmark workload for a fixed host time and
 * prints what it measured as one JSON line of raw samples and sums.
 * perfbench/run.py builds this binary, runs it, checks the records
 * against the pinned references and turns the raw line into the
 * benchmark's metrics.
 *
 *   fdp_perfbench --workload stream-1c --seed 0 --seconds 10 --trace 0
 *                 [--work-dir DIR]
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** Setups per run; setup_s is their median. */
constexpr int kSetups = 3;
/** Prefetcher calls the reconciliation logs hold in total. */
constexpr std::size_t kLogCalls = 400'000;
/** Timed passes of each isolated prefetcher replay. */
constexpr unsigned kIsolatedPasses = 3;

/** Minimal streaming JSON writer (objects, arrays, scalars). */
class Json
{
  public:
    explicit Json(std::ostream &os) : os_(os) {}

    Json &
    begin(char bracket)
    {
        comma();
        os_ << bracket;
        first_.push_back(true);
        return *this;
    }

    Json &
    end(char bracket)
    {
        os_ << bracket;
        first_.pop_back();
        return *this;
    }

    Json &
    key(const std::string &k)
    {
        comma();
        str(k);
        os_ << ':';
        pendingValue_ = true;
        return *this;
    }

    Json &
    value(double v)
    {
        comma();
        if (!std::isfinite(v)) {
            os_ << "null";
        } else {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            os_ << buf;
        }
        return *this;
    }

    Json &
    value(std::uint64_t v)
    {
        comma();
        os_ << v;
        return *this;
    }

    Json &
    value(bool v)
    {
        comma();
        os_ << (v ? "true" : "false");
        return *this;
    }

    Json &
    value(const std::string &v)
    {
        comma();
        str(v);
        return *this;
    }

    template <typename T>
    Json &
    field(const std::string &k, const T &v)
    {
        return key(k).value(v);
    }

    Json &
    array(const std::string &k, const std::vector<double> &vs)
    {
        key(k).begin('[');
        for (double v : vs)
            value(v);
        return end(']');
    }

  private:
    void
    comma()
    {
        if (pendingValue_) {
            pendingValue_ = false;
            return;
        }
        if (!first_.empty()) {
            if (!first_.back())
                os_ << ',';
            first_.back() = false;
        }
    }

    void
    str(const std::string &s)
    {
        os_ << '"';
        for (const char ch : s) {
            if (ch == '"' || ch == '\\')
                os_ << '\\' << ch;
            else if (static_cast<unsigned char>(ch) < 0x20)
                os_ << ' ';
            else
                os_ << ch;
        }
        os_ << '"';
    }

    std::ostream &os_;
    std::vector<bool> first_;
    bool pendingValue_ = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            fdp::fatal("%s needs a value", a.c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::strcmp(v, "0") == 0
                         ? kCalibratedSeed
                         : fdp::parseCountArg("--seed", v);
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(
                fdp::parseCountArg("--seconds", v, 3600));
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                fdp::fatal("--trace takes 0 or 1, not `%s'", v);
            o.trace = v[0] == '1';
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else {
            fdp::fatal("unknown argument `%s'", a.c_str());
        }
    }
    if (!haveWorkload)
        fdp::fatal("--workload is required");
    if (o.workDir.empty())
        o.workDir = ".";
    return o;
}

/**
 * Peak resident set of this process image in KiB: VmHWM, which exec
 * resets (getrusage's ru_maxrss would include the launching process's
 * own peak).
 */
std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    fdp::fatal("/proc/self/status has no VmHWM line");
}

void
writeRecords(Json &j, const std::vector<Record> &records)
{
    j.key("records").begin('[');
    for (const Record &r : records) {
        j.begin('{').field("name", r.name).key("values").begin('{');
        for (const auto &[k, v] : r.values)
            j.field(k, v);
        j.end('}').end('}');
    }
    j.end(']');
}

void
writeSweep(Json &j, const std::vector<SweepTiming> &reps)
{
    j.key("sweep").begin('[');
    for (const SweepTiming &t : reps) {
        j.begin('{')
            .field("workers", std::uint64_t{t.workers})
            .field("wall_s", t.wallS)
            .field("warm_s", t.warmS)
            .field("cell_phase_s", t.cellPhaseS)
            .array("cell_s", t.cellS)
            .field("capture_s", t.captureS)
            .field("restore_s", t.restoreS)
            .field("captures", t.captures)
            .field("restores", t.restores)
            .field("image_bytes", t.imageBytes)
            .end('}');
    }
    j.end(']');
}

void
writeCounts(Json &j, const ModelCounts &c)
{
    j.key("counts").begin('{');
    j.field("insts", c.insts)
        .field("cycles", c.cycles)
        .field("rob_full_cycles", c.robFullCycles)
        .field("demand_accesses", c.demandAccesses)
        .field("l1_misses", c.l1Misses)
        .field("l2_hits", c.l2Hits)
        .field("l2_misses", c.l2Misses)
        .field("mshr_stalls", c.mshrStalls)
        .field("mshr_merges", c.mshrMerges)
        .field("pref_drops", c.prefDrops)
        .field("demand_miss_fills", c.demandMissFills)
        .field("demand_miss_cycles", c.demandMissCycles)
        .field("pref_sent", c.prefSent)
        .field("pref_used", c.prefUsed)
        .field("pref_late", c.prefLate)
        .field("demand_misses", c.demandMisses)
        .field("pollution_misses", c.pollutionMisses)
        .field("intervals", c.intervals);
    j.key("level_buckets").begin('[');
    for (std::uint64_t b : c.levelBuckets)
        j.value(b);
    j.end(']');
    j.key("insert_buckets").begin('[');
    for (std::uint64_t b : c.insertBuckets)
        j.value(b);
    j.end(']');
    j.field("bus_accesses", c.busAccesses)
        .field("bus_busy_cycles", c.busBusyCycles)
        .field("bus_capacity_cycles", c.busCapacityCycles)
        .field("row_hits", c.rowHits)
        .field("row_conflicts", c.rowConflicts)
        .field("row_empties", c.rowEmpties)
        .field("promotions", c.promotions)
        .field("low_tier_drops", c.lowTierDrops)
        .field("queued_sum", c.queuedSum)
        .field("queued_samples", c.queuedSamples)
        .field("events_serviced", c.eventsServiced)
        .field("cross_pollution", c.crossPollution)
        .field("core_ipc_min", c.coreIpcMin)
        .field("core_ipc_max", c.coreIpcMax);
    j.end('}');
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    std::unique_ptr<BenchWorkload> wl = makeWorkload(opts);
    if (!wl) {
        std::string known;
        for (const std::string &n : workloadNames())
            known += (known.empty() ? "" : " ") + n;
        fdp::fatal("unknown workload `%s' (known: %s)",
                   opts.workload.c_str(), known.c_str());
    }

    std::vector<double> setupS;
    for (int i = 0; i < kSetups; ++i) {
        const std::int64_t t0 = nowNs();
        wl->setup();
        setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    // The timed phase: untraced reps for the whole budget, rep r on
    // seed variant r % variants(); with tracing, every untraced rep is
    // followed by a traced rep of the same variant.
    const unsigned variants = wl->variants();
    std::vector<double> repWalls, repInsts, tracedWalls;
    std::vector<SweepTiming> sweepReps;
    std::vector<RepResult> first(variants);
    std::vector<std::string> firstPrint(variants);
    std::vector<Check> checks;
    Check repeat{"reps-identical", true, 0, ""};
    Check fidelity{"traced-equals-untraced", true, 0, ""};
    TraceSink sink;
    std::deque<LoggedPrefetcher> logs;

    const std::int64_t phaseStart = nowNs();
    for (std::size_t n = 0;; ++n) {
        const unsigned v = static_cast<unsigned>(n % variants);
        const std::int64_t t0 = nowNs();
        RepResult r = wl->rep(v);
        repWalls.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        repInsts.push_back(static_cast<double>(r.insts));
        repeat.runs += r.runs;
        if (!r.sweep.cellS.empty())
            sweepReps.push_back(r.sweep);
        const std::string print = fingerprint(r.records);
        if (n < variants) {
            first[v] = std::move(r);
            firstPrint[v] = print;
        } else if (print != firstPrint[v]) {
            repeat.ok = false;
            repeat.failedRuns += r.runs;
            repeat.detail = "variant " + std::to_string(v) + " differs";
        }
        if (opts.trace) {
            sink.logs = tracedWalls.empty() ? &logs : nullptr;
            sink.logCapacity = kLogCalls / first[v].records.size();
            const std::int64_t t1 = nowNs();
            const RepResult tr = wl->tracedRep(v, sink);
            tracedWalls.push_back(static_cast<double>(nowNs() - t1) * 1e-9);
            fidelity.runs += tr.runs;
            if (fingerprint(tr.records) != firstPrint[v]) {
                fidelity.ok = false;
                fidelity.failedRuns += tr.runs;
                fidelity.detail = "variant " + std::to_string(v) + " differs";
            }
        }
        // Every variant runs at least once, so the model metrics
        // average over all of them.
        const double elapsed =
            static_cast<double>(nowNs() - phaseStart) * 1e-9;
        if (elapsed >= opts.seconds && n + 1 >= variants)
            break;
    }
    checks.push_back(repeat);
    if (opts.trace)
        checks.push_back(fidelity);

    // Micro vs in-situ: replay what each traced prefetcher was asked
    // into a fresh one of the same kind.
    IsolatedReplay isolated;
    std::uint64_t logDropped = 0;
    double isolatedNs = 0.0;
    if (opts.trace) {
        Check replay{"isolated-prefetch-replay", true, 0, ""};
        for (const LoggedPrefetcher &lp : logs) {
            const fdp::RunConfig &cfg = lp.config;
            const IsolatedReplay r = replayIsolated(
                lp.log, [&cfg] { return fdp::makeRunPrefetcher(cfg); },
                kIsolatedPasses);
            if (!r.identical) {
                replay.ok = false;
                replay.detail = "candidate sequences differ";
            }
            isolated.observes += r.observes;
            isolatedNs += r.nsPerObserve * static_cast<double>(r.observes);
            logDropped += lp.log.dropped;
        }
        if (isolated.observes > 0)
            isolated.nsPerObserve =
                isolatedNs / static_cast<double>(isolated.observes);
        checks.push_back(replay);
    }

    for (Check &c : wl->checks(first)) {
        if (!c.ok)
            c.failedRuns = c.runs;
        checks.push_back(std::move(c));
    }
    std::uint64_t attempted = 0, failed = 0;
    for (const Check &c : checks) {
        attempted += c.runs;
        failed += c.failedRuns;
    }

    // Model metrics over the first rep of every variant: the geometric
    // mean of the run IPCs and the bus accesses per 1000 instructions.
    double logIpc = 0.0, runs = 0.0, insts = 0.0, bus = 0.0;
    std::vector<Record> records;
    for (const RepResult &r : first) {
        for (double ipc : r.ipcs) {
            logIpc += std::log(ipc);
            runs += 1.0;
        }
        insts += static_cast<double>(r.insts);
        bus += static_cast<double>(r.busAccesses);
        records.insert(records.end(), r.records.begin(), r.records.end());
    }

    std::ostringstream os;
    Json j(os);
    j.begin('{')
        .field("workload", opts.workload)
        .field("seed", opts.seed)
        .field("trace", opts.trace)
        .array("setup_s", setupS)
        .array("rep_wall_s", repWalls)
        .array("rep_insts", repInsts)
        .field("variants", std::uint64_t{variants})
        .field("sim_ipc", std::exp(logIpc / runs))
        .field("sim_bpki", bus * 1000.0 / insts)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("peak_rss_kb", peakRssKb());
    writeRecords(j, records);
    j.key("checks").begin('[');
    for (const Check &c : checks)
        j.begin('{')
            .field("name", c.name)
            .field("ok", c.ok)
            .field("runs", c.runs)
            .field("detail", c.detail)
            .end('}');
    j.end(']');
    writeSweep(j, sweepReps);
    j.key("extras").begin('{');
    for (const auto &[k, v] : wl->extras())
        j.field(k, v);
    j.end('}');
    if (opts.trace) {
        j.key("traced").begin('{');
        j.array("wall_s", tracedWalls)
            .field("busy_s", sink.busyS)
            .field("span_cost_ns", spanCostNs())
            .field("prefetch_candidates", sink.tracer.prefetchCandidates);
        j.key("layers").begin('{');
        for (std::size_t l = 0; l < kNumLayers; ++l) {
            const Tracer::Totals &t = sink.tracer.totals(
                static_cast<Layer>(l));
            j.key(layerName(static_cast<Layer>(l)))
                .begin('{')
                .field("calls", t.calls)
                .field("self_ns", static_cast<double>(t.selfNs))
                .end('}');
        }
        j.end('}');
        writeCounts(j, sink.counts);
        j.key("isolated")
            .begin('{')
            .field("observes", isolated.observes)
            .field("ns_per_observe", isolated.nsPerObserve)
            .field("logs", std::uint64_t{logs.size()})
            .field("dropped_calls", logDropped)
            .end('}');
        j.end('}');
    }
    j.end('}');
    std::cout << os.str() << std::endl;
    return 0;
}
