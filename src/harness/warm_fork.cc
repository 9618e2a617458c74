#include "harness/warm_fork.hh"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>
#include <sys/types.h>

#include "harness/result_store.hh"
#include "sim/check.hh"
#include "sim/logging.hh"
#include "workload/spec_suite.hh"

namespace fdp
{

SnapshotImage
captureWarmSnapshot(const std::string &benchmark, const RunConfig &config)
{
    if (config.warmupInsts == 0)
        fatal("warm snapshot of %s: warmupInsts is 0 (nothing to warm)",
              benchmark.c_str());

    // The neutral machine: the cell's geometry with no prefetcher and
    // the default (inert) FDP policy. Because warm-up always runs with
    // the prefetcher detached, this machine's events/workload/core/mem
    // state after warmupInsts instructions is bit-identical to any
    // per-config machine's at its own warm-up boundary.
    RunConfig neutral = RunConfig::noPrefetching();
    neutral.machine = config.machine;
    neutral.core = config.core;
    neutral.warmupInsts = config.warmupInsts;

    SyntheticWorkload workload(benchmarkParams(benchmark));
    SimMachine m(workload, neutral);
    m.core.run(config.warmupInsts);
    drainToQuiesce(m.events, m.mem);
    FDP_ASSERT(m.events.empty(),
               "warm snapshot: %zu events pending after drain",
               m.events.size());

    SnapshotImageBody body = captureMachine(m.parts());
    SnapshotImage image;
    image.benchmark = benchmark;
    image.geometry = machineGeometry(config.machine, config.core);
    image.warmupInsts = config.warmupInsts;
    image.sectionCount = body.sectionCount;
    image.body = std::move(body.bytes);
    return image;
}

void
saveWarmSnapshot(const std::string &benchmark, const RunConfig &config,
                 const std::string &path)
{
    writeSnapshotFile(path, captureWarmSnapshot(benchmark, config));
}

RunResult
runBenchmarkFromSnapshot(const SnapshotImage &image, const RunConfig &config,
                         const std::string &configLabel)
{
    if (config.warmupInsts != image.warmupInsts)
        fatal("snapshot: config warms %llu instructions, snapshot was "
              "taken after %llu",
              static_cast<unsigned long long>(config.warmupInsts),
              static_cast<unsigned long long>(image.warmupInsts));
    const std::string geom = machineGeometry(config.machine, config.core);
    if (geom != image.geometry)
        fatal("snapshot: machine geometry mismatch\n  machine:  %s\n"
              "  snapshot: %s", geom.c_str(), image.geometry.c_str());

    SyntheticWorkload workload(benchmarkParams(image.benchmark));
    SimMachine m(workload, config);
    restoreMachine(m.parts(), image.body, RestoreMode::Fork);

    AuditSet audits;
    const bool periodicAudit = wireAudits(m, audits);

    measurementBoundary(m);
    m.core.run(config.numInsts);

    if (periodicAudit)
        audits.runAll();

    return extractResult(m, configLabel);
}

std::string
warmSnapshotKey(const std::string &benchmark, const RunConfig &config,
                std::uint64_t traceHash)
{
    return "fdpsnap-store-v1 bench=" + benchmark +
           " seed=" + std::to_string(benchmarkParams(benchmark).seed) +
           " warmtrace=" + hashHex(traceHash) +
           " geom{" + machineGeometry(config.machine, config.core) + "}" +
           " warmup=" + std::to_string(config.warmupInsts) +
           " rev=" + binaryRevision() +
           " simcore=" + std::to_string(kSimCoreVersion) +
           " snapver=" + std::to_string(kSnapVersion);
}

std::string
warmSnapshotKey(const std::string &benchmark, const RunConfig &config)
{
    return warmSnapshotKey(
        benchmark, config,
        workloadTraceHash(benchmark, config.warmupInsts));
}

std::string
warmSnapshotPath(const std::string &storeDir, const std::string &key)
{
    const std::string dir = storeDir + "/snaps";
    if (mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        fatal("sweep store: cannot create %s: %s", dir.c_str(),
              std::strerror(errno));
    return dir + "/" + hashHex(fnv1a64(key)) + ".fdpsnap";
}

SnapshotImage
loadOrCaptureWarmSnapshot(const std::string &storeDir,
                          const std::string &benchmark,
                          const RunConfig &config, std::uint64_t traceHash,
                          bool *wasHit)
{
    if (wasHit)
        *wasHit = false;
    if (storeDir.empty())
        return captureWarmSnapshot(benchmark, config);

    const std::string key = warmSnapshotKey(benchmark, config, traceHash);
    const std::string path = warmSnapshotPath(storeDir, key);
    struct stat st;
    if (stat(path.c_str(), &st) == 0) {
        // Content-addressed: the identity header can only disagree on a
        // key collision, which we treat as a miss and overwrite.
        SnapshotImage image = readSnapshotFile(path);
        if (image.benchmark == benchmark &&
            image.warmupInsts == config.warmupInsts &&
            image.geometry ==
                machineGeometry(config.machine, config.core)) {
            if (wasHit)
                *wasHit = true;
            return image;
        }
    }
    SnapshotImage image = captureWarmSnapshot(benchmark, config);
    writeSnapshotFile(path, image);
    return image;
}

} // namespace fdp
