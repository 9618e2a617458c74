/**
 * @file
 * Co-run driver tests: 1-core parity with the single-core experiment
 * path (bit-identical cycles and stats), multi-core run shape,
 * deterministic repetition, and contention actually showing up in the
 * shared hierarchy.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "mc/mc_machine.hh"

namespace fdp
{
namespace
{

McRunConfig
mcConfig(RunConfig base, unsigned cores, std::uint64_t insts)
{
    base.numInsts = insts;
    McRunConfig c;
    c.base = base;
    c.numCores = cores;
    return c;
}

MixSpec
benchMix(const char *name, std::vector<std::string> benches)
{
    MixSpec spec;
    spec.name = name;
    for (auto &b : benches)
        spec.entries.push_back(MixEntry{std::move(b), ""});
    return spec;
}

/** A 1-core co-run must reproduce the single-core machine exactly,
 *  from reset or after @p warmup unmeasured micro-ops. */
void
expectSingleCoreParity(const RunConfig &base, const char *bench,
                       std::uint64_t warmup = 0)
{
    RunConfig cfg = base;
    cfg.numInsts = 60'000;
    cfg.warmupInsts = warmup;
    const RunResult single = runBenchmark(bench, cfg, "single");

    const McRunConfig mc = mcConfig(cfg, 1, 60'000);
    const McRunResult corun =
        runMix(benchMix("parity", {bench}), mc, "mc");

    ASSERT_EQ(corun.cores.size(), 1u);
    const McCoreResult &c = corun.cores[0];
    EXPECT_EQ(c.program, single.benchmark);
    EXPECT_EQ(c.insts, single.insts);
    EXPECT_EQ(c.cycles, single.cycles);
    EXPECT_EQ(c.busAccesses, single.busAccesses);
    EXPECT_EQ(c.l2Misses, single.l2Misses);
    EXPECT_EQ(c.demandAccesses, single.demandAccesses);
    EXPECT_EQ(c.prefSent, single.prefSent);
    EXPECT_EQ(c.prefUsed, single.prefUsed);
    EXPECT_DOUBLE_EQ(c.ipc, single.ipc);
    EXPECT_DOUBLE_EQ(c.bpki, single.bpki);
    EXPECT_DOUBLE_EQ(c.accuracy, single.accuracy);
    EXPECT_DOUBLE_EQ(c.lateness, single.lateness);
    EXPECT_DOUBLE_EQ(c.pollution, single.pollution);
}

TEST(McMachine, OneCoreParityFullFdp)
{
    expectSingleCoreParity(RunConfig::fullFdp(), "swim");
}

TEST(McMachine, OneCoreParityStaticAggressive)
{
    expectSingleCoreParity(RunConfig::staticLevelConfig(5), "art");
}

TEST(McMachine, OneCoreParityNoPrefetching)
{
    expectSingleCoreParity(RunConfig::noPrefetching(), "mcf");
}

TEST(McMachine, OneCoreParityWarmedFullFdp)
{
    // The co-run warm-up and boundary are the single-core ones.
    expectSingleCoreParity(RunConfig::fullFdp(), "swim", 40'000);
}

TEST(McMachine, TwoCoreRunHasSaneShape)
{
    // From reset and after a warm-up, which moves the measured window.
    std::vector<std::uint64_t> runCycles;
    for (const std::uint64_t warmup : {0, 30'000}) {
        McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 40'000);
        cfg.base.warmupInsts = warmup;
        const McRunResult r =
            runMix(benchMix("shape", {"swim", "art"}), cfg, "fdp");
        ASSERT_EQ(r.cores.size(), 2u);
        EXPECT_EQ(r.numCores, 2u);
        EXPECT_EQ(r.cores[0].program, "swim");
        EXPECT_EQ(r.cores[1].program, "art");
        double ipcSum = 0.0;
        std::uint64_t maxCycles = 0, busSum = 0;
        for (const McCoreResult &c : r.cores) {
            EXPECT_EQ(c.insts, 40'000u);  // every core retires its budget
            EXPECT_GT(c.cycles, 0u);
            EXPECT_GT(c.ipc, 0.0);
            ipcSum += c.ipc;
            maxCycles = std::max(maxCycles, c.cycles);
            busSum += c.busAccesses;
        }
        EXPECT_DOUBLE_EQ(r.throughput, ipcSum);
        EXPECT_EQ(r.cycles, maxCycles);
        // Every bus access belongs to exactly one core.
        EXPECT_EQ(busSum, r.busAccesses);
        runCycles.push_back(r.cycles);
    }
    EXPECT_NE(runCycles[0], runCycles[1]);
}

TEST(McMachine, CoRunsAreDeterministic)
{
    const McRunConfig cfg =
        mcConfig(RunConfig::fullFdp(), 2, 30'000);
    const MixSpec spec = benchMix("det", {"swim", "mgrid"});
    const McRunResult a = runMix(spec, cfg, "fdp");
    const McRunResult b = runMix(spec, cfg, "fdp");
    ASSERT_EQ(a.cores.size(), b.cores.size());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.busAccesses, b.busAccesses);
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
        EXPECT_DOUBLE_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].busAccesses, b.cores[i].busAccesses);
        EXPECT_EQ(a.cores[i].l2Misses, b.cores[i].l2Misses);
    }
}

TEST(McMachine, SharingTheHierarchySlowsCoresDown)
{
    // Two bandwidth-hungry streamers contending for one bus can never
    // beat their own solo runs under the identical configuration.
    RunConfig base = RunConfig::staticLevelConfig(5);
    base.numInsts = 40'000;
    const RunResult aloneSwim = runBenchmark("swim", base, "alone");
    const RunResult aloneMgrid = runBenchmark("mgrid", base, "alone");

    const McRunConfig cfg =
        mcConfig(RunConfig::staticLevelConfig(5), 2, 40'000);
    const McRunResult r =
        runMix(benchMix("contend", {"swim", "mgrid"}), cfg, "static5");
    EXPECT_LE(r.cores[0].ipc, aloneSwim.ipc);
    EXPECT_LE(r.cores[1].ipc, aloneMgrid.ipc);
    // And the contention is real: someone actually got slower.
    EXPECT_LT(r.cores[0].ipc + r.cores[1].ipc,
              aloneSwim.ipc + aloneMgrid.ipc);
}

TEST(McMachine, FourCoreRunRetiresEveryBudget)
{
    const McRunConfig cfg =
        mcConfig(RunConfig::fullFdp(), 4, 20'000);
    const McRunResult r = runMix(
        benchMix("four", {"swim", "mgrid", "applu", "lucas"}), cfg,
        "fdp");
    ASSERT_EQ(r.cores.size(), 4u);
    for (const McCoreResult &c : r.cores)
        EXPECT_EQ(c.insts, 20'000u);
}

TEST(McMachine, MismatchedCoreCountIsFatal)
{
    const McRunConfig cfg =
        mcConfig(RunConfig::fullFdp(), 4, 10'000);
    EXPECT_EXIT(runMix(benchMix("two", {"swim", "art"}), cfg, "fdp"),
                testing::ExitedWithCode(1), "cores");
}

TEST(McMachine, HeterogeneousCoresRunTheirOwnPrefetchers)
{
    McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 30'000);
    cfg.corePrefetchers = {"stream", "vldp"};
    const McRunResult r =
        runMix(benchMix("hetero", {"swim", "art"}), cfg, "fdp");
    ASSERT_EQ(r.cores.size(), 2u);
    EXPECT_EQ(r.cores[0].prefetcher, "stream");
    EXPECT_EQ(r.cores[1].prefetcher, "vldp");
    for (const McCoreResult &c : r.cores)
        EXPECT_EQ(c.insts, 30'000u);
}

TEST(McMachine, ManagedCoreReportsItsActiveCandidate)
{
    McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 30'000);
    cfg.base.fdp.intervalEvictions = 1024;  // fast manager ticks
    cfg.corePrefetchers = {"manager", "stream"};
    const McRunResult r =
        runMix(benchMix("managed", {"swim", "art"}), cfg, "fdp");
    ASSERT_EQ(r.cores.size(), 2u);
    // "manager[<candidate>]" where <candidate> is a zoo member.
    EXPECT_EQ(r.cores[0].prefetcher.rfind("manager[", 0), 0u)
        << r.cores[0].prefetcher;
    EXPECT_EQ(r.cores[0].prefetcher.back(), ']');
    EXPECT_EQ(r.cores[1].prefetcher, "stream");
}

TEST(McMachine, HeterogeneousRunsAreDeterministic)
{
    McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 30'000);
    cfg.base.fdp.intervalEvictions = 1024;
    cfg.corePrefetchers = {"manager", "dspatch"};
    const MixSpec spec = benchMix("hdet", {"swim", "mgrid"});
    const McRunResult a = runMix(spec, cfg, "fdp");
    const McRunResult b = runMix(spec, cfg, "fdp");
    ASSERT_EQ(a.cores.size(), b.cores.size());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.busAccesses, b.busAccesses);
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
        EXPECT_EQ(a.cores[i].prefetcher, b.cores[i].prefetcher);
        EXPECT_EQ(a.cores[i].busAccesses, b.cores[i].busAccesses);
    }
}

TEST(McMachine, MixSpecCorePrefetchersFlowThroughRunMix)
{
    MixSpec spec = benchMix("specpf", {"swim", "art"});
    spec.corePrefetchers = {"nextline", "stride"};
    const McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 20'000);
    const McRunResult r = runMix(spec, cfg, "fdp");
    ASSERT_EQ(r.cores.size(), 2u);
    EXPECT_EQ(r.cores[0].prefetcher, "nextline");
    EXPECT_EQ(r.cores[1].prefetcher, "pc-stride");
}

TEST(McMachine, WrongSizedPrefetcherListIsFatal)
{
    McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 10'000);
    cfg.corePrefetchers = {"stream", "vldp", "dspatch"};
    EXPECT_EXIT(runMix(benchMix("bad", {"swim", "art"}), cfg, "fdp"),
                testing::ExitedWithCode(1),
                "per-core prefetcher selections");
}

} // namespace
} // namespace fdp
