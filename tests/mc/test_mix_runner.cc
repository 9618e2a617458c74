/**
 * @file
 * Mix sweep tests: parallel and sequential execution produce
 * bit-identical results (DESIGN.md §10), speedups come out finalized
 * against the right alone baselines, and the report tables / JSON
 * carry every metric.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mc/mix_runner.hh"

namespace fdp
{
namespace
{

McLabeledConfig
labeled(const std::string &label, RunConfig base, unsigned cores,
        std::uint64_t insts)
{
    base.numInsts = insts;
    McLabeledConfig c;
    c.label = label;
    c.config.base = base;
    c.config.numCores = cores;
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

std::vector<McLabeledConfig>
twoConfigs(unsigned cores, std::uint64_t insts)
{
    return {labeled("static5", RunConfig::staticLevelConfig(5), cores,
                    insts),
            labeled("fdp", RunConfig::fullFdp(), cores, insts)};
}

void
expectIdenticalResults(const std::vector<McRunResult> &a,
                       const std::vector<McRunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
        EXPECT_EQ(a[c].cycles, b[c].cycles);
        EXPECT_EQ(a[c].busAccesses, b[c].busAccesses);
        EXPECT_EQ(a[c].weightedSpeedup, b[c].weightedSpeedup);
        EXPECT_EQ(a[c].harmonicSpeedup, b[c].harmonicSpeedup);
        EXPECT_EQ(a[c].fairness, b[c].fairness);
        ASSERT_EQ(a[c].cores.size(), b[c].cores.size());
        for (std::size_t i = 0; i < a[c].cores.size(); ++i) {
            EXPECT_EQ(a[c].cores[i].cycles, b[c].cores[i].cycles);
            EXPECT_DOUBLE_EQ(a[c].cores[i].ipc, b[c].cores[i].ipc);
            EXPECT_EQ(a[c].cores[i].aloneIpc, b[c].cores[i].aloneIpc);
            EXPECT_EQ(a[c].cores[i].speedup, b[c].cores[i].speedup);
        }
    }
}

TEST(MixRunner, JobCountNeverChangesTheResults)
{
    const MixSpec spec = benchMix("det", {"swim", "art"});
    const auto configs = twoConfigs(2, 25'000);
    const auto seq = runMixSweep(spec, configs, 1);
    const auto par = runMixSweep(spec, configs, 4);
    expectIdenticalResults(seq, par);
}

TEST(MixRunner, SpeedupsComeOutFinalized)
{
    const MixSpec spec = benchMix("fin", {"swim", "mgrid"});
    const auto results =
        runMixSweep(spec, twoConfigs(2, 25'000), 2);
    ASSERT_EQ(results.size(), 2u);
    for (const McRunResult &r : results) {
        for (const McCoreResult &c : r.cores) {
            EXPECT_GT(c.aloneIpc.value(), 0.0);
            EXPECT_GT(c.speedup.value(), 0.0);
            // Sharing the hierarchy cannot beat running alone.
            EXPECT_LE(c.speedup.value(), 1.0);
        }
        EXPECT_GT(r.weightedSpeedup.value(), 0.0);
        EXPECT_LE(r.weightedSpeedup.value(), 2.0);
        EXPECT_GT(r.harmonicSpeedup.value(), 0.0);
        EXPECT_GT(r.fairness.value(), 0.0);
        EXPECT_LE(r.fairness.value(), 1.0);
    }
}

TEST(MixRunner, DuplicateProgramsShareOneBaselinePerSeed)
{
    // Two swim copies run perturbed seeds, so they are distinct
    // baseline cells; their alone IPCs differ from each other but both
    // come out positive and finalized.
    const MixSpec spec = benchMix("dup", {"swim", "swim"});
    const auto results = runMixSweep(
        spec, {labeled("fdp", RunConfig::fullFdp(), 2, 25'000)}, 2);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].cores[0].aloneIpc.value(), 0.0);
    EXPECT_GT(results[0].cores[1].aloneIpc.value(), 0.0);
}

TEST(MixRunner, TablesCoverEveryConfigAndCore)
{
    const MixSpec spec = benchMix("tab", {"swim", "art"});
    const auto results = runMixSweep(spec, twoConfigs(2, 15'000), 2);
    const Table percore = buildMixCoreTable(results);
    EXPECT_EQ(percore.numRows(), 4u);  // 2 configs x 2 cores
    const Table summary = buildMixSummaryTable(results);
    EXPECT_EQ(summary.numRows(), 2u);  // one per config
}

TEST(MixRunner, JsonCarriesRunAndPerCoreMetrics)
{
    const MixSpec spec = benchMix("json", {"swim", "art"});
    const auto results = runMixSweep(
        spec, {labeled("fdp", RunConfig::fullFdp(), 2, 15'000)}, 2);
    ResultsJson json("test");
    addMcRunResult(json, results[0]);
    std::ostringstream os;
    json.write(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("json/fdp/weighted_speedup"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/harmonic_speedup"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/fairness"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/c0/swim/ipc"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/c1/art/speedup"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/c1/art/cross_pollution_suffered"),
              std::string::npos);
}

TEST(MixRunner, JsonEmitsSpeedupsOnlyWithAloneBaselines)
{
    const MixSpec spec = benchMix("json", {"swim", "art"});
    const McLabeledConfig cfg =
        labeled("fdp", RunConfig::fullFdp(), 2, 15'000);
    for (const bool swept : {false, true}) {
        ResultsJson json("test");
        addMcRunResult(json, swept ? runMixSweep(spec, {cfg}, 2)[0]
                                   : runMix(spec, cfg.config, cfg.label));
        std::ostringstream os;
        json.write(os);
        EXPECT_NE(os.str().find("json/fdp/c0/swim/ipc"), std::string::npos);
        for (const char *key :
             {"json/fdp/weighted_speedup", "json/fdp/harmonic_speedup",
              "json/fdp/fairness", "json/fdp/c0/swim/speedup",
              "json/fdp/c1/art/speedup"})
            EXPECT_EQ(os.str().find(key) != std::string::npos, swept) << key;
    }
}

TEST(MixRunner, RejectsConfigWithWrongCoreCount)
{
    const MixSpec spec = benchMix("bad", {"swim", "art"});
    EXPECT_EXIT(
        runMixSweep(spec,
                    {labeled("fdp", RunConfig::fullFdp(), 4, 1000)}, 1),
        testing::ExitedWithCode(1), "cores");
}

} // namespace
} // namespace fdp
