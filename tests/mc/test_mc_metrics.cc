/**
 * @file
 * Multi-program metric math: weighted/harmonic speedup, the min/max
 * fairness index, and finalizeSpeedups wiring them into a co-run
 * result.
 */

#include <gtest/gtest.h>

#include "mc/mc_metrics.hh"

namespace fdp
{
namespace
{

TEST(McMetrics, WeightedSpeedupIsTheSum)
{
    EXPECT_DOUBLE_EQ(weightedSpeedup({}), 0.0);
    EXPECT_DOUBLE_EQ(weightedSpeedup({0.5, 0.75}), 1.25);
    EXPECT_DOUBLE_EQ(weightedSpeedup({1.0, 1.0, 1.0, 1.0}), 4.0);
}

TEST(McMetrics, HarmonicSpeedupBalancesThroughputAndFairness)
{
    EXPECT_DOUBLE_EQ(harmonicSpeedup({1.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(harmonicSpeedup({0.5, 0.5}), 0.5);
    // Equal weighted speedup, unequal shares: harmonic punishes it.
    EXPECT_LT(harmonicSpeedup({0.9, 0.1}), harmonicSpeedup({0.5, 0.5}));
    EXPECT_DOUBLE_EQ(harmonicSpeedup({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicSpeedup({0.7, 0.0}), 0.0);
}

TEST(McMetrics, FairnessIsMinOverMax)
{
    EXPECT_DOUBLE_EQ(fairnessMinMax({0.8, 0.8}), 1.0);
    EXPECT_DOUBLE_EQ(fairnessMinMax({0.25, 0.5}), 0.5);
    EXPECT_DOUBLE_EQ(fairnessMinMax({}), 0.0);
    EXPECT_DOUBLE_EQ(fairnessMinMax({0.0, 0.0}), 0.0);
}

TEST(McMetrics, FinalizeSpeedupsFillsEveryDerivedField)
{
    McRunResult r;
    r.mix = "m";
    r.config = "c";
    r.numCores = 2;
    r.cores.resize(2);
    r.cores[0].ipc = 0.5;
    r.cores[1].ipc = 0.9;
    finalizeSpeedups(r, {1.0, 1.2});
    EXPECT_DOUBLE_EQ(r.cores[0].aloneIpc.value(), 1.0);
    EXPECT_DOUBLE_EQ(r.cores[0].speedup.value(), 0.5);
    EXPECT_DOUBLE_EQ(r.cores[1].speedup.value(), 0.75);
    EXPECT_DOUBLE_EQ(r.weightedSpeedup.value(), 1.25);
    EXPECT_DOUBLE_EQ(r.harmonicSpeedup.value(),
                     2.0 / (1.0 / 0.5 + 1.0 / 0.75));
    EXPECT_DOUBLE_EQ(r.fairness.value(), 0.5 / 0.75);
}

TEST(McMetrics, FinalizeSpeedupsRejectsSizeMismatch)
{
    McRunResult r;
    r.cores.resize(2);
    EXPECT_EXIT(finalizeSpeedups(r, {1.0}), testing::ExitedWithCode(1),
                "baselines");
}

} // namespace
} // namespace fdp
