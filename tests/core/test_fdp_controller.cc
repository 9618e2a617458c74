/**
 * @file
 * Unit tests for the FDP controller: all 12 Table 2 cases, the counter
 * saturation behavior, the insertion policy, interval bookkeeping, and
 * the accuracy-only ablation policy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "core/fdp_controller.hh"
#include "prefetch/stream_prefetcher.hh"

namespace fdp
{
namespace
{

using Action = FdpController::Action;

const FdpThresholds kT;  // paper defaults

double
accFor(int cls)
{
    // 0 = High, 1 = Medium, 2 = Low
    return cls == 0 ? 0.9 : cls == 1 ? 0.5 : 0.1;
}

// ---- Table 2: the 12-case policy, exhaustively ----

struct Table2Case
{
    int acc;       // 0 High, 1 Medium, 2 Low
    bool late;
    bool polluting;
    Action want;
};

// Prints the inputs, e.g. "high_late_nopoll". gtest would otherwise
// print the struct's raw bytes, padding included, into the test names.
void
PrintTo(const Table2Case &c, std::ostream *os)
{
    static const char *const acc[] = {"high", "medium", "low"};
    *os << acc[c.acc] << (c.late ? "_late" : "_nolate")
        << (c.polluting ? "_poll" : "_nopoll");
}

class Table2 : public ::testing::TestWithParam<Table2Case>
{
};

TEST_P(Table2, PolicyMatchesPaper)
{
    const auto &c = GetParam();
    const double lateness = c.late ? 0.5 : 0.0;
    const double pollution = c.polluting ? 0.1 : 0.0;
    EXPECT_EQ(FdpController::decideAggressiveness(kT, accFor(c.acc),
                                                  lateness, pollution),
              c.want);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, Table2,
    ::testing::Values(
        // case 1..12 in paper order
        Table2Case{0, true, false, Action::Increment},
        Table2Case{0, true, true, Action::Increment},
        Table2Case{0, false, false, Action::NoChange},
        Table2Case{0, false, true, Action::Decrement},
        Table2Case{1, true, false, Action::Increment},
        Table2Case{1, true, true, Action::Decrement},
        Table2Case{1, false, false, Action::NoChange},
        Table2Case{1, false, true, Action::Decrement},
        Table2Case{2, true, false, Action::Decrement},
        Table2Case{2, true, true, Action::Decrement},
        Table2Case{2, false, false, Action::NoChange},
        Table2Case{2, false, true, Action::Decrement}),
    // "case01_high_late_nopoll": the paper's case number, then inputs.
    [](const ::testing::TestParamInfo<Table2Case> &info) {
        const std::size_t n = info.index + 1;
        return (n < 10 ? "case0" : "case") + std::to_string(n) + "_" +
               ::testing::PrintToString(info.param);
    });

TEST(Table2Thresholds, BoundariesClassifyAsPaper)
{
    // accuracy == A_high counts as high; == A_low counts as medium.
    EXPECT_EQ(FdpController::decideAggressiveness(kT, kT.aHigh, 0.5, 0.0),
              Action::Increment);
    EXPECT_EQ(FdpController::decideAggressiveness(kT, kT.aLow, 0.5, 0.1),
              Action::Decrement);  // medium+late+polluting = case 6
    // lateness exactly at T_lateness is "not late".
    EXPECT_EQ(FdpController::decideAggressiveness(kT, 0.9, kT.tLateness,
                                                  0.0),
              Action::NoChange);
    // pollution exactly at T_pollution is "not polluting".
    EXPECT_EQ(FdpController::decideAggressiveness(kT, 0.9, 0.0,
                                                  kT.tPollution),
              Action::NoChange);
}

// ---- Accuracy-only ablation (Section 5.6) ----

TEST(AccuracyOnly, HighIncrements)
{
    EXPECT_EQ(FdpController::decideAccuracyOnly(kT, 0.8),
              Action::Increment);
}

TEST(AccuracyOnly, MediumHolds)
{
    EXPECT_EQ(FdpController::decideAccuracyOnly(kT, 0.5),
              Action::NoChange);
}

TEST(AccuracyOnly, LowDecrements)
{
    EXPECT_EQ(FdpController::decideAccuracyOnly(kT, 0.1),
              Action::Decrement);
}

// ---- Insertion policy (Section 3.3.2) ----

TEST(InsertionPolicy, LowPollutionGoesMid)
{
    EXPECT_EQ(FdpController::decideInsertion(kT, 0.0), InsertPos::Mid);
    EXPECT_EQ(FdpController::decideInsertion(kT, kT.pLow / 2),
              InsertPos::Mid);
}

TEST(InsertionPolicy, MediumPollutionGoesLru4)
{
    EXPECT_EQ(FdpController::decideInsertion(kT, kT.pLow), InsertPos::Lru4);
    EXPECT_EQ(FdpController::decideInsertion(kT, 0.1), InsertPos::Lru4);
}

TEST(InsertionPolicy, HighPollutionGoesLru)
{
    EXPECT_EQ(FdpController::decideInsertion(kT, kT.pHigh), InsertPos::Lru);
    EXPECT_EQ(FdpController::decideInsertion(kT, 0.9), InsertPos::Lru);
}

// ---- Controller integration ----

struct ControllerFixture
{
    StatGroup stats{"fdp"};
    StreamPrefetcher pf;
    FdpParams params;

    ControllerFixture()
    {
        params.intervalEvictions = 10;  // short intervals for testing
    }

    FdpController make() { return FdpController(params, &pf, stats); }

    /** Drive one full sampling interval via evictions. */
    static void
    tick(FdpController &c, std::uint64_t evictions = 10)
    {
        for (std::uint64_t i = 0; i < evictions; ++i)
            c.onCacheEviction();
    }
};

TEST(Controller, StartsAtMiddleOfTheRoad)
{
    ControllerFixture f;
    auto c = f.make();
    EXPECT_EQ(c.level(), 3u);
    EXPECT_EQ(f.pf.aggressiveness(), 3u);
}

TEST(Controller, HighAccuracyLatePrefetchesRampUp)
{
    ControllerFixture f;
    auto c = f.make();
    for (int interval = 0; interval < 4; ++interval) {
        for (int i = 0; i < 100; ++i)
            c.onPrefetchSent();
        for (int i = 0; i < 90; ++i)
            c.onLatePrefetchMshrHit();  // used + late
        ControllerFixture::tick(c);
    }
    EXPECT_EQ(c.level(), 5u);  // saturated at Very Aggressive
    EXPECT_EQ(f.pf.aggressiveness(), 5u);
}

TEST(Controller, LowAccuracyPollutionRampsDown)
{
    ControllerFixture f;
    auto c = f.make();
    for (int interval = 0; interval < 4; ++interval) {
        for (int i = 0; i < 100; ++i)
            c.onPrefetchSent();
        c.onPrefetchUsedInCache();  // 1% accuracy
        for (int i = 0; i < 100; ++i) {
            c.onDemandBlockEvictedByPrefetch(i);
            c.onDemandMiss(i);  // filter hit -> pollution
        }
        ControllerFixture::tick(c);
    }
    EXPECT_EQ(c.level(), 1u);  // saturated at Very Conservative
}

TEST(Controller, CounterSaturatesAtBothEnds)
{
    ControllerFixture f;
    auto c = f.make();
    // Best-case metrics forever: level must never exceed 5.
    for (int interval = 0; interval < 10; ++interval) {
        for (int i = 0; i < 100; ++i)
            c.onPrefetchSent();
        for (int i = 0; i < 95; ++i)
            c.onLatePrefetchMshrHit();
        ControllerFixture::tick(c);
        EXPECT_GE(c.level(), 1u);
        EXPECT_LE(c.level(), 5u);
    }
}

TEST(Controller, DisabledAggressivenessNeverMoves)
{
    ControllerFixture f;
    f.params.dynamicAggressiveness = false;
    f.params.initialLevel = 5;
    auto c = f.make();
    for (int interval = 0; interval < 4; ++interval) {
        for (int i = 0; i < 100; ++i)
            c.onPrefetchSent();
        ControllerFixture::tick(c);
    }
    EXPECT_EQ(c.level(), 5u);
}

TEST(Controller, StaticInsertionPositionHonored)
{
    ControllerFixture f;
    f.params.dynamicInsertion = false;
    f.params.staticInsertPos = InsertPos::Lru4;
    auto c = f.make();
    EXPECT_EQ(c.insertPos(), InsertPos::Lru4);
    ControllerFixture::tick(c);
    EXPECT_EQ(c.insertPos(), InsertPos::Lru4);
}

TEST(Controller, DynamicInsertionFollowsPollution)
{
    ControllerFixture f;
    auto c = f.make();
    // Heavy pollution interval.
    for (int i = 0; i < 100; ++i) {
        c.onDemandBlockEvictedByPrefetch(i);
        c.onDemandMiss(i);
    }
    ControllerFixture::tick(c);
    EXPECT_EQ(c.insertPos(), InsertPos::Lru);
    // Pollution-free intervals decay the metric back toward MID.
    for (int interval = 0; interval < 12; ++interval) {
        for (int i = 0; i < 100; ++i)
            c.onDemandMiss(1000000 + i);  // misses not caused by prefetch
        ControllerFixture::tick(c);
    }
    EXPECT_EQ(c.insertPos(), InsertPos::Mid);
}

TEST(Controller, PrefetchFillClearsFilterEntry)
{
    ControllerFixture f;
    auto c = f.make();
    c.onDemandBlockEvictedByPrefetch(42);
    c.onPrefetchFill(42);
    EXPECT_FALSE(c.onDemandMiss(42));
}

TEST(Controller, OnDemandMissReportsPollution)
{
    ControllerFixture f;
    auto c = f.make();
    EXPECT_FALSE(c.onDemandMiss(7));
    c.onDemandBlockEvictedByPrefetch(7);
    EXPECT_TRUE(c.onDemandMiss(7));
}

TEST(Controller, LifetimeMetrics)
{
    ControllerFixture f;
    auto c = f.make();
    for (int i = 0; i < 10; ++i)
        c.onPrefetchSent();
    for (int i = 0; i < 4; ++i)
        c.onPrefetchUsedInCache();
    c.onLatePrefetchMshrHit();  // used total becomes 5, late 1
    EXPECT_NEAR(c.lifetimeAccuracy(), 0.5, 1e-12);
    EXPECT_NEAR(c.lifetimeLateness(), 0.2, 1e-12);
}

TEST(Controller, IntervalCountAndLevelDistribution)
{
    ControllerFixture f;
    auto c = f.make();
    for (int i = 0; i < 3; ++i)
        ControllerFixture::tick(c);
    EXPECT_EQ(c.intervalsCompleted(), 3u);
    // With no feedback events at all, the level never changes from 3.
    EXPECT_DOUBLE_EQ(c.levelDistribution().fraction(2), 1.0);
}

TEST(Controller, InsertDistributionSamplesFills)
{
    ControllerFixture f;
    f.params.dynamicInsertion = false;
    f.params.staticInsertPos = InsertPos::Mru;
    auto c = f.make();
    for (int i = 0; i < 5; ++i)
        c.onPrefetchFill(i);
    EXPECT_DOUBLE_EQ(
        c.insertDistribution().fraction(
            static_cast<std::size_t>(InsertPos::Mru)),
        1.0);
}

TEST(Controller, AccuracyOnlyModeIgnoresPollution)
{
    ControllerFixture f;
    f.params.accuracyOnly = true;
    auto c = f.make();
    // High accuracy + heavy pollution: full policy would decrement
    // (case 4); accuracy-only must increment.
    for (int i = 0; i < 100; ++i) {
        c.onPrefetchSent();
        c.onPrefetchUsedInCache();
    }
    for (int i = 0; i < 100; ++i) {
        c.onDemandBlockEvictedByPrefetch(i);
        c.onDemandMiss(i);
    }
    ControllerFixture::tick(c);
    EXPECT_EQ(c.level(), 4u);
}

TEST(ControllerDeath, BadInitialLevelIsFatal)
{
    StatGroup stats("fdp");
    FdpParams p;
    p.initialLevel = 0;
    EXPECT_DEATH({ FdpController c(p, nullptr, stats); }, "out of range");
}

TEST(ControllerDeath, ZeroIntervalIsFatal)
{
    StatGroup stats("fdp");
    FdpParams p;
    p.intervalEvictions = 0;
    EXPECT_DEATH({ FdpController c(p, nullptr, stats); }, "nonzero");
}

} // namespace
} // namespace fdp
