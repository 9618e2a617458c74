/**
 * @file
 * Unit tests for the stream prefetcher's 4-state tracking FSM and its
 * distance/degree behavior (paper Section 2.1, Table 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "prefetch/stream_prefetcher.hh"

namespace fdp
{
namespace
{

PrefetchObservation
miss(BlockAddr block)
{
    return {blockBase(block), block, 0x1000, true};
}

PrefetchObservation
hit(BlockAddr block)
{
    return {blockBase(block), block, 0x1000, false};
}

/** Feed an ascending 3-miss training sequence starting at @p base. */
std::vector<BlockAddr>
train(StreamPrefetcher &pf, BlockAddr base)
{
    std::vector<BlockAddr> out;
    pf.observe(miss(base), out);
    pf.observe(miss(base + 1), out);
    pf.observe(miss(base + 2), out);
    return out;
}

TEST(StreamPrefetcher, NoPrefetchBeforeTraining)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(100), out);
    EXPECT_TRUE(out.empty());
    pf.observe(miss(101), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pf.numMonitoringStreams(), 0u);
}

TEST(StreamPrefetcher, ThirdConsistentMissTrains)
{
    StreamPrefetcher pf;
    const auto out = train(pf, 100);
    EXPECT_EQ(pf.numMonitoringStreams(), 1u);
    // Training issues the start-up window past the last miss.
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), 103u);
}

TEST(StreamPrefetcher, DescendingStreamTrains)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(200), out);
    pf.observe(miss(199), out);
    pf.observe(miss(198), out);
    EXPECT_EQ(pf.numMonitoringStreams(), 1u);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), 197u);
}

TEST(StreamPrefetcher, DirectionReversalRestartsTraining)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(100), out);
    pf.observe(miss(102), out);  // ascending...
    pf.observe(miss(99), out);   // ...then descending: retrain
    EXPECT_EQ(pf.numMonitoringStreams(), 0u);
    pf.observe(miss(97), out);  // consistent descending delta
    EXPECT_EQ(pf.numMonitoringStreams(), 1u);
}

TEST(StreamPrefetcher, MissOutsideWindowAllocatesNewStream)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(100), out);
    pf.observe(miss(100 + 17), out);  // outside the +/-16 train window
    // Two independent Allocated entries: train each separately.
    pf.observe(miss(101), out);
    pf.observe(miss(102), out);
    EXPECT_EQ(pf.numMonitoringStreams(), 1u);
}

TEST(StreamPrefetcher, MonitorRegionAccessIssuesDegreePrefetches)
{
    StreamPrefetcher pf;
    pf.setAggressiveness(5);  // distance 64, degree 4
    train(pf, 100);
    std::vector<BlockAddr> out;
    pf.observe(hit(103), out);  // inside the monitored region
    ASSERT_EQ(out.size(), 4u);
    // Contiguous ascending blocks past the current end pointer.
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_EQ(out[i], out[i - 1] + 1);
}

TEST(StreamPrefetcher, DegreeMatchesTable1)
{
    const unsigned want_degree[6] = {0, 1, 1, 2, 4, 4};
    for (unsigned level = 1; level <= 5; ++level) {
        StreamPrefetcher pf;
        pf.setAggressiveness(level);
        train(pf, 1000);
        std::vector<BlockAddr> out;
        pf.observe(hit(1001), out);
        EXPECT_EQ(out.size(), want_degree[level]) << "level " << level;
    }
}

TEST(StreamPrefetcher, StaysWithinPrefetchDistance)
{
    // Drive only the *trained* region repeatedly without consuming the
    // stream: the end pointer must stop running ahead once the monitored
    // region spans the prefetch distance.
    for (unsigned level = 1; level <= 5; ++level) {
        StreamPrefetcher pf;
        pf.setAggressiveness(level);
        train(pf, 500);
        std::set<BlockAddr> requested;
        for (int i = 0; i < 100; ++i) {
            std::vector<BlockAddr> out;
            pf.observe(hit(502), out);  // always the same demand block
            requested.insert(out.begin(), out.end());
        }
        ASSERT_FALSE(requested.empty());
        const BlockAddr max_block = *requested.rbegin();
        // P may not run more than distance ahead of the demand stream
        // (give 1 block of slack for the training start-up window).
        EXPECT_LE(max_block, 502 + pf.distance() + pf.degree() + 1)
            << "level " << level;
    }
}

TEST(StreamPrefetcher, ThrottlingDownShrinksRegion)
{
    StreamPrefetcher pf;
    pf.setAggressiveness(5);
    train(pf, 100);
    // Run the stream forward so the region spans distance 64.
    BlockAddr demand = 103;
    for (int i = 0; i < 64; ++i) {
        std::vector<BlockAddr> out;
        pf.observe(hit(demand), out);
        demand += 1;
    }
    pf.setAggressiveness(1);  // distance 4, degree 1
    // Keep walking: every prefetch issued from now on must stay within
    // the new (distance + degree) of the demand that triggered it.
    bool issued_any = false;
    for (int i = 0; i < 200; ++i) {
        std::vector<BlockAddr> out;
        pf.observe(hit(demand), out);
        for (const BlockAddr b : out) {
            issued_any = true;
            EXPECT_LE(b, demand + pf.distance() + pf.degree());
        }
        demand += 1;
    }
    EXPECT_TRUE(issued_any);
}

TEST(StreamPrefetcher, TracksManyStreamsUpToCapacity)
{
    StreamPrefetcherParams p;
    p.numStreams = 4;
    StreamPrefetcher pf(p);
    for (unsigned s = 0; s < 4; ++s)
        train(pf, 1000 + 100 * s);
    EXPECT_EQ(pf.numMonitoringStreams(), 4u);
    // A fifth stream evicts the LRU one.
    train(pf, 10000);
    EXPECT_EQ(pf.numMonitoringStreams(), 4u);
}

TEST(StreamPrefetcher, RepeatedMissOnSameBlockDoesNotTrain)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(100), out);
    pf.observe(miss(100), out);
    pf.observe(miss(100), out);
    EXPECT_EQ(pf.numMonitoringStreams(), 0u);
}

TEST(StreamPrefetcher, ResetDropsAllStreams)
{
    StreamPrefetcher pf;
    train(pf, 100);
    pf.reset();
    EXPECT_EQ(pf.numMonitoringStreams(), 0u);
    std::vector<BlockAddr> out;
    pf.observe(hit(103), out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcherDeath, BadLevelPanics)
{
    StreamPrefetcher pf;
    EXPECT_DEATH(pf.setAggressiveness(0), "bad aggressiveness");
    EXPECT_DEATH(pf.setAggressiveness(6), "bad aggressiveness");
}

TEST(StreamPrefetcherDeath, TableOutsideOneToSixtyFourEntriesIsFatal)
{
    // Each tracking entry owns one bit of the 64-bit index masks.
    StreamPrefetcherParams p;
    p.numStreams = 0;
    EXPECT_EXIT(StreamPrefetcher{p}, ::testing::ExitedWithCode(1),
                "needs 1..64 tracking entries, got 0");
    p.numStreams = 65;
    EXPECT_EXIT(StreamPrefetcher{p}, ::testing::ExitedWithCode(1),
                "needs 1..64 tracking entries, got 65");
}

TEST(StreamPrefetcherDeath, SnapshotBlockOutOfRangeIsFatal)
{
    // A hand-built image whose first entry points near INT64_MIN: the
    // index's bucket arithmetic would overflow on it.
    SnapWriter w;
    w.beginSection("stream");
    w.putU8(3);
    w.putU64(0);
    w.putU32(1);
    w.putU8(static_cast<std::uint8_t>(
        StreamPrefetcher::State::MonitorRequest));
    w.putI64(1);
    w.putI64(0);
    w.putI64(0);
    w.putI64(INT64_MIN + 1);
    w.putI64(0);
    w.putU64(0);
    w.endSection();
    StreamPrefetcherParams p;
    p.numStreams = 1;
    StreamPrefetcher pf(p);
    SnapReader r(w.bytes());
    EXPECT_EXIT(pf.loadState(r), ::testing::ExitedWithCode(1),
                "entry 0 block -9223372036854775807 out of range");
}

// Property: for every level, a long sequential walk gets fully covered
// by prefetch requests (no gaps in the requested block range).
class StreamCoverage : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(StreamCoverage, SequentialWalkIsFullyCovered)
{
    const unsigned level = GetParam();
    StreamPrefetcher pf;
    pf.setAggressiveness(level);
    std::set<BlockAddr> requested;
    const BlockAddr base = 1 << 20;
    for (BlockAddr b = base; b < base + 200; ++b) {
        std::vector<BlockAddr> out;
        pf.observe(miss(b), out);  // every block misses until covered
        requested.insert(out.begin(), out.end());
    }
    // Everything from the training point to the end of the walk must
    // have been requested.
    for (BlockAddr b = base + 3; b < base + 200; ++b)
        EXPECT_TRUE(requested.count(b)) << "gap at " << b - base;
}

INSTANTIATE_TEST_SUITE_P(AllLevels, StreamCoverage,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

} // namespace
} // namespace fdp
