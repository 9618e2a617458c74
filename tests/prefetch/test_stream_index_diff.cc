/**
 * @file
 * Differential test of the stream prefetcher's block-range index:
 * StreamPrefetcher against a test-local reference that keeps the
 * straightforward layout — three linear scans of the whole tracking
 * table per observation (monitored regions, the vicinity of monitored
 * regions, training windows), each filtered by state. Both are driven by
 * the same seeded stream of demand hits and misses along ascending and
 * descending streams, stray accesses, level changes and budget limits,
 * with a reset() and a save/load into a fresh prefetcher mid-run. After
 * every observation they must have produced the same candidates and
 * serialize to the same bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "prefetch/stream_prefetcher.hh"
#include "sim/rng.hh"

namespace fdp
{
namespace
{

/** The reference stream prefetcher: every lookup scans the table. */
class RefStreamPrefetcher : public Prefetcher
{
  public:
    /** How often each branch of doObserve ran, to prove coverage. */
    struct Paths
    {
        std::uint64_t regionHits = 0;
        std::uint64_t reanchors = 0;
        std::uint64_t vicinity = 0;
        std::uint64_t confirms = 0;
        std::uint64_t allocations = 0;
        std::uint64_t monitorEvictions = 0;
    };

    explicit RefStreamPrefetcher(const StreamPrefetcherParams &params)
        : params_(params), level_(params.initialLevel),
          entries_(params.numStreams)
    {
    }

    void setAggressiveness(unsigned level) override { level_ = level; }
    unsigned aggressiveness() const override { return level_; }
    const char *name() const override { return "stream"; }

    void
    reset() override
    {
        for (auto &e : entries_)
            e = Entry{};
        tick_ = 0;
    }

    void audit() const override {}

    void
    saveState(SnapWriter &w) const override
    {
        w.beginSection(snapName());
        w.putU8(static_cast<std::uint8_t>(level_));
        w.putU64(tick_);
        w.putU32(static_cast<std::uint32_t>(entries_.size()));
        for (const Entry &e : entries_) {
            w.putU8(static_cast<std::uint8_t>(e.state));
            w.putI64(e.dir);
            w.putI64(e.firstMiss);
            w.putI64(e.lastMiss);
            w.putI64(e.startPtr);
            w.putI64(e.endPtr);
            w.putU64(e.lastUse);
        }
        w.endSection();
    }

    void
    loadState(SnapReader &) override
    {
        ADD_FAILURE() << "the reference is never restored";
    }

    unsigned
    numMonitoringStreams() const
    {
        return static_cast<unsigned>(std::count_if(
            entries_.begin(), entries_.end(), [](const Entry &e) {
                return e.state == State::MonitorRequest;
            }));
    }

    unsigned
    numActiveStreams() const
    {
        unsigned n = 0;
        for (const Entry &e : entries_)
            if (e.state == State::MonitorRequest &&
                tick_ - e.lastUse <= params_.activityWindow)
                ++n;
        return n;
    }

    const Paths &paths() const { return paths_; }

  protected:
    void
    doObserve(const PrefetchObservation &obs, std::vector<BlockAddr> &out,
              std::size_t budget) override
    {
        const auto block = static_cast<std::int64_t>(obs.block);
        ++tick_;

        const auto w = static_cast<std::int64_t>(params_.trainWindow);
        for (Entry &e : entries_) {
            if (e.state != State::MonitorRequest)
                continue;
            if (block >= std::min(e.startPtr, e.endPtr) &&
                block <= std::max(e.startPtr, e.endPtr)) {
                e.lastUse = tick_;
                ++paths_.regionHits;
                issueFromEntry(e, out, budget);
                return;
            }
            const std::int64_t front = e.dir > 0
                                           ? std::max(e.startPtr, e.endPtr)
                                           : std::min(e.startPtr, e.endPtr);
            const std::int64_t overshoot = (block - front) * e.dir;
            if (obs.miss && overshoot > 0 && overshoot <= w) {
                e.lastUse = tick_;
                ++paths_.reanchors;
                startRamp(e, block, block, out, budget);
                return;
            }
        }

        if (!obs.miss)
            return;

        for (Entry &e : entries_) {
            if (e.state != State::MonitorRequest)
                continue;
            const std::int64_t lo = std::min(e.startPtr, e.endPtr) - w;
            const std::int64_t hi = std::max(e.startPtr, e.endPtr) + w;
            if (block >= lo && block <= hi) {
                e.lastUse = tick_;
                ++paths_.vicinity;
                return;
            }
        }

        for (Entry &e : entries_) {
            if (e.state != State::Allocated && e.state != State::Training)
                continue;
            if (std::llabs(block - e.firstMiss) > w)
                continue;
            e.lastUse = tick_;
            if (block == e.firstMiss || block == e.lastMiss)
                return;
            if (e.state == State::Allocated) {
                e.dir = block > e.firstMiss ? 1 : -1;
                e.lastMiss = block;
                e.state = State::Training;
                return;
            }
            const int dir2 = block > e.lastMiss ? 1 : -1;
            if (dir2 != e.dir) {
                e.dir = block > e.firstMiss ? 1 : -1;
                e.lastMiss = block;
                return;
            }
            e.state = State::MonitorRequest;
            ++paths_.confirms;
            startRamp(e, e.firstMiss, block, out, budget);
            return;
        }

        unsigned victim = 0;
        for (unsigned i = 0; i < entries_.size(); ++i) {
            if (entries_[i].state == State::Invalid) {
                victim = i;
                break;
            }
            if (entries_[i].lastUse < entries_[victim].lastUse)
                victim = i;
        }
        Entry &e = entries_[victim];
        if (e.state == State::MonitorRequest)
            ++paths_.monitorEvictions;
        ++paths_.allocations;
        e = Entry{};
        e.state = State::Allocated;
        e.firstMiss = block;
        e.lastMiss = block;
        e.lastUse = tick_;
    }

  private:
    using State = StreamPrefetcher::State;

    struct Entry
    {
        State state = State::Invalid;
        int dir = 1;
        std::int64_t firstMiss = 0;
        std::int64_t lastMiss = 0;
        std::int64_t startPtr = 0;
        std::int64_t endPtr = 0;
        std::uint64_t lastUse = 0;
    };

    unsigned
    effectiveDistance() const
    {
        const unsigned active = std::max(1u, numActiveStreams());
        const unsigned degree = kStreamAggrTable[level_].degree;
        const unsigned share =
            std::max(degree, params_.queueShareBudget / active);
        return std::min(kStreamAggrTable[level_].distance, share);
    }

    void
    issueFromEntry(Entry &e, std::vector<BlockAddr> &out, std::size_t budget)
    {
        const std::int64_t n = std::min<std::int64_t>(
            kStreamAggrTable[level_].degree,
            static_cast<std::int64_t>(
                std::min<std::size_t>(budget, kMaxAggrLevel * 64)));
        const std::int64_t dist = effectiveDistance();
        if (n == 0)
            return;
        if (std::llabs(e.endPtr - e.startPtr) > dist)
            e.endPtr = e.startPtr + e.dir * dist;
        for (std::int64_t i = 1; i <= n; ++i) {
            const std::int64_t block = e.endPtr + e.dir * i;
            if (block < 0)
                break;
            out.push_back(static_cast<BlockAddr>(block));
        }
        const std::int64_t size = std::llabs(e.endPtr - e.startPtr);
        e.endPtr += e.dir * n;
        if (size >= dist)
            e.startPtr += e.dir * n;
    }

    void
    startRamp(Entry &e, std::int64_t region_start, std::int64_t ramp_from,
              std::vector<BlockAddr> &out, std::size_t budget)
    {
        const std::int64_t startup = std::min<std::int64_t>(
            effectiveDistance(),
            static_cast<std::int64_t>(std::min<std::size_t>(budget, 64)));
        e.startPtr = region_start;
        for (std::int64_t i = 1; i <= startup; ++i) {
            const std::int64_t pf = ramp_from + e.dir * i;
            if (pf < 0)
                break;
            out.push_back(static_cast<BlockAddr>(pf));
        }
        e.endPtr = ramp_from + e.dir * startup;
    }

    StreamPrefetcherParams params_;
    unsigned level_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
    Paths paths_;
};

/** Where the driven streams live. */
enum class Layout
{
    /** Bases spread over 2^24 blocks. */
    Spread,
    /** Bases within 256 blocks of block 0: capture ranges reach below 0
     *  into negative buckets, descending streams run off the bottom. */
    NearZero,
    /** Bases 2^15 blocks apart, so every stream lands in one slot. */
    Colliding,
    /** A training window wider than the whole slot table. */
    Wide,
};

struct DiffCase
{
    Layout layout;
    unsigned numStreams;
};

std::string
describe(const DiffCase &c)
{
    static const char *const kLayouts[] = {"Spread", "NearZero",
                                           "Colliding", "Wide"};
    return std::string(kLayouts[static_cast<unsigned>(c.layout)]) +
           "_Entries" + std::to_string(c.numStreams);
}

/** gtest prints parameters with this instead of their raw bytes. */
void
PrintTo(const DiffCase &c, std::ostream *os)
{
    *os << describe(c);
}

/** One demand stream the test walks. */
struct Walker
{
    std::int64_t pos = 0;
    int dir = 1;
};

class StreamIndexDiff : public ::testing::TestWithParam<DiffCase>
{
  protected:
    std::int64_t
    base(Rng &rng, unsigned k) const
    {
        switch (GetParam().layout) {
          case Layout::NearZero:
            return static_cast<std::int64_t>(rng.range(256));
          case Layout::Colliding:
            return static_cast<std::int64_t>(((k % 8) + 1) << 15) +
                   static_cast<std::int64_t>(rng.range(32));
          default:
            return static_cast<std::int64_t>(rng.range(1 << 24));
        }
    }

    void
    respawn(Rng &rng, Walker &s, unsigned k) const
    {
        s.pos = base(rng, k);
        s.dir = rng.chance(0.5) ? 1 : -1;
    }
};

std::vector<std::uint8_t>
bytesOf(const Prefetcher &pf)
{
    SnapWriter w;
    pf.saveState(w);
    return w.bytes();
}

TEST_P(StreamIndexDiff, SameCandidatesAndStateAsReference)
{
    StreamPrefetcherParams params;
    params.numStreams = GetParam().numStreams;
    if (GetParam().layout == Layout::Wide)
        params.trainWindow = 40000;
    // A single-entry table only trains while nothing else misses, so
    // it gets one walker; larger tables get more walkers than entries.
    const unsigned walkers = params.numStreams == 1 ? 1 : 12;
    constexpr unsigned kSteps = 6000;

    for (const std::uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        RefStreamPrefetcher ref(params);
        auto got = std::make_unique<StreamPrefetcher>(params);
        std::vector<Walker> streams(walkers);
        for (unsigned k = 0; k < walkers; ++k)
            respawn(rng, streams[k], k);

        std::vector<BlockAddr> refOut, gotOut;
        unsigned triggers = 0;
        for (unsigned step = 0; step < kSteps; ++step) {
            if (step == kSteps / 3) {
                ref.reset();
                got->reset();
            }
            if (step == 2 * kSteps / 3) {
                // The restored prefetcher rebuilds its index from the
                // table alone and must carry on exactly.
                const auto image = bytesOf(*got);
                auto restored = std::make_unique<StreamPrefetcher>(params);
                SnapReader r(image);
                restored->loadState(r);
                got = std::move(restored);
            }

            const unsigned k = static_cast<unsigned>(rng.range(walkers));
            Walker &s = streams[k];
            const std::uint64_t roll = rng.range(1000);
            std::int64_t block = s.pos;
            bool miss = rng.chance(0.5);
            if (roll < 550) {
                s.pos += s.dir * static_cast<std::int64_t>(1 + rng.range(2));
            } else if (roll < 700) {
                block = s.pos - s.dir * static_cast<std::int64_t>(
                                            rng.range(24));
            } else if (roll < 760) {
                s.pos += s.dir * static_cast<std::int64_t>(
                                     17 + rng.range(40));
                block = s.pos;
                miss = true;
            } else if (roll < 940) {
                block = base(rng, static_cast<unsigned>(rng.range(16))) +
                        static_cast<std::int64_t>(rng.range(4096));
                miss = rng.chance(0.2);
            } else if (roll < 960) {
                const unsigned level =
                    1 + static_cast<unsigned>(rng.range(5));
                ref.setAggressiveness(level);
                got->setAggressiveness(level);
                continue;
            } else {
                respawn(rng, s, k);
                block = s.pos;
            }
            if (block < 0 || s.pos < 0) {
                respawn(rng, s, k);
                continue;
            }

            const std::size_t budget = rng.chance(0.2)
                                           ? rng.range(6)
                                           : Prefetcher::kUnlimited;
            const auto b = static_cast<BlockAddr>(block);
            const PrefetchObservation obs{blockBase(b), b, 0x400, miss};
            refOut.clear();
            gotOut.clear();
            ref.observe(obs, refOut, budget);
            got->observe(obs, gotOut, budget);
            ASSERT_EQ(gotOut, refOut) << "step " << step;
            ASSERT_EQ(bytesOf(*got), bytesOf(ref)) << "step " << step;
            ASSERT_EQ(got->numMonitoringStreams(),
                      ref.numMonitoringStreams());
            ASSERT_EQ(got->numActiveStreams(), ref.numActiveStreams());
            if (!refOut.empty())
                ++triggers;
            if (step % 97 == 0)
                got->audit();
        }
        got->audit();

        // The stream must reach every branch the index narrows.
        const auto &p = ref.paths();
        EXPECT_GT(triggers, 0u);
        EXPECT_GT(p.regionHits, 0u);
        EXPECT_GT(p.confirms, 0u);
        EXPECT_GT(p.allocations, 0u);
        if (params.numStreams > 1) {
            EXPECT_GT(p.reanchors, 0u);
            EXPECT_GT(p.vicinity, 0u);
        }
        if (params.numStreams < 64) {
            EXPECT_GT(p.monitorEvictions, 0u);
        }
    }
}

std::vector<DiffCase>
allCases()
{
    std::vector<DiffCase> cases;
    for (const Layout layout : {Layout::Spread, Layout::NearZero,
                                Layout::Colliding, Layout::Wide})
        for (const unsigned entries : {1u, 4u, 64u})
            cases.push_back({layout, entries});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, StreamIndexDiff, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return describe(info.param);
    });

} // namespace
} // namespace fdp
