/**
 * @file
 * Differential test of the FR-FCFS scheduler: DramController against a
 * test-local reference that keeps the straightforward layout — one
 * deque of full requests per channel, rescanned on every grant with
 * bank and row decoded per entry, the winner erased from the middle.
 * Both are driven by the same seeded stream of demand, prefetch and
 * writeback enqueues (every tier, four cores), promotions and service
 * steps, over every combination of FDP priority, weighted service, row
 * policy and QoS cap, with a small queue so the queue-full and Low-tier
 * drop paths run. They must grant the same requests in the same order
 * with the same fill cycles, and end with identical statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "dram/dram_controller.hh"
#include "sim/rng.hh"

namespace fdp
{
namespace
{

/** The reference FR-FCFS controller: a linear scan over a deque. */
class RefController
{
  public:
    RefController(const DramParams &params, const DramCtrlParams &ctrl,
                  EventQueue &events, StatGroup &stats, unsigned numCores)
        : params_(params), ctrl_(ctrl), events_(events),
          transferCycles_(params.transferCycles()),
          coreBusAccesses_(numCores, 0), coreServed_(numCores, 0),
          corePrefQueued_(numCores, 0),
          busAccesses_(stats, "bus_accesses", "blocks transferred on the bus"),
          demandGrants_(stats, "demand_grants", "demand bus grants"),
          prefetchGrants_(stats, "prefetch_grants", "prefetch bus grants"),
          writebackGrants_(stats, "writeback_grants",
                           "writeback bus grants"),
          rowHits_(stats, "row_hits", "row-buffer hits"),
          rowConflicts_(stats, "row_conflicts", "row-buffer conflicts"),
          rowEmpties_(stats, "row_empties",
                      "accesses to a precharged bank (no open row)"),
          busBusyCycles_(stats, "bus_busy_cycles",
                         "cycles any data bus was busy (all channels)"),
          promotions_(stats, "promotions", "prefetches promoted to demand"),
          lowTierDrops_(stats, "low_tier_drops",
                        "low-accuracy prefetches dropped under queue "
                        "pressure"),
          qosRejects_(stats, "qos_rejects",
                      "prefetches rejected by the per-core QoS cap")
    {
        channels_.resize(ctrl_.channels);
        for (Channel &c : channels_) {
            c.bankReady.assign(params_.banks, 0);
            c.openRow.assign(params_.banks, kNoRow);
        }
    }

    unsigned
    channelOf(BlockAddr block) const
    {
        return static_cast<unsigned>(
            (block ^ (block / params_.rowBlocks)) % ctrl_.channels);
    }

    bool
    enqueue(BlockAddr block, BusPriority prio, Cycle now, DoneFn done,
            CoreId core, PrefetchTier tier)
    {
        const unsigned ch = channelOf(block);
        Channel &c = channels_[ch];
        switch (prio) {
          case BusPriority::Demand:
            if (c.readQ.size() >= params_.queueCapacity)
                ADD_FAILURE() << "reference demand queue overflow";
            break;
          case BusPriority::Prefetch:
            if (c.readQ.size() >= params_.queueCapacity)
                return false;
            if (ctrl_.qosInFlightCap > 0 &&
                corePrefQueued_[core.index()] >= ctrl_.qosInFlightCap) {
                ++qosRejects_;
                return false;
            }
            if (ctrl_.fdpPriority && tier == PrefetchTier::Low &&
                ctrl_.lowTierDropAt > 0 &&
                c.readQ.size() >= ctrl_.lowTierDropAt) {
                ++lowTierDrops_;
                return false;
            }
            ++corePrefQueued_[core.index()];
            break;
          case BusPriority::Writeback:
            break;
        }
        std::deque<Request> &q =
            prio == BusPriority::Writeback ? c.wbQ : c.readQ;
        q.push_back({block, prio, tier, now, core, std::move(done)});
        schedulePump(ch, now);
        return true;
    }

    void
    promoteToDemand(BlockAddr block)
    {
        Channel &c = channels_[channelOf(block)];
        auto it = std::find_if(c.readQ.begin(), c.readQ.end(),
                               [block](const Request &r) {
                                   return r.block == block &&
                                          r.prio == BusPriority::Prefetch;
                               });
        if (it == c.readQ.end())
            return;
        it->prio = BusPriority::Demand;
        --corePrefQueued_[it->core.index()];
        ++promotions_;
    }

    std::size_t
    queued() const
    {
        std::size_t n = 0;
        for (const Channel &c : channels_)
            n += c.readQ.size() + c.wbQ.size();
        return n;
    }

    std::uint64_t
    busAccessesByCore(CoreId core) const
    {
        return coreBusAccesses_[core.index()];
    }

  private:
    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};
    static constexpr std::size_t kNoPick = ~std::size_t{0};

    struct Request
    {
        BlockAddr block;
        BusPriority prio;
        PrefetchTier tier;
        Cycle enqueueCycle;
        CoreId core;
        DoneFn done;
    };

    struct Channel
    {
        std::deque<Request> readQ;
        std::deque<Request> wbQ;
        std::vector<Cycle> bankReady;
        std::vector<std::uint64_t> openRow;
        Cycle busFree = 0;
        bool pumpScheduled = false;
    };

    void
    decode(BlockAddr block, unsigned *bank, std::uint64_t *row) const
    {
        const BlockAddr local = block / ctrl_.channels;
        const std::uint64_t global_row = local / params_.rowBlocks;
        *bank = static_cast<unsigned>(global_row % params_.banks);
        *row = global_row / params_.banks;
    }

    unsigned
    pickClass(const Channel &c, const Request &r) const
    {
        unsigned bank;
        std::uint64_t row;
        decode(r.block, &bank, &row);
        const bool row_hit = c.openRow[bank] == row;
        if (!ctrl_.fdpPriority || r.prio == BusPriority::Demand)
            return row_hit ? 0 : 1;
        switch (r.tier) {
          case PrefetchTier::High:
            return row_hit ? 0 : 1;
          case PrefetchTier::Medium:
            return row_hit ? 0 : 2;
          case PrefetchTier::Low:
            break;
        }
        return row_hit ? 3 : 4;
    }

    std::size_t
    pickRead(const Channel &c) const
    {
        std::size_t best = kNoPick;
        unsigned best_class = 0;
        std::uint64_t best_served = 0;
        for (std::size_t i = 0; i < c.readQ.size(); ++i) {
            const Request &r = c.readQ[i];
            const unsigned cls = pickClass(c, r);
            const std::uint64_t served =
                ctrl_.qosWeighted ? coreServed_[r.core.index()] : 0;
            if (best == kNoPick || cls < best_class ||
                (cls == best_class && served < best_served)) {
                best = i;
                best_class = cls;
                best_served = served;
            }
        }
        return best;
    }

    void
    schedulePump(unsigned ch, Cycle now)
    {
        Channel &c = channels_[ch];
        if (c.pumpScheduled)
            return;
        c.pumpScheduled = true;
        events_.schedule(std::max(now, c.busFree),
                         [this, ch] { pump(ch); });
    }

    void
    pump(unsigned ch)
    {
        Channel &c = channels_[ch];
        c.pumpScheduled = false;

        const std::size_t read = pickRead(c);
        Request req{};
        if (read != kNoPick &&
            (c.readQ[read].prio == BusPriority::Demand ||
             pickClass(c, c.readQ[read]) == 0 ||
             c.wbQ.size() <= params_.writebackHighWater)) {
            req = std::move(c.readQ[read]);
            c.readQ.erase(c.readQ.begin() +
                          static_cast<std::ptrdiff_t>(read));
        } else if (!c.wbQ.empty() &&
                   (read == kNoPick ||
                    c.wbQ.size() > params_.writebackHighWater)) {
            req = std::move(c.wbQ.front());
            c.wbQ.pop_front();
        } else if (read != kNoPick) {
            req = std::move(c.readQ[read]);
            c.readQ.erase(c.readQ.begin() +
                          static_cast<std::ptrdiff_t>(read));
        } else {
            return;
        }

        const Cycle now = events_.horizon();
        unsigned bank;
        std::uint64_t row;
        decode(req.block, &bank, &row);
        const bool row_hit = c.openRow[bank] == row;
        const bool row_empty = !row_hit && c.openRow[bank] == kNoRow;
        const Cycle access = row_hit    ? params_.accessRowHit
                             : row_empty ? params_.accessRowEmpty()
                                         : params_.accessRowConflict;
        const Cycle access_start =
            std::max(req.enqueueCycle, c.bankReady[bank]);
        const Cycle data_start =
            std::max({access_start + access, c.busFree, now});
        const Cycle data_end = data_start + transferCycles_;

        c.busFree = data_end;
        c.bankReady[bank] =
            row_hit ? access_start + params_.casToCASCycles : data_end;
        switch (ctrl_.rowPolicy) {
          case RowPolicy::Open:
            c.openRow[bank] = row;
            break;
          case RowPolicy::Closed:
            c.openRow[bank] = kNoRow;
            break;
          case RowPolicy::Adaptive:
            c.openRow[bank] = row_hit || row_empty ? row : kNoRow;
            break;
        }

        ++busAccesses_;
        ++coreBusAccesses_[req.core.index()];
        busBusyCycles_ += transferCycles_;
        if (row_hit)
            ++rowHits_;
        else if (row_empty)
            ++rowEmpties_;
        else
            ++rowConflicts_;
        switch (req.prio) {
          case BusPriority::Demand:
            ++demandGrants_;
            ++coreServed_[req.core.index()];
            break;
          case BusPriority::Prefetch:
            ++prefetchGrants_;
            ++coreServed_[req.core.index()];
            --corePrefQueued_[req.core.index()];
            break;
          case BusPriority::Writeback:
            ++writebackGrants_;
            break;
        }

        if (req.done) {
            const Cycle fill = data_end + params_.returnCycles;
            events_.schedule(fill, [fn = std::move(req.done),
                                    fill]() mutable { fn(fill); });
        }

        if (!c.readQ.empty() || !c.wbQ.empty())
            schedulePump(ch, c.busFree);
    }

    DramParams params_;
    DramCtrlParams ctrl_;
    EventQueue &events_;
    Cycle transferCycles_;
    std::deque<Channel> channels_;
    std::vector<std::uint64_t> coreBusAccesses_;
    std::vector<std::uint64_t> coreServed_;
    std::vector<unsigned> corePrefQueued_;

    ScalarStat busAccesses_;
    ScalarStat demandGrants_;
    ScalarStat prefetchGrants_;
    ScalarStat writebackGrants_;
    ScalarStat rowHits_;
    ScalarStat rowConflicts_;
    ScalarStat rowEmpties_;
    ScalarStat busBusyCycles_;
    ScalarStat promotions_;
    ScalarStat lowTierDrops_;
    ScalarStat qosRejects_;
};

constexpr unsigned kCores = 4;

/** One read as its fill callback saw it. */
struct Grant
{
    BlockAddr block;
    unsigned core;
    BusPriority prio;  ///< at grant: promotions turn prefetches to demand
    Cycle fill;

    bool
    operator==(const Grant &o) const
    {
        return block == o.block && core == o.core && prio == o.prio &&
               fill == o.fill;
    }
};

std::ostream &
operator<<(std::ostream &os, const Grant &g)
{
    return os << "{block " << g.block << ", core " << g.core << ", prio "
              << static_cast<unsigned>(g.prio) << ", fill " << g.fill
              << "}";
}

/** What one controller did with the driven request stream. */
struct Outcome
{
    std::vector<Grant> grants;
    std::vector<bool> accepted;           ///< per prefetch enqueue
    std::vector<std::uint64_t> promoted;  ///< promotions after each call
    std::string stats;
    std::vector<std::uint64_t> perCore;
    std::uint64_t lowTierDrops = 0;
    std::uint64_t qosRejects = 0;
};

std::uint64_t
statValue(const StatGroup &stats, const std::string &name)
{
    for (const ScalarStat *s : stats.scalars())
        if (s->name() == name)
            return s->value();
    ADD_FAILURE() << "no statistic " << name;
    return 0;
}

DramParams
smallGeometry()
{
    // Few banks and short rows so row hits, empties and conflicts all
    // occur; a short queue so prefetches find it full.
    DramParams p;
    p.banks = 4;
    p.rowBlocks = 8;
    p.queueCapacity = 12;
    p.writebackHighWater = 6;
    return p;
}

/** The stream's record of the reads in flight (enqueued, not filled). */
struct Ledger
{
    struct Read
    {
        BlockAddr block;
        unsigned core;
        unsigned channel;
        BusPriority prio;
    };
    std::vector<Read> reads;
    std::vector<unsigned> perChannel;
    Outcome out;

    std::vector<Read>::iterator
    find(BlockAddr block)
    {
        return std::find_if(reads.begin(), reads.end(),
                            [block](const Read &r) {
                                return r.block == block;
                            });
    }

    void
    fill(BlockAddr block, Cycle cycle)
    {
        const auto it = find(block);
        ASSERT_NE(it, reads.end());
        out.grants.push_back({block, it->core, it->prio, cycle});
        --perChannel[it->channel];
        reads.erase(it);
    }
};

/**
 * Drive @p Dram with the request stream seeded by @p seed. Each block
 * has at most one read in flight (as behind an MSHR file), so a
 * promotion names one request; demands are issued only while their
 * channel has room, counting reads from enqueue to fill.
 */
template <typename Dram>
Outcome
drive(const DramCtrlParams &ctrl, std::uint64_t seed)
{
    const DramParams params = smallGeometry();
    EventQueue events;
    StatGroup stats{"dram"};
    Dram dram(params, ctrl, events, stats, kCores);
    Ledger ledger;
    ledger.perChannel.assign(ctrl.channels, 0);

    Rng rng(seed);
    static constexpr PrefetchTier kTiers[3] = {
        PrefetchTier::High, PrefetchTier::Medium, PrefetchTier::Low};
    for (int op = 0; op < 6000; ++op) {
        const std::uint64_t roll = rng.range(100);
        // Blocks from a small window, so rows are shared and reused.
        const BlockAddr block = rng.range(512);
        const CoreId core(static_cast<unsigned>(rng.range(kCores)));
        const PrefetchTier tier = kTiers[rng.range(3)];
        const unsigned ch = dram.channelOf(block);
        if (roll < 55) {
            const bool demand = roll < 20;
            if (ledger.find(block) != ledger.reads.end() ||
                (demand && ledger.perChannel[ch] >= params.queueCapacity))
                continue;
            const BusPriority prio =
                demand ? BusPriority::Demand : BusPriority::Prefetch;
            const bool ok = dram.enqueue(
                block, prio, events.horizon(),
                [&ledger, block](Cycle fill) { ledger.fill(block, fill); },
                core, tier);
            if (!demand)
                ledger.out.accepted.push_back(ok);
            if (ok) {
                ledger.reads.push_back({block, core.index(), ch, prio});
                ++ledger.perChannel[ch];
            } else {
                EXPECT_FALSE(demand);
            }
        } else if (roll < 70) {
            dram.enqueue(block, BusPriority::Writeback, events.horizon(),
                         nullptr, core, PrefetchTier::High);
        } else if (roll < 80) {
            const std::uint64_t before = statValue(stats, "promotions");
            dram.promoteToDemand(block);
            const std::uint64_t after = statValue(stats, "promotions");
            ledger.out.promoted.push_back(after);
            if (after != before) {
                const auto it = ledger.find(block);
                EXPECT_NE(it, ledger.reads.end());
                if (it != ledger.reads.end())
                    it->prio = BusPriority::Demand;
            }
        } else {
            events.serviceUntil(events.horizon() + rng.range(400));
        }
    }
    while (dram.queued() > 0 || !events.empty())
        events.serviceUntil(events.horizon() + 10000);
    EXPECT_TRUE(ledger.reads.empty());

    std::ostringstream dump;
    stats.dump(dump);
    ledger.out.stats = dump.str();
    ledger.out.lowTierDrops = statValue(stats, "low_tier_drops");
    ledger.out.qosRejects = statValue(stats, "qos_rejects");
    for (unsigned i = 0; i < kCores; ++i)
        ledger.out.perCore.push_back(dram.busAccessesByCore(CoreId(i)));
    return ledger.out;
}

struct DiffCase
{
    bool fdpPriority;
    bool qosWeighted;
    RowPolicy rowPolicy;
    unsigned qosInFlightCap;
};

std::string
describe(const DiffCase &c)
{
    static const char *const kPolicies[] = {"Open", "Closed", "Adaptive"};
    return std::string(c.fdpPriority ? "FdpPriority" : "Blind") +
           (c.qosWeighted ? "_Weighted_" : "_Fcfs_") +
           kPolicies[static_cast<unsigned>(c.rowPolicy)] + "_Cap" +
           std::to_string(c.qosInFlightCap);
}

/** gtest prints parameters with this instead of their raw bytes. */
void
PrintTo(const DiffCase &c, std::ostream *os)
{
    *os << describe(c);
}

class ScheduleDiff : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(ScheduleDiff, SameGrantsAndStatsAsReference)
{
    DramCtrlParams ctrl;
    ctrl.kind = DramKind::Controller;
    ctrl.channels = 2;
    ctrl.fdpPriority = GetParam().fdpPriority;
    ctrl.qosWeighted = GetParam().qosWeighted;
    ctrl.rowPolicy = GetParam().rowPolicy;
    ctrl.qosInFlightCap = GetParam().qosInFlightCap;
    ctrl.lowTierDropAt = 6;

    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        const Outcome ref = drive<RefController>(ctrl, seed);
        const Outcome got = drive<DramController>(ctrl, seed);
        ASSERT_EQ(got.grants.size(), ref.grants.size());
        for (std::size_t i = 0; i < ref.grants.size(); ++i)
            ASSERT_EQ(got.grants[i], ref.grants[i]) << "grant " << i;
        EXPECT_EQ(got.accepted, ref.accepted);
        EXPECT_EQ(got.promoted, ref.promoted);
        EXPECT_EQ(got.stats, ref.stats);
        EXPECT_EQ(got.perCore, ref.perCore);
        // The stream must reach every path it is meant to cover: full
        // queues, tier drops, QoS rejects, and promotions.
        const auto refused = static_cast<std::uint64_t>(std::count(
            ref.accepted.begin(), ref.accepted.end(), false));
        EXPECT_GT(refused, ref.lowTierDrops + ref.qosRejects);
        EXPECT_EQ(ref.lowTierDrops > 0, ctrl.fdpPriority);
        EXPECT_EQ(ref.qosRejects > 0, ctrl.qosInFlightCap > 0);
        EXPECT_GT(ref.promoted.back(), 0u);
    }
}

std::vector<DiffCase>
allCases()
{
    std::vector<DiffCase> cases;
    for (const bool fdp : {false, true})
        for (const bool weighted : {false, true})
            for (const RowPolicy policy :
                 {RowPolicy::Open, RowPolicy::Closed, RowPolicy::Adaptive})
                for (const unsigned cap : {0u, 4u})
                    cases.push_back({fdp, weighted, policy, cap});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKnobs, ScheduleDiff, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return describe(info.param);
    });

} // namespace
} // namespace fdp
