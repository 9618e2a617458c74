/**
 * @file
 * FR-FCFS multi-channel memory controller (DESIGN.md §18).
 *
 * Replaces the flat three-deque bus model with a real controller:
 *  - XOR channel interleaving: consecutive blocks stripe across
 *    channels, and the row index is folded in so same-bank streams on
 *    one channel remap on the next, each channel owning its banks,
 *    request queues, and data bus;
 *  - FR-FCFS scheduling per channel: row-buffer hits first, oldest
 *    first within a class. Writebacks drain behind reads; past the
 *    writeback high-water mark they pre-empt prefetches, but never a
 *    demand or a head-class row hit, so a saturated read stream can
 *    grow the write queue without bound (it is not a starvation
 *    bound on writebacks);
 *  - row-policy knobs: open (leave rows open), closed (auto-precharge
 *    after every access), adaptive (precharge after a conflict, stay
 *    open after hits);
 *  - the FDP tie-in: prefetches carry the issuing core's Table 2
 *    accuracy tier. High-accuracy prefetches are scheduled exactly
 *    like demands, Medium ones yield only their row-buffer misses to
 *    demand misses, and Low ones run strictly last and are dropped at
 *    enqueue once their channel queue is under pressure. With
 *    fdpPriority off the controller is accuracy-blind: demands and
 *    prefetches form a single FR-FCFS class (the baseline to beat);
 *  - per-core bandwidth QoS on top of CoreId attribution: an in-flight
 *    cap on queued prefetches per core, and optional weighted service
 *    (least-served core first among equal-priority candidates).
 */

#ifndef FDP_DRAM_DRAM_CONTROLLER_HH
#define FDP_DRAM_DRAM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <type_traits>
#include <vector>

#include "dram/dram_backend.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace fdp
{

/** Event-driven FR-FCFS multi-channel DRAM controller. */
class DramController : public DramBackend
{
  public:
    /**
     * @param numCores  cores that may issue requests; attribution, QoS
     *                  caps, and weighted service track this many
     */
    DramController(const DramParams &params, const DramCtrlParams &ctrl,
                   EventQueue &events, StatGroup &stats,
                   unsigned numCores = 1);

    bool enqueue(BlockAddr block, BusPriority prio, Cycle now, DoneFn done,
                 CoreId core = kCore0,
                 PrefetchTier tier = PrefetchTier::High) override;
    void promoteToDemand(BlockAddr block) override;
    std::size_t queued() const override;

    std::uint64_t busAccesses() const override
    {
        return busAccesses_.value();
    }
    /** Sum of the per-channel measured data-bus occupancies (the
     *  registered statistic mirrors it; audited equal). */
    std::uint64_t busBusyCycles() const override;
    std::uint64_t rowHits() const override { return rowHits_.value(); }
    std::uint64_t rowConflicts() const override
    {
        return rowConflicts_.value();
    }
    std::uint64_t busAccessesByCore(CoreId core) const override;
    void resetAttribution() override;
    unsigned dataBuses() const override { return ctrl_.channels; }
    const DramParams &params() const override { return params_; }

    const DramCtrlParams &ctrlParams() const { return ctrl_; }

    /** Channel @p block is routed to (XOR interleaving); for tests. */
    unsigned channelOf(BlockAddr block) const;

    /** Measured data-bus occupancy of one channel, in cycles. */
    std::uint64_t busBusyCyclesOnChannel(unsigned ch) const;

    /// @name Controller-specific lifetime statistics
    /// @{
    std::uint64_t rowEmpties() const { return rowEmpties_.value(); }
    std::uint64_t lowTierDrops() const { return lowTierDrops_.value(); }
    std::uint64_t qosRejects() const { return qosRejects_.value(); }
    /// @}

    /**
     * Invariants: channel/bank state arrays match the configured
     * geometry; every read queue stays within capacity; each queued
     * request sits on the channel its block routes to, in the queue
     * matching its priority, with a completion callback iff it is not
     * a writeback, a valid core id, and arrival sequence numbers
     * strictly increasing in queue order; each read key caches its
     * block's decoded bank and row, its payload's core, and the kind
     * its payload's priority and tier give, and owns a distinct slot,
     * with the free slots making up the rest of the pool; a pump event
     * is scheduled on every channel with queued work; the per-core bus
     * accesses sum to the shared total; the per-channel measured bus
     * occupancies sum to the registered statistic; and the per-core
     * queued-prefetch counters match a recount of the queues.
     */
    void audit() const override;
    const char *auditName() const override { return "dram_controller"; }

    /**
     * Snapshots are taken only at quiesce points: queued requests carry
     * completion closures, so saveState() asserts every queue is empty
     * and serializes the per-channel bank timing, open-row registers,
     * bus horizons and measured occupancies, plus the per-core
     * attribution and service counters. Derived state (arrival
     * sequencing, queued-prefetch counts) is rebuilt on restore.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "dramctl"; }

  private:
    friend struct AuditCorrupter;

    /** An open-row register holding no row (precharged bank). */
    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};
    static constexpr std::size_t kNoPick = ~std::size_t{0};
    /** Ranks below every FR-FCFS class (see kReadClass). */
    static constexpr unsigned kNoClass = 5;
    /** Read slots per channel a ReadKey::slot can name. */
    static constexpr std::size_t kMaxReadSlots = std::size_t{1} << 16;

    /**
     * How a queued read competes for its channel, fixed at enqueue and
     * raised by promoteToDemand(). DemandLike is every demand, every
     * High-tier prefetch, and every prefetch when fdpPriority is off.
     */
    enum class ReadKind : std::uint8_t { DemandLike, Medium, Low };

    /**
     * FR-FCFS class of a queued read, indexed by [kind][row hit];
     * lower wins. 0 is the head class (row hits from demands, High, and
     * Medium prefetches), 1 is demand and High misses, then Medium
     * misses, then the Low tier.
     */
    static constexpr std::uint8_t kReadClass[3][2] = {
        {1, 0}, {2, 0}, {4, 3}};

    /** A writeback, or the payload of a queued read. */
    struct Request
    {
        BlockAddr block = 0;
        BusPriority prio = BusPriority::Demand;
        PrefetchTier tier = PrefetchTier::High;
        Cycle enqueueCycle = 0;
        /** Global arrival order; the FCFS age within every class. */
        std::uint64_t seq = 0;
        CoreId core;
        DoneFn done;
    };

    /**
     * A queued read as the scheduler scans it: its bank and row,
     * decoded once at enqueue, its kind and core, and the pool slot
     * holding the rest of the request. Trivially copyable, so a grant
     * erases it from the middle of the queue with a small memmove.
     */
    struct ReadKey
    {
        std::uint64_t row = 0;
        unsigned bank = 0;
        std::uint16_t slot = 0;
        ReadKind kind = ReadKind::DemandLike;
        CoreId core;
    };
    static_assert(std::is_trivially_copyable_v<ReadKey> &&
                      sizeof(ReadKey) == 16,
                  "a grant's erase should move small, plain keys");

    struct Channel
    {
        /** Queued demands + prefetches, in arrival order (FR-FCFS). */
        std::vector<ReadKey> readQ;
        /** queueCapacity read payloads; each queued key owns one. */
        std::vector<Request> readSlots;
        /** Slots no queued key owns (a stack; top = next allocated). */
        std::vector<std::uint16_t> freeSlots;
        std::deque<Request> wbQ;
        std::vector<Cycle> bankReady;
        std::vector<std::uint64_t> openRow;
        Cycle busFree = 0;
        /** Measured data-bus occupancy (sources the busUtil window). */
        std::uint64_t busyCycles = 0;
        bool pumpScheduled = false;
    };

    /** Split @p block into its per-channel bank and row coordinates. */
    void decode(BlockAddr block, unsigned *bank,
                std::uint64_t *row) const;

    /** Scheduling kind of a read with priority @p prio and @p tier. */
    ReadKind kindOf(BusPriority prio, PrefetchTier tier) const;

    /** FR-FCFS class of @p key given its bank's current open row. */
    static unsigned
    readClass(const Channel &c, const ReadKey &key)
    {
        return kReadClass[static_cast<unsigned>(key.kind)]
                         [c.openRow[key.bank] == key.row];
    }

    /**
     * Index of the best read in @p c's queue, or kNoPick; its class is
     * stored to @p cls.
     */
    std::size_t pickRead(const Channel &c, unsigned *cls) const;

    void schedulePump(unsigned ch, Cycle now);
    void pump(unsigned ch);

    DramParams params_;
    DramCtrlParams ctrl_;
    EventQueue &events_;
    Cycle transferCycles_;

    std::deque<Channel> channels_;
    /** Bus accesses attributed to each requesting core. */
    std::vector<std::uint64_t> coreBusAccesses_;
    /** Read grants per core, the weighted-service ledger. */
    std::vector<std::uint64_t> coreServed_;
    /** Queued (not yet granted) prefetches per core, for the QoS cap. */
    std::vector<unsigned> corePrefQueued_;
    std::uint64_t nextSeq_ = 0;

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

} // namespace fdp

#endif // FDP_DRAM_DRAM_CONTROLLER_HH
