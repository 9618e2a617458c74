/**
 * @file
 * IBM POWER4-style stream prefetcher (paper Section 2.1).
 *
 * Tracks up to 64 access streams. Each tracking entry walks the
 * Invalid -> Allocated -> Training -> Monitor-and-Request state machine:
 * a demand L2 miss allocates an entry, the next two misses within +/-16
 * blocks train the direction, and once trained the entry monitors the
 * region between its start pointer (A) and end pointer (P). A demand L2
 * access inside the monitored region requests blocks [P+1 .. P+N] and
 * slides the region forward, keeping P at most Prefetch Distance ahead.
 *
 * Hardware searches the tracking table in one parallel lookup. The model
 * gets the same effect from a derived block-range index: a fixed table of
 * 64-bit entry masks, one slot per hashed 64-block bucket, in which every
 * live entry sets its bit across the buckets it could match. One slot
 * load masked by state yields a superset of the matching entries, which
 * are then tested exactly in table order, so every result equals that of
 * a full scan of the table.
 */

#ifndef FDP_PREFETCH_STREAM_PREFETCHER_HH
#define FDP_PREFETCH_STREAM_PREFETCHER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace fdp
{

/** Configuration knobs for the stream prefetcher. */
struct StreamPrefetcherParams
{
    /** Number of stream tracking entries, 1..64 (one mask bit each). */
    unsigned numStreams = 64;
    /** Training window around the first miss, in blocks. */
    unsigned trainWindow = 16;
    /**
     * Aggregate requested-but-unconsumed window the engine paces itself
     * to (the Prefetch Request Queue plus headroom). Each monitoring
     * stream gets an equal share, so a few early streams cannot
     * monopolize the queue and starve later ones.
     */
    unsigned queueShareBudget = 192;
    /**
     * A monitoring entry counts toward the pacing share only if it
     * triggered within this many observations: stale entries from
     * ended streams must not throttle live ones.
     */
    std::uint64_t activityWindow = 1024;
    /** Initial aggressiveness level (1..5). */
    unsigned initialLevel = kInitialAggrLevel;
};

/** Multi-stream sequential prefetcher with 4-state tracking entries. */
class StreamPrefetcher : public Prefetcher
{
  public:
    /** Per-entry state machine states (paper Section 2.1). */
    enum class State : std::uint8_t
    {
        Invalid,
        Allocated,
        Training,
        MonitorRequest,
    };

    /** Most tracking entries the index supports: one mask bit each. */
    static constexpr unsigned kMaxStreams = 64;

    explicit StreamPrefetcher(const StreamPrefetcherParams &params = {});

    void setAggressiveness(unsigned level) override;
    unsigned aggressiveness() const override { return level_; }
    const char *name() const override { return "stream"; }
    void reset() override;

    /** Current prefetch distance (blocks P may run ahead of A). */
    unsigned distance() const { return kStreamAggrTable[level_].distance; }

    /** Distance after queue-share pacing across active streams. */
    unsigned effectiveDistance() const;

    /** Current prefetch degree (blocks requested per trigger). */
    unsigned degree() const { return kStreamAggrTable[level_].degree; }

    /** Number of entries currently in the Monitor-and-Request state. */
    unsigned numMonitoringStreams() const;

    /** Monitoring entries that triggered within the activity window. */
    unsigned numActiveStreams() const;

    /** State of tracking entry @p idx (for tests). */
    State entryState(unsigned idx) const { return entries_.at(idx).state; }

    /**
     * Invariants: aggressiveness level in range, every entry in a legal
     * state, trained entries with a +/-1 direction, monitored regions
     * oriented along their direction, LRU timestamps not in the future,
     * and the block-range index exactly describing the table: both
     * state masks and every slot's entry bits recounted from scratch.
     */
    void audit() const override;

    /** Serialize the level, the tick, and every tracking entry. */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    friend struct AuditCorrupter;

    struct Entry
    {
        State state = State::Invalid;
        int dir = 1;             // +1 ascending, -1 descending
        std::int64_t firstMiss = 0;
        std::int64_t lastMiss = 0;
        std::int64_t startPtr = 0;  // A
        std::int64_t endPtr = 0;    // P
        std::uint64_t lastUse = 0;  // LRU timestamp
    };

    /** Inclusive range of 64-block buckets; empty when lo > hi. */
    struct BucketSpan
    {
        std::int64_t lo = 1;
        std::int64_t hi = 0;
        bool operator==(const BucketSpan &) const = default;
    };

    /** Index slots: 512 x 64-block buckets, so blocks 2^15 apart share
     *  a slot. A power of two, so the slot is the bucket's low bits. */
    static constexpr unsigned kIndexSlots = 512;
    static constexpr unsigned kBucketShift = 6;
    using IndexSlots = std::array<std::uint64_t, kIndexSlots>;

    static unsigned slotOf(std::int64_t bucket)
    {
        return static_cast<unsigned>(static_cast<std::uint64_t>(bucket) &
                                     (kIndexSlots - 1));
    }

    /** Monitor-region hit test. */
    static bool inMonitorRegion(const Entry &e, std::int64_t block);

    /** Training-window hit test (anchored at the entry's first miss). */
    bool inTrainWindow(const Entry &e, std::int64_t block) const;

    /**
     * Buckets holding every block entry @p e can match in its state: a
     * monitoring entry's region widened by the training window on both
     * sides (region hits, overtaking misses and trailing misses), or a
     * training entry's window around its first miss. Buckets floor, so
     * a range reaching below block 0 takes negative buckets.
     */
    BucketSpan captureSpan(const Entry &e) const;

    /** Set (@p on) or clear @p bit in every slot of @p span; a span of
     *  kIndexSlots buckets or more covers every slot. */
    static void markSpan(IndexSlots &slots, std::uint64_t bit,
                         const BucketSpan &span, bool on);

    /** Re-register entry @p idx after its capture span may have moved:
     *  touches the slots only when the span actually changed. */
    void reindex(unsigned idx);

    /** Rebuild the whole index from the table (reset, loadState). */
    void rebuildIndex();

    void doObserve(const PrefetchObservation &obs,
                   std::vector<BlockAddr> &out,
                   std::size_t budget) override;

    /** Issue up to min(degree, budget) prefetches past P of entry
     *  @p idx and slide the region by the number actually issued. */
    void issueFromEntry(unsigned idx, std::vector<BlockAddr> &out,
                        std::size_t budget);

    /**
     * (Re)start entry @p idx's monitored region at @p region_start and
     * request the start-up window (prefetch distance, bounded by
     * @p budget) past @p ramp_from. Used when training completes and
     * when the demand stream overtakes a region whose ramp was starved
     * of queue budget.
     */
    void startRamp(unsigned idx, std::int64_t region_start,
                   std::int64_t ramp_from, std::vector<BlockAddr> &out,
                   std::size_t budget);

    /** Pick a victim entry: any Invalid entry, else the LRU one. */
    unsigned allocateEntry();

    StreamPrefetcherParams params_;
    unsigned level_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;

    /*
     * The block-range index. Derived state: maintained at every FSM
     * transition and region move, rebuilt by reset() and loadState(),
     * never serialized; audit() recounts it against the table.
     * slots_[slotOf(bucket)] has bit i set for every entry i whose
     * capture span includes the bucket; hash collisions only add
     * candidates, which the exact tests then reject.
     */
    IndexSlots slots_{};
    /** Entries in Monitor-and-Request state. */
    std::uint64_t monitorMask_ = 0;
    /** Entries in Allocated or Training state. */
    std::uint64_t trainMask_ = 0;
    /** Per entry, the span its bit is currently set across. */
    std::vector<BucketSpan> spans_;
};

} // namespace fdp

#endif // FDP_PREFETCH_STREAM_PREFETCHER_HH
