#include "prefetch/stream_prefetcher.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "sim/logging.hh"

namespace fdp
{

namespace
{

std::uint64_t
entryBit(unsigned idx)
{
    return std::uint64_t{1} << idx;
}

} // namespace

StreamPrefetcher::StreamPrefetcher(const StreamPrefetcherParams &params)
    : params_(params), level_(params.initialLevel),
      entries_(params.numStreams), spans_(params.numStreams)
{
    if (params_.numStreams == 0 || params_.numStreams > kMaxStreams)
        fatal("stream prefetcher needs 1..%u tracking entries, got %u",
              kMaxStreams, params_.numStreams);
    setAggressiveness(params_.initialLevel);
}

void
StreamPrefetcher::setAggressiveness(unsigned level)
{
    if (level < kMinAggrLevel || level > kMaxAggrLevel)
        panic("stream prefetcher: bad aggressiveness level %u", level);
    level_ = level;
}

void
StreamPrefetcher::reset()
{
    for (auto &e : entries_)
        e = Entry{};
    tick_ = 0;
    rebuildIndex();
}

bool
StreamPrefetcher::inMonitorRegion(const Entry &e, std::int64_t block)
{
    const std::int64_t lo = std::min(e.startPtr, e.endPtr);
    const std::int64_t hi = std::max(e.startPtr, e.endPtr);
    return block >= lo && block <= hi;
}

bool
StreamPrefetcher::inTrainWindow(const Entry &e, std::int64_t block) const
{
    return std::llabs(block - e.firstMiss) <=
           static_cast<std::int64_t>(params_.trainWindow);
}

StreamPrefetcher::BucketSpan
StreamPrefetcher::captureSpan(const Entry &e) const
{
    const auto w = static_cast<std::int64_t>(params_.trainWindow);
    switch (e.state) {
      case State::MonitorRequest:
        return {(std::min(e.startPtr, e.endPtr) - w) >> kBucketShift,
                (std::max(e.startPtr, e.endPtr) + w) >> kBucketShift};
      case State::Allocated:
      case State::Training:
        return {(e.firstMiss - w) >> kBucketShift,
                (e.firstMiss + w) >> kBucketShift};
      default:
        return {};
    }
}

void
StreamPrefetcher::markSpan(IndexSlots &slots, std::uint64_t bit,
                           const BucketSpan &span, bool on)
{
    if (span.lo > span.hi)
        return;
    // Buckets are blocks >> 6, so the difference cannot overflow. Past
    // kIndexSlots buckets the span wraps onto every slot.
    const std::uint64_t n = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(span.hi - span.lo) + 1, kIndexSlots);
    for (std::uint64_t k = 0; k < n; ++k) {
        std::uint64_t &slot =
            slots[slotOf(span.lo + static_cast<std::int64_t>(k))];
        slot = on ? slot | bit : slot & ~bit;
    }
}

void
StreamPrefetcher::reindex(unsigned idx)
{
    const BucketSpan span = captureSpan(entries_[idx]);
    BucketSpan &indexed = spans_[idx];
    if (span == indexed)
        return;
    markSpan(slots_, entryBit(idx), indexed, false);
    markSpan(slots_, entryBit(idx), span, true);
    indexed = span;
}

void
StreamPrefetcher::rebuildIndex()
{
    slots_.fill(0);
    spans_.assign(entries_.size(), BucketSpan{});
    monitorMask_ = 0;
    trainMask_ = 0;
    for (unsigned i = 0; i < entries_.size(); ++i) {
        const State st = entries_[i].state;
        if (st == State::MonitorRequest)
            monitorMask_ |= entryBit(i);
        else if (st == State::Allocated || st == State::Training)
            trainMask_ |= entryBit(i);
        reindex(i);
    }
}

unsigned
StreamPrefetcher::effectiveDistance() const
{
    const unsigned active = std::max(1u, numActiveStreams());
    const unsigned share =
        std::max(degree(), params_.queueShareBudget / active);
    return std::min(distance(), share);
}

void
StreamPrefetcher::issueFromEntry(unsigned idx, std::vector<BlockAddr> &out,
                                 std::size_t budget)
{
    Entry &e = entries_[idx];
    const std::int64_t n = std::min<std::int64_t>(
        degree(), static_cast<std::int64_t>(
                      std::min<std::size_t>(budget, kMaxAggrLevel * 64)));
    const std::int64_t dist = effectiveDistance();
    if (n == 0)
        return;

    // If the distance was lowered (FDP throttling down), pull the end
    // pointer back so new requests stay within the new distance of the
    // demand stream; already-issued blocks beyond it are simply
    // re-covered later and dropped as cache hits.
    if (std::llabs(e.endPtr - e.startPtr) > dist)
        e.endPtr = e.startPtr + e.dir * dist;

    for (std::int64_t i = 1; i <= n; ++i) {
        const std::int64_t block = e.endPtr + e.dir * i;
        if (block < 0)
            break;  // descending stream ran off the address space
        out.push_back(static_cast<BlockAddr>(block));
    }

    // Slide the monitored region: until it spans Prefetch Distance only
    // the end pointer advances; afterwards both pointers advance so that
    // P stays Prefetch Distance ahead of the demand stream.
    const std::int64_t size = std::llabs(e.endPtr - e.startPtr);
    e.endPtr += e.dir * n;
    if (size >= dist)
        e.startPtr += e.dir * n;
    reindex(idx);
}

void
StreamPrefetcher::startRamp(unsigned idx, std::int64_t region_start,
                            std::int64_t ramp_from,
                            std::vector<BlockAddr> &out, std::size_t budget)
{
    Entry &e = entries_[idx];
    // The start-up window is what establishes the prefetch distance:
    // degree-per-trigger alone can never open a gap because triggers
    // arrive once per consumed block (paper footnote 5).
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
    reindex(idx);
}

unsigned
StreamPrefetcher::allocateEntry()
{
    unsigned victim = 0;
    for (unsigned i = 0; i < entries_.size(); ++i) {
        if (entries_[i].state == State::Invalid)
            return i;
        if (entries_[i].lastUse < entries_[victim].lastUse)
            victim = i;
    }
    return victim;
}

void
StreamPrefetcher::doObserve(const PrefetchObservation &obs,
                            std::vector<BlockAddr> &out,
                            std::size_t budget)
{
    const auto block = static_cast<std::int64_t>(obs.block);
    ++tick_;

    // Any demand access (hit or miss) inside a monitored region triggers
    // the next batch of prefetch requests. A demand *miss* that has
    // overtaken the region (the ramp was starved of queue budget, or
    // prefetches were dropped) re-anchors the stream and restarts the
    // ramp - otherwise the entry silently dies and coverage collapses.
    // Every scan below visits only the candidates the index names for
    // this block's slot, in ascending entry order: the exact tests then
    // pick the same first match a full table scan would.
    const std::uint64_t near = slots_[slotOf(block >> kBucketShift)];
    const std::uint64_t monitors = near & monitorMask_;
    const auto w = static_cast<std::int64_t>(params_.trainWindow);
    for (std::uint64_t m = monitors; m != 0; m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        Entry &e = entries_[i];
        if (inMonitorRegion(e, block)) {
            e.lastUse = tick_;
            issueFromEntry(i, out, budget);
            return;
        }
        const std::int64_t front = e.dir > 0
                                       ? std::max(e.startPtr, e.endPtr)
                                       : std::min(e.startPtr, e.endPtr);
        const std::int64_t overshoot = (block - front) * e.dir;
        if (obs.miss && overshoot > 0 && overshoot <= w) {
            e.lastUse = tick_;
            startRamp(i, block, block, out, budget);
            return;
        }
    }

    if (!obs.miss)
        return;  // hits outside monitored regions do not train streams

    // A miss trailing just behind an existing monitored stream belongs
    // to that stream (a demand catching a still-in-flight prefetch
    // behind the start pointer): it must not allocate a duplicate
    // tracking entry, which would train a redundant stream and flood
    // the prefetch request queue with copies.
    for (std::uint64_t m = monitors; m != 0; m &= m - 1) {
        Entry &e = entries_[std::countr_zero(m)];
        const std::int64_t lo = std::min(e.startPtr, e.endPtr) - w;
        const std::int64_t hi = std::max(e.startPtr, e.endPtr) + w;
        if (block >= lo && block <= hi) {
            e.lastUse = tick_;
            return;
        }
    }

    // Misses train an existing Allocated/Training entry...
    for (std::uint64_t m = near & trainMask_; m != 0; m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        Entry &e = entries_[i];
        if (!inTrainWindow(e, block))
            continue;

        e.lastUse = tick_;
        if (block == e.firstMiss || block == e.lastMiss)
            return;  // repeated miss on an in-flight block: no information

        if (e.state == State::Allocated) {
            e.dir = block > e.firstMiss ? 1 : -1;
            e.lastMiss = block;
            e.state = State::Training;
            return;
        }

        // Training: a second delta in the same direction confirms the
        // stream; a reversal restarts training from this miss.
        const int dir2 = block > e.lastMiss ? 1 : -1;
        if (dir2 != e.dir) {
            e.dir = block > e.firstMiss ? 1 : -1;
            e.lastMiss = block;
            return;
        }

        // Join the monitor mask before the ramp: the new stream counts
        // toward the pacing share of its own start-up window.
        e.state = State::MonitorRequest;
        trainMask_ &= ~entryBit(i);
        monitorMask_ |= entryBit(i);
        // The region begins at the allocating miss (paper footnote 5).
        startRamp(i, e.firstMiss, block, out, budget);
        return;
    }

    // ...or allocate a fresh entry when no tracking entry matches.
    const unsigned vi = allocateEntry();
    Entry &e = entries_[vi];
    e = Entry{};
    e.state = State::Allocated;
    e.firstMiss = block;
    e.lastMiss = block;
    e.lastUse = tick_;
    monitorMask_ &= ~entryBit(vi);
    trainMask_ |= entryBit(vi);
    reindex(vi);
}

void
StreamPrefetcher::audit() const
{
    FDP_ASSERT(level_ >= kMinAggrLevel && level_ <= kMaxAggrLevel,
               "%s: aggressiveness level %u outside [%u, %u]", auditName(),
               level_, kMinAggrLevel, kMaxAggrLevel);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        FDP_ASSERT(static_cast<std::uint8_t>(e.state) <=
                       static_cast<std::uint8_t>(State::MonitorRequest),
                   "%s: entry %zu in illegal state %u", auditName(), i,
                   static_cast<unsigned>(e.state));
        if (e.state == State::Invalid)
            continue;
        FDP_ASSERT(e.lastUse <= tick_,
                   "%s: entry %zu last used at tick %llu, after current "
                   "tick %llu",
                   auditName(), i,
                   static_cast<unsigned long long>(e.lastUse),
                   static_cast<unsigned long long>(tick_));
        if (e.state == State::Allocated)
            continue;
        FDP_ASSERT(e.dir == 1 || e.dir == -1,
                   "%s: trained entry %zu has direction %d", auditName(),
                   i, e.dir);
        if (e.state == State::MonitorRequest)
            FDP_ASSERT((e.endPtr - e.startPtr) * e.dir >= 0,
                       "%s: entry %zu monitors [%lld, %lld] against its "
                       "direction %d",
                       auditName(), i,
                       static_cast<long long>(e.startPtr),
                       static_cast<long long>(e.endPtr), e.dir);
    }

    // Index consistency: recount both state masks and every slot's
    // entry bits from the table alone.
    IndexSlots expect{};
    for (unsigned i = 0; i < entries_.size(); ++i) {
        const State st = entries_[i].state;
        const bool monitoring = st == State::MonitorRequest;
        const bool training = st == State::Allocated || st == State::Training;
        FDP_ASSERT(((monitorMask_ & entryBit(i)) != 0) == monitoring,
                   "%s: monitor mask bit of entry %u disagrees with its "
                   "state %u", auditName(), i, static_cast<unsigned>(st));
        FDP_ASSERT(((trainMask_ & entryBit(i)) != 0) == training,
                   "%s: training mask bit of entry %u disagrees with its "
                   "state %u", auditName(), i, static_cast<unsigned>(st));
        const BucketSpan span = captureSpan(entries_[i]);
        FDP_ASSERT(spans_[i] == span,
                   "%s: entry %u indexed over buckets [%lld, %lld] but "
                   "captures [%lld, %lld]", auditName(), i,
                   static_cast<long long>(spans_[i].lo),
                   static_cast<long long>(spans_[i].hi),
                   static_cast<long long>(span.lo),
                   static_cast<long long>(span.hi));
        markSpan(expect, entryBit(i), span, true);
    }
    const std::uint64_t live =
        entries_.size() == kMaxStreams ? ~std::uint64_t{0}
                                       : entryBit(entries_.size()) - 1;
    FDP_ASSERT(((monitorMask_ | trainMask_) & ~live) == 0,
               "%s: state masks name entries past the %zu-entry table",
               auditName(), entries_.size());
    for (unsigned s = 0; s < kIndexSlots; ++s) {
        const std::uint64_t missing = expect[s] & ~slots_[s];
        const std::uint64_t stale = slots_[s] & ~expect[s];
        FDP_ASSERT(missing == 0,
                   "%s: index slot %u lacks entry %d in its capture range",
                   auditName(), s, std::countr_zero(missing));
        FDP_ASSERT(stale == 0,
                   "%s: index slot %u holds entry %d outside its capture "
                   "range", auditName(), s, std::countr_zero(stale));
    }
}

void
StreamPrefetcher::saveState(SnapWriter &w) const
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
StreamPrefetcher::loadState(SnapReader &r)
{
    r.openSection(snapName());
    const unsigned level = r.getU8();
    if (level < kMinAggrLevel || level > kMaxAggrLevel)
        fatal("snapshot: stream prefetcher level %u out of range", level);
    level_ = level;
    tick_ = r.getU64();
    const std::uint32_t n = r.getU32();
    if (n != entries_.size())
        fatal("snapshot: stream prefetcher has %zu entries, snapshot has "
              "%u", entries_.size(), n);
    for (Entry &e : entries_) {
        e.state = static_cast<State>(r.getU8());
        e.dir = static_cast<int>(r.getI64());
        e.firstMiss = r.getI64();
        e.lastMiss = r.getI64();
        e.startPtr = r.getI64();
        e.endPtr = r.getI64();
        e.lastUse = r.getU64();
    }
    r.closeSection();

    // The index does bucket arithmetic on these fields: a hostile image
    // must fail here rather than overflow there. Real blocks are < 2^58.
    constexpr std::int64_t kBlockLimit = std::int64_t{1} << 60;
    for (unsigned i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        for (const std::int64_t b :
             {e.firstMiss, e.lastMiss, e.startPtr, e.endPtr})
            if (b < -kBlockLimit || b > kBlockLimit)
                fatal("snapshot: stream prefetcher entry %u block %lld out "
                      "of range", i, static_cast<long long>(b));
    }

    // Rebuild the derived block-range index the snapshot omits.
    rebuildIndex();
}

unsigned
StreamPrefetcher::numActiveStreams() const
{
    unsigned n = 0;
    for (std::uint64_t m = monitorMask_; m != 0; m &= m - 1)
        if (tick_ - entries_[std::countr_zero(m)].lastUse <=
            params_.activityWindow)
            ++n;
    return n;
}

unsigned
StreamPrefetcher::numMonitoringStreams() const
{
    return static_cast<unsigned>(std::popcount(monitorMask_));
}

} // namespace fdp
