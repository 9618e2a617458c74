#include "dram/dram_controller.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace fdp
{

DramController::DramController(const DramParams &params,
                               const DramCtrlParams &ctrl,
                               EventQueue &events, StatGroup &stats,
                               unsigned numCores)
    : params_(params), ctrl_(ctrl), events_(events),
      transferCycles_(params.transferCycles()),
      coreBusAccesses_(numCores, 0), coreServed_(numCores, 0),
      corePrefQueued_(numCores, 0),
      busAccesses_(stats, "bus_accesses", "blocks transferred on the bus"),
      demandGrants_(stats, "demand_grants", "demand bus grants"),
      prefetchGrants_(stats, "prefetch_grants", "prefetch bus grants"),
      writebackGrants_(stats, "writeback_grants", "writeback bus grants"),
      rowHits_(stats, "row_hits", "row-buffer hits"),
      rowConflicts_(stats, "row_conflicts", "row-buffer conflicts"),
      rowEmpties_(stats, "row_empties",
                  "accesses to a precharged bank (no open row)"),
      busBusyCycles_(stats, "bus_busy_cycles",
                     "cycles any data bus was busy (all channels)"),
      promotions_(stats, "promotions", "prefetches promoted to demand"),
      lowTierDrops_(stats, "low_tier_drops",
                    "low-accuracy prefetches dropped under queue pressure"),
      qosRejects_(stats, "qos_rejects",
                  "prefetches rejected by the per-core QoS cap")
{
    if (params_.banks == 0 || params_.rowBlocks == 0)
        fatal("DRAM needs nonzero banks and row size");
    if (numCores == 0)
        fatal("DRAM needs at least one requesting core");
    if (ctrl_.channels == 0 ||
        (ctrl_.channels & (ctrl_.channels - 1)) != 0)
        fatal("DRAM controller needs a power-of-two channel count "
              "(got %u)", ctrl_.channels);
    if (params_.rowBlocks % ctrl_.channels != 0)
        fatal("DRAM row size (%u blocks) must be a multiple of the "
              "channel count (%u) for XOR interleaving",
              params_.rowBlocks, ctrl_.channels);
    if (params_.queueCapacity > kMaxReadSlots)
        fatal("DRAM controller read queue capacity %zu exceeds %zu",
              params_.queueCapacity, kMaxReadSlots);
    channels_.resize(ctrl_.channels);
    for (Channel &c : channels_) {
        c.readQ.reserve(params_.queueCapacity);
        c.readSlots.resize(params_.queueCapacity);
        // Slot 0 on top: the first read of a channel takes slot 0.
        for (std::size_t s = params_.queueCapacity; s > 0; --s)
            c.freeSlots.push_back(static_cast<std::uint16_t>(s - 1));
        c.bankReady.assign(params_.banks, 0);
        c.openRow.assign(params_.banks, kNoRow);
    }
}

unsigned
DramController::channelOf(BlockAddr block) const
{
    // XOR interleaving: consecutive blocks stripe across channels, and
    // folding the row index in remaps bank-conflicting strides from
    // row to row. rowBlocks % channels == 0 (checked above) keeps the
    // map injective per channel: one row's blocks never straddle the
    // same channel slot twice.
    return static_cast<unsigned>((block ^ (block / params_.rowBlocks)) %
                                 ctrl_.channels);
}

void
DramController::decode(BlockAddr block, unsigned *bank,
                       std::uint64_t *row) const
{
    const BlockAddr local = block / ctrl_.channels;
    const std::uint64_t global_row = local / params_.rowBlocks;
    *bank = static_cast<unsigned>(global_row % params_.banks);
    *row = global_row / params_.banks;
}

bool
DramController::enqueue(BlockAddr block, BusPriority prio, Cycle now,
                        DoneFn done, CoreId core, PrefetchTier tier)
{
    const unsigned ch = channelOf(block);
    Channel &c = channels_[ch];
    switch (prio) {
      case BusPriority::Demand:
        if (c.readQ.size() >= params_.queueCapacity)
            panic("demand bus queue overflow (MSHRs should bound it)");
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
        c.wbQ.push_back({block, prio, tier, now, nextSeq_++, core,
                         std::move(done)});
        schedulePump(ch, now);
        return true;
    }
    // The capacity checks above leave a free slot for every read.
    ReadKey key;
    decode(block, &key.bank, &key.row);
    key.slot = c.freeSlots.back();
    c.freeSlots.pop_back();
    key.kind = kindOf(prio, tier);
    key.core = core;
    c.readSlots[key.slot] = {block, prio, tier, now, nextSeq_++, core,
                             std::move(done)};
    c.readQ.push_back(key);
    schedulePump(ch, now);
    return true;
}

void
DramController::promoteToDemand(BlockAddr block)
{
    Channel &c = channels_[channelOf(block)];
    unsigned bank;
    std::uint64_t row;
    decode(block, &bank, &row);
    for (ReadKey &key : c.readQ) {
        if (key.row != row || key.bank != bank)
            continue;
        Request &r = c.readSlots[key.slot];
        if (r.block != block || r.prio != BusPriority::Prefetch)
            continue;
        r.prio = BusPriority::Demand;
        key.kind = ReadKind::DemandLike;
        --corePrefQueued_[r.core.index()];
        ++promotions_;
        return;
    }
    // Not queued: already granted the bus, nothing to expedite.
}

std::size_t
DramController::queued() const
{
    std::size_t n = 0;
    for (const Channel &c : channels_)
        n += c.readQ.size() + c.wbQ.size();
    return n;
}

std::uint64_t
DramController::busBusyCycles() const
{
    std::uint64_t busy = 0;
    for (const Channel &c : channels_)
        busy += c.busyCycles;
    return busy;
}

std::uint64_t
DramController::busBusyCyclesOnChannel(unsigned ch) const
{
    FDP_ASSERT(ch < channels_.size(),
               "%s: channel %u of %zu asked for its occupancy",
               auditName(), ch, channels_.size());
    return channels_[ch].busyCycles;
}

std::uint64_t
DramController::busAccessesByCore(CoreId core) const
{
    FDP_ASSERT(core.index() < coreBusAccesses_.size(),
               "%s: core %u of %zu asked for its bus accesses",
               auditName(), core.index(), coreBusAccesses_.size());
    return coreBusAccesses_[core.index()];
}

void
DramController::resetAttribution()
{
    for (std::uint64_t &n : coreBusAccesses_)
        n = 0;
    // The measured occupancies are audited against the bus_busy_cycles
    // statistic, which the measurement boundary resets with its group.
    for (Channel &c : channels_)
        c.busyCycles = 0;
}

DramController::ReadKind
DramController::kindOf(BusPriority prio, PrefetchTier tier) const
{
    // Accuracy-blind FR-FCFS: demands and prefetches are one class.
    if (!ctrl_.fdpPriority || prio == BusPriority::Demand)
        return ReadKind::DemandLike;
    // A prefetch demoted below every queued demand starves outright on
    // a saturated bus, and a starved stream's accuracy collapses to
    // zero — a demotion death spiral. So only the low-accuracy tier
    // runs strictly behind demands (and is shed at enqueue): High is
    // scheduled exactly like a demand, and Medium only yields its
    // row-buffer misses.
    switch (tier) {
      case PrefetchTier::High:
        return ReadKind::DemandLike;
      case PrefetchTier::Medium:
        return ReadKind::Medium;
      case PrefetchTier::Low:
        break;
    }
    return ReadKind::Low;
}

std::size_t
DramController::pickRead(const Channel &c, unsigned *cls) const
{
    std::size_t best = kNoPick;
    unsigned best_class = kNoClass;
    const std::size_t n = c.readQ.size();
    if (!ctrl_.qosWeighted) {
        // Oldest of the best class. Nothing beats the first class-0
        // read, so the scan stops there.
        for (std::size_t i = 0; i < n; ++i) {
            const unsigned k = readClass(c, c.readQ[i]);
            if (k < best_class) {
                best = i;
                best_class = k;
                if (k == 0)
                    break;
            }
        }
    } else {
        // Weighted service: among equal-class candidates the core with
        // the least read grants wins; age (queue order) breaks ties.
        std::uint64_t best_served = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const ReadKey &key = c.readQ[i];
            const unsigned k = readClass(c, key);
            const std::uint64_t served = coreServed_[key.core.index()];
            if (k < best_class ||
                (k == best_class && served < best_served)) {
                best = i;
                best_class = k;
                best_served = served;
            }
        }
    }
    *cls = best_class;
    return best;
}

void
DramController::schedulePump(unsigned ch, Cycle now)
{
    Channel &c = channels_[ch];
    if (c.pumpScheduled)
        return;
    c.pumpScheduled = true;
    events_.schedule(std::max(now, c.busFree), [this, ch] { pump(ch); });
}

void
DramController::pump(unsigned ch)
{
    Channel &c = channels_[ch];
    c.pumpScheduled = false;

    unsigned read_class;
    const std::size_t read = pickRead(c, &read_class);
    // Writebacks run behind reads, except past the high-water backlog,
    // where they pre-empt prefetches (never a demand or a head-class
    // row hit).
    bool grant_read;
    if (read != kNoPick)
        grant_read =
            read_class == 0 ||
            c.wbQ.size() <= params_.writebackHighWater ||
            c.readSlots[c.readQ[read].slot].prio == BusPriority::Demand;
    else if (!c.wbQ.empty())
        grant_read = false;
    else
        return;

    Request req;
    unsigned bank;
    std::uint64_t row;
    if (grant_read) {
        const ReadKey key = c.readQ[read];
        c.readQ.erase(c.readQ.begin() +
                      static_cast<std::ptrdiff_t>(read));
        req = std::move(c.readSlots[key.slot]);
        c.freeSlots.push_back(key.slot);
        bank = key.bank;
        row = key.row;
    } else {
        req = std::move(c.wbQ.front());
        c.wbQ.pop_front();
        decode(req.block, &bank, &row);
    }

    const Cycle now = events_.horizon();

    const bool row_hit = c.openRow[bank] == row;
    const bool row_empty = !row_hit && c.openRow[bank] == kNoRow;
    const Cycle access = row_hit    ? params_.accessRowHit
                         : row_empty ? params_.accessRowEmpty()
                                     : params_.accessRowConflict;

    // Same bank/bus pipeline as the flat model, per channel: open-row
    // hits pipeline at the CAS cadence, activates (empty or conflict)
    // occupy the bank until their transfer ends, and the data transfer
    // serializes on the channel's bus.
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
        c.openRow[bank] = kNoRow;  // auto-precharge
        break;
      case RowPolicy::Adaptive:
        // Precharge after a conflict (the open row is not earning its
        // keep); stay open after hits and first-touch activates.
        c.openRow[bank] = row_hit || row_empty ? row : kNoRow;
        break;
    }

    ++busAccesses_;
    ++coreBusAccesses_[req.core.index()];
    c.busyCycles += transferCycles_;
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

void
DramController::saveState(SnapWriter &w) const
{
    FDP_ASSERT(queued() == 0,
               "%s: snapshot with %zu requests queued (not quiesced)",
               auditName(), queued());
    for (const Channel &c : channels_)
        FDP_ASSERT(!c.pumpScheduled,
                   "%s: snapshot with a pump event pending", auditName());
    w.beginSection(snapName());
    w.putU32(ctrl_.channels);
    w.putU32(params_.banks);
    for (const Channel &c : channels_) {
        w.putU64(c.busFree);
        w.putU64(c.busyCycles);
        for (const Cycle ready : c.bankReady)
            w.putU64(ready);
        for (const std::uint64_t row : c.openRow)
            w.putU64(row);
    }
    w.putU32(static_cast<std::uint32_t>(coreBusAccesses_.size()));
    for (const std::uint64_t n : coreBusAccesses_)
        w.putU64(n);
    for (const std::uint64_t n : coreServed_)
        w.putU64(n);
    w.endSection();
}

void
DramController::loadState(SnapReader &r)
{
    FDP_ASSERT(queued() == 0,
               "%s: restore with %zu requests queued", auditName(),
               queued());
    for (const Channel &c : channels_)
        FDP_ASSERT(!c.pumpScheduled,
                   "%s: restore with a pump event pending", auditName());
    r.openSection(snapName());
    const std::uint32_t chans = r.getU32();
    if (chans != ctrl_.channels)
        fatal("snapshot: controller has %u channels, snapshot has %u",
              ctrl_.channels, chans);
    const std::uint32_t banks = r.getU32();
    if (banks != params_.banks)
        fatal("snapshot: DRAM has %u banks, snapshot has %u",
              params_.banks, banks);
    for (Channel &c : channels_) {
        c.busFree = r.getU64();
        c.busyCycles = r.getU64();
        for (Cycle &ready : c.bankReady)
            ready = r.getU64();
        for (std::uint64_t &row : c.openRow)
            row = r.getU64();
    }
    const std::uint32_t cores = r.getU32();
    if (cores != coreBusAccesses_.size())
        fatal("snapshot: DRAM serves %zu cores, snapshot has %u",
              coreBusAccesses_.size(), cores);
    for (std::uint64_t &n : coreBusAccesses_)
        n = r.getU64();
    for (std::uint64_t &n : coreServed_)
        n = r.getU64();
    r.closeSection();
    // Derived state is rebuilt, not serialized: the queues are empty at
    // a quiesce point, so arrival sequencing restarts and the per-core
    // queued-prefetch recount is zero.
    nextSeq_ = 0;
    for (unsigned &n : corePrefQueued_)
        n = 0;
}

void
DramController::audit() const
{
    FDP_ASSERT(channels_.size() == ctrl_.channels,
               "%s: %zu channel states for %u configured channels",
               auditName(), channels_.size(), ctrl_.channels);
    std::uint64_t busy_sum = 0;
    std::vector<unsigned> pref_queued(corePrefQueued_.size(), 0);
    for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
        const Channel &c = channels_[ch];
        FDP_ASSERT(c.readQ.size() <= params_.queueCapacity,
                   "%s: channel %zu read queue holds %zu of %zu entries",
                   auditName(), ch, c.readQ.size(),
                   params_.queueCapacity);
        FDP_ASSERT(c.bankReady.size() == params_.banks &&
                       c.openRow.size() == params_.banks,
                   "%s: channel %zu bank state sized %zu/%zu for %u "
                   "banks",
                   auditName(), ch, c.bankReady.size(), c.openRow.size(),
                   params_.banks);
        // Between event dispatches, queued work always has a pump
        // pending: enqueue() schedules one and pump() re-schedules
        // while work remains on the channel.
        FDP_ASSERT((c.readQ.empty() && c.wbQ.empty()) || c.pumpScheduled,
                   "%s: channel %zu has %zu queued requests but no pump "
                   "scheduled",
                   auditName(), ch, c.readQ.size() + c.wbQ.size());
        busy_sum += c.busyCycles;

        std::uint64_t last_seq = 0;
        bool have_seq = false;
        const auto auditRequest = [&](const Request &r, bool writeback) {
            FDP_ASSERT(channelOf(r.block) == ch,
                       "%s: block %llu queued on channel %zu but routes "
                       "to channel %u",
                       auditName(),
                       static_cast<unsigned long long>(r.block), ch,
                       channelOf(r.block));
            FDP_ASSERT((r.prio == BusPriority::Writeback) == writeback,
                       "%s: channel %zu %s queue holds a request with "
                       "priority %u",
                       auditName(), ch, writeback ? "writeback" : "read",
                       static_cast<unsigned>(r.prio));
            FDP_ASSERT(r.core.index() < coreBusAccesses_.size(),
                       "%s: queued request for block %llu tagged with "
                       "core %u of %zu",
                       auditName(),
                       static_cast<unsigned long long>(r.block),
                       r.core.index(), coreBusAccesses_.size());
            FDP_ASSERT(static_cast<bool>(r.done) == !writeback,
                       "%s: queued request for block %llu %s a "
                       "completion callback",
                       auditName(),
                       static_cast<unsigned long long>(r.block),
                       writeback ? "has" : "is missing");
            FDP_ASSERT(!have_seq || r.seq > last_seq,
                       "%s: channel %zu queue order disagrees with "
                       "arrival order (seq %llu after %llu)",
                       auditName(), ch,
                       static_cast<unsigned long long>(r.seq),
                       static_cast<unsigned long long>(last_seq));
            FDP_ASSERT(r.seq < nextSeq_,
                       "%s: queued request carries unissued sequence "
                       "number %llu",
                       auditName(),
                       static_cast<unsigned long long>(r.seq));
            last_seq = r.seq;
            have_seq = true;
            if (r.prio == BusPriority::Prefetch)
                ++pref_queued[r.core.index()];
        };

        // The slot pool: every queued key owns a distinct slot, and the
        // free stack holds exactly the rest.
        FDP_ASSERT(c.readSlots.size() == params_.queueCapacity,
                   "%s: channel %zu pool holds %zu slots for capacity %zu",
                   auditName(), ch, c.readSlots.size(),
                   params_.queueCapacity);
        std::vector<bool> owned(c.readSlots.size(), false);
        const auto claimSlot = [&](std::uint16_t slot, const char *by) {
            FDP_ASSERT(slot < owned.size() && !owned[slot],
                       "%s: channel %zu slot %u claimed twice or out of "
                       "range (by a %s)",
                       auditName(), ch, static_cast<unsigned>(slot), by);
            owned[slot] = true;
        };
        for (const ReadKey &key : c.readQ) {
            claimSlot(key.slot, "queued read");
            const Request &r = c.readSlots[key.slot];
            auditRequest(r, false);
            unsigned bank;
            std::uint64_t row;
            decode(r.block, &bank, &row);
            FDP_ASSERT(key.bank == bank && key.row == row,
                       "%s: stale decode: block %llu keyed to bank %u "
                       "row %llu but decodes to bank %u row %llu",
                       auditName(),
                       static_cast<unsigned long long>(r.block), key.bank,
                       static_cast<unsigned long long>(key.row), bank,
                       static_cast<unsigned long long>(row));
            FDP_ASSERT(key.kind == kindOf(r.prio, r.tier) &&
                           key.core == r.core,
                       "%s: block %llu keyed as kind %u core %u but its "
                       "payload gives kind %u core %u",
                       auditName(),
                       static_cast<unsigned long long>(r.block),
                       static_cast<unsigned>(key.kind),
                       key.core.index(),
                       static_cast<unsigned>(kindOf(r.prio, r.tier)),
                       r.core.index());
        }
        for (const std::uint16_t slot : c.freeSlots)
            claimSlot(slot, "free-stack entry");
        FDP_ASSERT(c.freeSlots.size() + c.readQ.size() ==
                       c.readSlots.size(),
                   "%s: channel %zu leaked slots: %zu free + %zu queued "
                   "of %zu",
                   auditName(), ch, c.freeSlots.size(), c.readQ.size(),
                   c.readSlots.size());
        have_seq = false;
        for (const Request &r : c.wbQ)
            auditRequest(r, true);
    }
    FDP_ASSERT(busy_sum == busBusyCycles_.value(),
               "%s: per-channel occupancies sum to %llu but the "
               "registered statistic is %llu",
               auditName(), static_cast<unsigned long long>(busy_sum),
               static_cast<unsigned long long>(busBusyCycles_.value()));
    std::uint64_t per_core_sum = 0;
    for (const std::uint64_t n : coreBusAccesses_)
        per_core_sum += n;
    FDP_ASSERT(per_core_sum == busAccesses_.value(),
               "%s: per-core bus accesses sum to %llu but the shared "
               "total is %llu",
               auditName(), static_cast<unsigned long long>(per_core_sum),
               static_cast<unsigned long long>(busAccesses_.value()));
    for (std::size_t i = 0; i < corePrefQueued_.size(); ++i)
        FDP_ASSERT(pref_queued[i] == corePrefQueued_[i],
                   "%s: core %zu QoS ledger says %u queued prefetches "
                   "but the queues hold %u",
                   auditName(), i, corePrefQueued_[i], pref_queued[i]);
}

} // namespace fdp
