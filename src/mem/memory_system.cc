#include "mem/memory_system.hh"

#include <iterator>
#include <utility>

#include "sim/logging.hh"

namespace fdp
{

namespace
{

/** Shared caches tag lines with owners from all @p numCores cores. */
CacheParams
withCores(CacheParams p, unsigned numCores)
{
    p.numCores = numCores;
    return p;
}

/** Statistic name and description of each MemorySystem::Counter. */
struct CounterInfo
{
    const char *name;
    const char *desc;
};

constexpr CounterInfo kCounterInfo[] = {
    {"demand_accesses", "demand loads+stores"},
    {"l1_hits", "L1D hits"},
    {"l1_misses", "L1D misses"},
    {"l2_hits", "L2 demand hits"},
    {"l2_misses", "L2 demand misses"},
    {"mshr_merges", "demands merged into in-flight MSHRs"},
    {"mshr_stalls", "demands stalled on a full MSHR file"},
    {"pref_issued", "prefetch candidates produced"},
    {"pref_drop_l2hit", "prefetches dropped: block already cached"},
    {"pref_drop_inflight", "prefetches dropped: block already in flight"},
    {"pref_drop_queue_full", "prefetches dropped: request queue overflow"},
    {"pcache_hits", "demand hits in the prefetch cache"},
    {"writebacks", "dirty blocks written back to DRAM"},
    {"demand_miss_fills", "DRAM fills that served demand misses"},
    {"demand_miss_cycles", "total alloc-to-fill cycles of demand-miss fills"},
    {"l2_evictions_caused", "shared-L2 evictions caused by this core's fills"},
    {"pollution_inflicted",
     "demand blocks evicted by this core's prefetch fills"},
    {"cross_pollution_suffered",
     "demand blocks lost to other cores' prefetch fills"},
};

} // namespace

template <std::size_t... K>
MemorySystem::Counters<sizeof...(K)>
MemorySystem::makeCounters(StatGroup *group, bool withPcacheHits,
                           std::index_sequence<K...>)
{
    static_assert(std::size(kCounterInfo) == kNumCounters);
    // Braced-list elements initialize in order, so registration order
    // is counter order.
    return {{ScalarStat(K == kPcacheHits && !withPcacheHits ? nullptr
                                                            : group,
                        kCounterInfo[K].name, kCounterInfo[K].desc)...}};
}

MemorySystem::PerCore::PerCore(const MachineParams &params,
                               unsigned numCores, StatGroup *stats)
    : l1(withCores(params.l1, numCores)),
      counters(makeCounters(stats, false,
                            std::make_index_sequence<kNumCounters>{}))
{
}

MemorySystem::MemorySystem(const MachineParams &params, EventQueue &events,
                           Prefetcher *pf, FdpController &fdp,
                           StatGroup &stats)
    : MemorySystem(params, events, {pf}, {&fdp}, stats, {nullptr})
{
}

MemorySystem::MemorySystem(const MachineParams &params, EventQueue &events,
                           const std::vector<Prefetcher *> &prefetchers,
                           const std::vector<FdpController *> &controllers,
                           StatGroup &sharedStats,
                           const std::vector<StatGroup *> &coreStats)
    : params_(params),
      numCores_(static_cast<unsigned>(controllers.size())),
      prefetchers_(prefetchers), fdp_(controllers),
      perCoreColumns_(coreStats.size() != 1 || coreStats[0] != nullptr),
      l2_(withCores(params.l2, numCores_)),
      mshrs_(params.l2Mshrs, numCores_),
      dram_(makeDramBackend(params.dram, params.dramCtrl, events,
                            sharedStats, numCores_)),
      totals_(makeCounters(&sharedStats, numCores_ == 1,
                           std::make_index_sequence<kNumTotals>{}))
{
    if (numCores_ == 0)
        fatal("memory system needs at least one core");
    if (prefetchers_.size() != numCores_)
        fatal("%u controllers but %zu prefetchers", numCores_,
              prefetchers_.size());
    if (coreStats.size() != numCores_)
        fatal("%u cores but %zu per-core stat groups", numCores_,
              coreStats.size());
    for (unsigned i = 0; i < numCores_; ++i) {
        if (fdp_[i] == nullptr)
            fatal("core %u has no FDP controller", i);
        if (perCoreColumns_ && coreStats[i] == nullptr)
            fatal("core %u has no stat group", i);
    }
    if (params_.mshrDemandReserve >= params_.l2Mshrs)
        fatal("MSHR demand reserve must be below the MSHR capacity");
    if (params_.prefetchCache.enabled) {
        if (numCores_ > 1)
            fatal("the prefetch cache (Section 5.7) is single-core only");
        pcache_ = std::make_unique<PrefetchCache>(params_.prefetchCache);
    }

    for (unsigned i = 0; i < numCores_; ++i) {
        perCore_.emplace_back(params_, numCores_, coreStats[i]);
        ports_.emplace_back(*this, CoreId(i));
    }
}

MemoryPort &
MemorySystem::port(CoreId core)
{
    if (core.index() >= numCores_)
        fatal("no port for core %u of %u", core.index(), numCores_);
    return ports_[core.index()];
}

void
MemorySystem::demandAccess(CoreId c, Addr addr, Addr pc, bool isWrite,
                           Cycle now, DoneFn done)
{
    PerCore &self = core(c);
    count(self, kDemandAccesses);
    const BlockAddr block = blockAddr(addr);
    const Cycle t1 = now + params_.l1Latency;

    if (self.l1.access(block, isWrite).hit) {
        count(self, kL1Hits);
        done(t1);
        return;
    }
    count(self, kL1Misses);

    const Cycle t2 = t1 + params_.l2Latency;
    const CacheAccessResult l2res = l2_.access(block, false);
    PrefetchObservation obs{addr, block, pc, !l2res.hit};

    if (l2res.hit) {
        count(self, kL2Hits);
        // The use is credited to the core whose prefetcher fetched the
        // block (with disjoint address slices, always the accessor).
        if (l2res.hitPrefetched)
            fdp_[l2res.owner.index()]->onPrefetchUsedInCache();
        fillL1(c, block, isWrite, t2);
        done(t2);
        observeAndIssue(c, obs, t2);
        return;
    }

    // Probed in parallel with the L2, so a prefetch-cache hit costs the
    // same latency as an L2 hit (paper Section 5.7).
    if (pcache_ && pcache_->extract(block)) {
        count(self, kPcacheHits);
        fdp_[c.index()]->onPrefetchUsedInCache();
        insertL2Fill(c, block, false, false, t2);
        fillL1(c, block, isWrite, t2);
        done(t2);
        obs.miss = false;  // serviced without going to memory
        observeAndIssue(c, obs, t2);
        return;
    }

    count(self, kL2Misses);
    fdp_[c.index()]->onDemandMiss(block);
    observeAndIssue(c, obs, t2);

    if (MshrEntry *e = mshrs_.find(block)) {
        mergeIntoMshr(c, *e, block, isWrite, std::move(done));
        return;
    }

    if (mshrs_.full()) {
        count(self, kMshrStalls);
        mshrWaitQ_.push_back({c, block, isWrite, std::move(done)});
        return;
    }
    startDemandMiss(c, block, isWrite, t2, std::move(done));
}

void
MemorySystem::mergeIntoMshr(CoreId c, MshrEntry &e, BlockAddr block,
                            bool isWrite, DoneFn done)
{
    count(core(c), kMshrMerges);
    if (e.prefBit) {
        // Late prefetch: a demand wants data that a prefetch is still
        // fetching (paper Section 3.1.2). The lateness is charged to
        // the core that issued the prefetch; the entry becomes a demand
        // miss of the demanding core.
        fdp_[e.core.index()]->onLatePrefetchMshrHit();
        e.prefBit = false;
        e.core = c;
        dram_->promoteToDemand(block);
    }
    if (isWrite)
        e.writeIntent = true;
    e.waiters.push_back(std::move(done));
}

void
MemorySystem::startDemandMiss(CoreId c, BlockAddr block, bool isWrite,
                              Cycle now, DoneFn done)
{
    MshrEntry &e = mshrs_.allocate(block, false, now, c);
    e.writeIntent = isWrite;
    e.waiters.push_back(std::move(done));
    dram_->enqueue(block, BusPriority::Demand, now,
                  [this, block](Cycle cy) { onFill(block, cy); }, c);
}

void
MemorySystem::observeAndIssue(CoreId c, const PrefetchObservation &obs,
                              Cycle now)
{
    Prefetcher *pf = prefetchers_[c.index()];
    if (!pf)
        return;
    updateBusUtil(now);
    PrefetchObservation seen = obs;
    seen.busUtil = busUtil_;
    PerCore &self = core(c);
    pfCandidates_.clear();
    const std::size_t budget =
        params_.prefetchQueueCap - self.prefetchQueue.size();
    pf->observe(seen, pfCandidates_, budget);

    for (const BlockAddr b : pfCandidates_) {
        count(self, kPrefIssued);
        if (self.prefetchQueue.size() >= params_.prefetchQueueCap) {
            count(self, kPrefDropQueueFull);
            continue;
        }
        self.prefetchQueue.push_back(b);
    }
    drainPrefetchQueue(c, now);
}

void
MemorySystem::updateBusUtil(Cycle now)
{
    if (now < busWindowStart_ + kBusUtilWindow)
        return;
    const std::uint64_t busy = dram_->busBusyCycles();
    if (busy < busWindowBusy_) {
        // The bus-busy statistic was reset (measurement boundary):
        // re-prime the window and keep the last published value.
        busWindowStart_ = now;
        busWindowBusy_ = busy;
        return;
    }
    busUtil_ = static_cast<double>(busy - busWindowBusy_) /
               (static_cast<double>(now - busWindowStart_) *
                static_cast<double>(dram_->dataBuses()));
    if (busUtil_ > 1.0)
        busUtil_ = 1.0;
    busWindowStart_ = now;
    busWindowBusy_ = busy;
}

void
MemorySystem::drainPrefetchQueue(CoreId c, Cycle now)
{
    PerCore &self = core(c);
    while (!self.prefetchQueue.empty()) {
        const BlockAddr b = self.prefetchQueue.front();
        if (l2_.probe(b) || (pcache_ && pcache_->probe(b))) {
            count(self, kPrefDropL2Hit);
            self.prefetchQueue.pop_front();
            continue;
        }
        if (mshrs_.find(b)) {
            count(self, kPrefDropInFlight);
            self.prefetchQueue.pop_front();
            continue;
        }
        // Prefetches may not take the MSHRs reserved for demands; when
        // none is available the queue simply waits for a deallocation.
        if (mshrs_.size() + params_.mshrDemandReserve >= mshrs_.capacity())
            return;
        mshrs_.allocate(b, true, now, c);
        const bool sent =
            dram_->enqueue(b, BusPriority::Prefetch, now,
                          [this, b](Cycle cy) { onFill(b, cy); }, c,
                          fdp_[c.index()]->accuracyTier());
        if (!sent) {
            // Bus queue full: keep the candidate queued for later.
            mshrs_.deallocate(b);
            return;
        }
        self.prefetchQueue.pop_front();
        fdp_[c.index()]->onPrefetchSent();
    }
}

void
MemorySystem::onFill(BlockAddr block, Cycle fillCycle)
{
    MshrEntry *e = mshrs_.find(block);
    if (!e)
        panic("fill for block with no MSHR entry");

    const bool was_prefetch = e->prefBit;
    const bool write_intent = e->writeIntent;
    const CoreId owner = e->core;
    // Swap rather than move the waiters out: the entry slot inherits the
    // scratch vector's (empty) warm storage and the scratch vector keeps
    // its capacity across fills, so neither side reallocates in steady
    // state.
    fillWaiters_.clear();
    fillWaiters_.swap(e->waiters);
    if (!was_prefetch) {
        count(core(owner), kDemandMissFills);
        count(core(owner), kDemandMissCycles, fillCycle - e->allocCycle);
    }
    mshrs_.deallocate(block);

    if (was_prefetch) {
        if (pcache_) {
            pcache_->insert(block);
        } else {
            // The owner's filter clears its bit as a prefetch fill;
            // every other core clears too (the block is back in the
            // shared L2), without counting a fill it did not perform.
            for (unsigned i = 0; i < numCores_; ++i) {
                if (CoreId(i) == owner)
                    fdp_[i]->onPrefetchFill(block);
                else
                    fdp_[i]->onBlockRefetchedByOtherCore(block);
            }
            insertL2Fill(owner, block, true, false, fillCycle);
        }
    } else {
        insertL2Fill(owner, block, false, false, fillCycle);
        fillL1(owner, block, write_intent, fillCycle);
    }

    for (auto &w : fillWaiters_)
        w(fillCycle);
    admitPending(fillCycle);
    // Core-id order, so the drain is deterministic.
    for (unsigned i = 0; i < numCores_; ++i)
        drainPrefetchQueue(CoreId(i), fillCycle);
}

void
MemorySystem::insertL2Fill(CoreId by, BlockAddr block, bool prefBit,
                           bool dirty, Cycle now)
{
    const InsertPos pos =
        prefBit ? fdp_[by.index()]->insertPos() : InsertPos::Mru;
    const CacheVictim v = l2_.insert(block, prefBit, pos, dirty, by);
    if (!v.valid)
        return;
    ++core(by).counters[kL2EvictionsCaused];
    // Every shared-L2 eviction ticks EVERY controller, so all cores'
    // sampling intervals stay synchronized (audited invariant).
    for (unsigned i = 0; i < numCores_; ++i)
        fdp_[i]->onCacheEviction();
    if (prefBit && !v.prefBit) {
        // Pollution: the victim owner's filter learns the loss; the
        // cost is charged to the prefetching core and, when they
        // differ, also reported against the victim core.
        fdp_[v.owner.index()]->onDemandBlockEvictedByPrefetch(v.block);
        ++core(by).counters[kPollutionInflicted];
        if (!(v.owner == by))
            ++core(v.owner).counters[kCrossPollutionSuffered];
    }
    if (v.dirty && params_.modelWritebacks) {
        count(core(v.owner), kWritebacks);
        dram_->enqueue(v.block, BusPriority::Writeback, now, nullptr,
                      v.owner);
    }
}

void
MemorySystem::fillL1(CoreId c, BlockAddr block, bool isWrite, Cycle now)
{
    PerCore &self = core(c);
    if (self.l1.probe(block)) {
        if (isWrite)
            self.l1.markDirty(block);
        return;
    }
    const CacheVictim v =
        self.l1.insert(block, false, InsertPos::Mru, isWrite, c);
    if (v.valid && v.dirty) {
        // Dirty L1 victims land in the L2 when present there; otherwise
        // they must go all the way to memory.
        if (!l2_.markDirty(v.block) && params_.modelWritebacks) {
            count(self, kWritebacks);
            dram_->enqueue(v.block, BusPriority::Writeback, now, nullptr,
                          c);
        }
    }
}

void
MemorySystem::admitPending(Cycle now)
{
    while (!mshrWaitQ_.empty() && !mshrs_.full()) {
        PendingDemand p = std::move(mshrWaitQ_.front());
        mshrWaitQ_.pop_front();
        // A prefetch issued while this demand waited may have brought
        // the block in already; it is a hit now.
        if (l2_.probe(p.block) || (pcache_ && pcache_->probe(p.block))) {
            if (pcache_ && pcache_->extract(p.block)) {
                count(core(p.core), kPcacheHits);
                fdp_[p.core.index()]->onPrefetchUsedInCache();
                insertL2Fill(p.core, p.block, false, false, now);
            }
            fillL1(p.core, p.block, p.isWrite, now);
            p.done(now);
            continue;
        }
        if (MshrEntry *e = mshrs_.find(p.block)) {
            mergeIntoMshr(p.core, *e, p.block, p.isWrite,
                          std::move(p.done));
            continue;
        }
        startDemandMiss(p.core, p.block, p.isWrite, now,
                        std::move(p.done));
    }
}

bool
MemorySystem::quiesced() const
{
    if (mshrs_.size() != 0 || !mshrWaitQ_.empty() || dram_->queued() != 0)
        return false;
    for (const PerCore &c : perCore_)
        if (!c.prefetchQueue.empty())
            return false;
    return true;
}

void
MemorySystem::resetAttribution()
{
    dram_->resetAttribution();
    for (PerCore &c : perCore_)
        for (ScalarStat &s : c.counters)
            s.reset();
}

double
MemorySystem::avgDemandMissLatency() const
{
    return ratio(static_cast<double>(total(kDemandMissCycles)),
                 static_cast<double>(total(kDemandMissFills)));
}

void
MemorySystem::audit() const
{
    FDP_ASSERT(params_.mshrDemandReserve < mshrs_.capacity(),
               "%s: demand reserve %zu swallows all %zu MSHRs",
               auditName(), params_.mshrDemandReserve, mshrs_.capacity());
    FDP_ASSERT(busUtil_ >= 0.0 && busUtil_ <= 1.0,
               "%s: bus utilization %f outside [0, 1]", auditName(),
               busUtil_);
    for (unsigned i = 0; i < numCores_; ++i) {
        FDP_ASSERT(perCore_[i].prefetchQueue.size() <=
                       params_.prefetchQueueCap,
                   "%s: core %u prefetch request queue holds %zu of %zu "
                   "entries",
                   auditName(), i, perCore_[i].prefetchQueue.size(),
                   params_.prefetchQueueCap);
        perCore_[i].l1.audit();
    }
    for (const PendingDemand &p : mshrWaitQ_)
        FDP_ASSERT(p.core.index() < numCores_,
                   "%s: queued demand tagged with core %u of %u",
                   auditName(), p.core.index(), numCores_);
    l2_.audit();
    mshrs_.audit();
    dram_->audit();
    if (pcache_)
        pcache_->audit();

    // Stat scoping: every shared counter is exactly the sum of its
    // per-core breakdown — attribution may never invent or lose events.
    // (Without per-core columns, core 0's share is the total itself.)
    for (unsigned k = 0; perCoreColumns_ && k < kNumTotals; ++k) {
        std::uint64_t sum = 0;
        for (const PerCore &c : perCore_)
            sum += c.counters[k].value();
        FDP_ASSERT(sum == totals_[k].value(),
                   "%s: per-core %s sums to %llu but the shared total "
                   "is %llu",
                   auditName(), totals_[k].name().c_str(),
                   static_cast<unsigned long long>(sum),
                   static_cast<unsigned long long>(totals_[k].value()));
    }

    // Shared-L2 evictions tick all controllers together, so their
    // sampling intervals can never drift apart.
    for (unsigned i = 1; i < numCores_; ++i)
        FDP_ASSERT(fdp_[i]->intervalsCompleted() ==
                       fdp_[0]->intervalsCompleted(),
                   "%s: core %u completed %llu sampling intervals but "
                   "core 0 completed %llu",
                   auditName(), i,
                   static_cast<unsigned long long>(
                       fdp_[i]->intervalsCompleted()),
                   static_cast<unsigned long long>(
                       fdp_[0]->intervalsCompleted()));
}

void
MemorySystem::saveState(SnapWriter &w) const
{
    FDP_ASSERT(quiesced(),
               "%s: snapshot with work in flight (%zu MSHRs, %zu stalled "
               "demands, %zu bus requests, or a queued prefetch)",
               auditName(), mshrs_.size(), mshrWaitQ_.size(),
               dram_->queued());
    w.beginSection(snapName());
    w.putBool(pcache_ != nullptr);
    w.putDouble(busUtil_);
    w.putU64(busWindowStart_);
    w.putU64(busWindowBusy_);
    w.endSection();
    for (const PerCore &c : perCore_)
        c.l1.saveState(w);
    l2_.saveState(w);
    mshrs_.saveState(w);
    dram_->saveState(w);
    if (pcache_)
        pcache_->saveState(w);
}

void
MemorySystem::loadState(SnapReader &r)
{
    FDP_ASSERT(quiesced(),
               "%s: restore with work in flight", auditName());
    r.openSection(snapName());
    const bool has_pcache = r.getBool();
    busUtil_ = r.getDouble();
    busWindowStart_ = r.getU64();
    busWindowBusy_ = r.getU64();
    r.closeSection();
    if (has_pcache != (pcache_ != nullptr))
        fatal("snapshot: prefetch cache is %s, snapshot has it %s",
              pcache_ ? "enabled" : "disabled",
              has_pcache ? "enabled" : "disabled");
    for (PerCore &c : perCore_)
        c.l1.loadState(r);
    l2_.loadState(r);
    mshrs_.loadState(r);
    dram_->loadState(r);
    if (pcache_)
        pcache_->loadState(r);
}

} // namespace fdp
