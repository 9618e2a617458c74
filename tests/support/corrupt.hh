/**
 * @file
 * Test-only state corruption for audit death tests.
 *
 * fdp::AuditCorrupter is forward-declared in sim/check.hh and befriended
 * by every Auditable component; this test-support header supplies its
 * definition. Each hook violates exactly one structural invariant so a
 * death test can verify that the matching audit() catches it. Production
 * code never includes this header.
 */

#ifndef FDP_TESTS_SUPPORT_CORRUPT_HH
#define FDP_TESTS_SUPPORT_CORRUPT_HH

#include "core/fdp_controller.hh"
#include "core/feedback_counters.hh"
#include "core/pollution_filter.hh"
#include "dram/dram_controller.hh"
#include "manage/prefetcher_manager.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory_system.hh"
#include "mem/mshr.hh"
#include "sim/logging.hh"
#include "prefetch/dspatch_prefetcher.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/nextline_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/stride_prefetcher.hh"
#include "prefetch/vldp_prefetcher.hh"
#include "sim/event_queue.hh"
#include "trace/trace_reader.hh"

namespace fdp
{

struct AuditCorrupter
{
    /**
     * Lengthen a recency chain: point the MRU line's next link back at
     * the LRU head, so the chain walk overruns the valid-way count.
     */
    static void
    cacheDuplicateStackEntry(SetAssocCache &cache)
    {
        for (std::size_t s = 0; s < cache.sets_.size(); ++s) {
            auto &set = cache.sets_[s];
            if (set.used == 0)
                continue;
            cache.lines_[s * cache.params_.assoc + set.mru].next = set.lru;
            return;
        }
    }

    /** Drop the chain's LRU entry while its way stays valid. */
    static void
    cacheDropStackEntry(SetAssocCache &cache)
    {
        for (std::size_t s = 0; s < cache.sets_.size(); ++s) {
            auto &set = cache.sets_[s];
            if (set.used == 0)
                continue;
            if (set.used == 1) {
                set.lru = SetAssocCache::kNoWay;
                set.mru = SetAssocCache::kNoWay;
            } else {
                set.lru = cache.lines_[s * cache.params_.assoc +
                                       set.lru].next;
            }
            return;
        }
    }

    /** First live MSHR entry (there must be one). */
    static MshrEntry &
    firstMshrEntry(MshrFile &mshrs)
    {
        for (const auto &bucket : mshrs.index_)
            if (bucket.slot != MshrFile::kNoSlot)
                return mshrs.slots_[bucket.slot];
        panic("corrupter: MSHR file is empty");
    }

    /** Make an entry's recorded block disagree with its index key. */
    static void
    mshrMismatchKey(MshrFile &mshrs)
    {
        firstMshrEntry(mshrs).block += 1;
    }

    /** Give a prefetch-tagged entry a demand waiter. */
    static void
    mshrPrefetchWithWaiter(MshrFile &mshrs)
    {
        MshrEntry &e = firstMshrEntry(mshrs);
        e.prefBit = true;
        e.waiters.emplace_back([](Cycle) {});
    }

    /** Push the horizon past a still-pending event. */
    static void
    eventQueuePastEvent(EventQueue &q)
    {
        q.horizon_ = q.heap_.front().when + 1;
    }

    /** Break the serviced + pending == scheduled accounting. */
    static void
    eventQueueLoseEvent(EventQueue &q)
    {
        ++q.serviced_;
    }

    /** Desynchronize the index mask from the filter size. */
    static void
    filterBreakMask(PollutionFilter &filter)
    {
        filter.mask_ = filter.bits_.size();
    }

    /** Drive a smoothed counter value negative. */
    static void
    countersNegativeSmoothed(FeedbackCounters &counters)
    {
        counters.usedTotal_.smoothed_ = -1.0;
    }

    /** Count more late prefetches than used ones this interval. */
    static void
    countersLateExceedsUsed(FeedbackCounters &counters)
    {
        counters.lateTotal_.interval_ =
            counters.usedTotal_.interval_ + 1;
    }

    /** Push the Dynamic Configuration Counter out of [1, 5]. */
    static void
    controllerBadLevel(FdpController &fdp)
    {
        fdp.level_ = kMaxAggrLevel + 2;
    }

    /** Make the insertion policy an illegal enum value. */
    static void
    controllerBadInsertPos(FdpController &fdp)
    {
        fdp.insertPos_ = static_cast<InsertPos>(kNumInsertPos + 3);
    }

    /** Record more used prefetches than were ever sent. */
    static void
    controllerUsedExceedsSent(FdpController &fdp)
    {
        fdp.prefUsed_ += fdp.prefSent_.value() + 1;
    }

    /** Advance one controller's completed-interval count on its own. */
    static void
    controllerSkipInterval(FdpController &fdp)
    {
        ++fdp.intervals_;
    }

    /** Zero the direction of a monitoring stream entry. */
    static void
    streamZeroDirection(StreamPrefetcher &pf)
    {
        pf.entries_.front().state = StreamPrefetcher::State::MonitorRequest;
        pf.entries_.front().dir = 0;
    }

    /** Put a stream entry into a state outside the FSM. */
    static void
    streamIllegalState(StreamPrefetcher &pf)
    {
        pf.entries_.front().state = static_cast<StreamPrefetcher::State>(9);
    }

    /** Clear entry 0's bit in the index slot of its last bucket, so a
     *  block there would no longer find the entry. */
    static void
    streamDropIndexBit(StreamPrefetcher &pf)
    {
        const auto span = pf.spans_.front();
        pf.slots_[StreamPrefetcher::slotOf(span.hi)] &= ~std::uint64_t{1};
    }

    /** Mark entry 0 as monitoring in the state mask, whatever its state. */
    static void
    streamWrongStateMask(StreamPrefetcher &pf)
    {
        pf.monitorMask_ ^= 1;
    }

    /** Make the newest GHB entry's link point at itself (a cycle). */
    static void
    ghbLinkCycle(GhbPrefetcher &pf)
    {
        const std::uint64_t seq = pf.nextSeq_ - 1;
        GhbPrefetcher::GhbEntry &e = pf.ghb_[seq % pf.ghb_.size()];
        e.hasPrev = true;
        e.prevSeq = seq;
    }

    /** Store a stride entry in a slot its tag does not hash to. */
    static void
    strideWrongSlot(StridePrefetcher &pf)
    {
        const Addr tag = 0x4000;
        const std::size_t wrong =
            (pf.indexOf(tag) + 1) % pf.table_.size();
        StridePrefetcher::Entry &e = pf.table_[wrong];
        e.valid = true;
        e.tag = tag;
        e.state = StridePrefetcher::State::Initial;
    }

    /** Store a VLDP level-1 DPT entry in a slot its key misses. */
    static void
    vldpDptWrongSlot(VldpPrefetcher &pf)
    {
        std::array<std::int8_t, kVldpHistLen> key{};
        key[0] = 2;
        const std::size_t wrong =
            (pf.dptIndexOf(1, key) + 1) % pf.dpt_[0].size();
        VldpPrefetcher::DptEntry &e = pf.dpt_[0][wrong];
        e.valid = true;
        e.key = key;
        e.pred = 1;
        e.accuracy = 1;
    }

    /** Clear a tracked region's trigger bit from its access pattern. */
    static void
    dspatchLoseTriggerBit(DspatchPrefetcher &pf)
    {
        DspatchPrefetcher::PbEntry &e = pf.pb_.front();
        e.valid = true;
        e.triggerOffset = 3;
        e.pattern = 1u << 5;  // trigger bit 3 missing
        e.lastUse = pf.tick_;
    }

    /** Push the next-line prefetcher's level out of [1, 5]. */
    static void
    nextlineBadLevel(NextLinePrefetcher &pf)
    {
        pf.level_ = kMaxAggrLevel + 4;
    }

    /** Point the manager's live-candidate index outside its zoo. */
    static void
    managerBadActive(ManagedPrefetcher &mgr)
    {
        mgr.active_ = mgr.zoo_.size();
    }

    /** Desynchronize an exploring manager from its scoring cursor. */
    static void
    managerExploreDesync(ManagedPrefetcher &mgr)
    {
        mgr.phase_ = ManagedPrefetcher::Phase::Explore;
        mgr.exploreIdx_ = (mgr.active_ + 1) % mgr.zoo_.size();
    }

    /** Overfill @p core's Prefetch Request Queue past its capacity. */
    static void
    memorySystemOverfillQueue(MemorySystem &mem, CoreId core = kCore0)
    {
        mem.core(core).prefetchQueue.resize(
            mem.params_.prefetchQueueCap + 1, 0);
    }

    /** Corrupt the L2 recency stack beneath the memory system. */
    static void
    memorySystemCorruptL2(MemorySystem &mem)
    {
        cacheDuplicateStackEntry(mem.l2_);
    }

    /** Queue a demand tagged with a core the machine does not have. */
    static void
    memorySystemTagQueuedDemandBadCore(MemorySystem &mem)
    {
        mem.mshrWaitQ_.push_back({CoreId(mem.numCores_ + 7), 0, false,
                                  nullptr});
    }

    /** Credit core 0 with a demand access the shared total never saw. */
    static void
    memorySystemBreakStatConservation(MemorySystem &mem)
    {
        ++mem.perCore_[0].counters[MemorySystem::kDemandAccesses];
    }

    /** Overfill the demand bus queue past its capacity. */
    static void
    dramOverfillQueue(DramModel &dram)
    {
        dram.demandQ_.resize(dram.params_.queueCapacity + 1);
    }

    /** Forget the pending pump event while work is queued. */
    static void
    dramLosePump(DramModel &dram)
    {
        dram.pumpScheduled_ = false;
    }

    /** Overfill channel 0's read queue past its capacity. */
    static void
    dramCtrlOverfillQueue(DramController &dram)
    {
        dram.channels_[0].readQ.resize(dram.params_.queueCapacity + 1);
    }

    /** Forget channel 0's pump event while its work is queued. */
    static void
    dramCtrlLosePump(DramController &dram)
    {
        dram.channels_[0].pumpScheduled = false;
    }

    /** Desync channel 0's measured occupancy from the statistic. */
    static void
    dramCtrlBreakChannelBusy(DramController &dram)
    {
        ++dram.channels_[0].busyCycles;
    }

    /** First channel with a queued read. */
    static DramController::Channel &
    dramCtrlBusyChannel(DramController &dram)
    {
        for (auto &c : dram.channels_)
            if (!c.readQ.empty())
                return c;
        panic("corrupter: controller read queues are empty");
    }

    /** Move a queued read onto a channel its block misroutes. */
    static void
    dramCtrlMisrouteRequest(DramController &dram)
    {
        auto &c = dramCtrlBusyChannel(dram);
        ++c.readSlots[c.readQ.front().slot].block;
    }

    /** Leave a queued read keyed to a row its block does not decode to. */
    static void
    dramCtrlStaleDecode(DramController &dram)
    {
        ++dramCtrlBusyChannel(dram).readQ.front().row;
    }

    /** Take a slot off channel 0's free stack without queueing a read. */
    static void
    dramCtrlLeakSlot(DramController &dram)
    {
        dram.channels_[0].freeSlots.pop_back();
    }

    /** Credit core 0 with a bus access the shared total never saw. */
    static void
    dramCtrlBreakCoreSum(DramController &dram)
    {
        ++dram.coreBusAccesses_[0];
    }

    /** Push the reader's buffer cursor past the buffered byte count. */
    static void
    traceReaderBufferOverrun(TraceReader &reader)
    {
        reader.bufPos_ = reader.bufLen_ + 1;
    }

    /** Claim more delivered records than the trace holds. */
    static void
    traceReaderCountOverflow(TraceReader &reader)
    {
        reader.opsRead_ = reader.header_.opCount + 1;
    }

    /** Make the decoder appear ahead of the bytes it was given. */
    static void
    traceReaderConsumedAheadOfFetched(TraceReader &reader)
    {
        reader.consumed_ = reader.fetched_ + 1;
    }
};

} // namespace fdp

#endif // FDP_TESTS_SUPPORT_CORRUPT_HH
