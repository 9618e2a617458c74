/**
 * @file
 * The memory hierarchy of paper Table 3 for N >= 1 cores (DESIGN.md
 * §13): a private L1D and Prefetch Request Queue per core over ONE
 * shared L2, ONE shared MSHR file, and ONE DRAM backend, with each
 * core's L2-side prefetcher observed by that core's FDP controller.
 *
 * Responsibilities:
 *  - demand path: L1 lookup, L2 lookup, MSHR allocate/merge, DRAM access,
 *    fill into L2 (at the FDP-selected stack position for prefetches) and
 *    into L1 (for demands);
 *  - prefetch path: run the core's prefetcher on every demand L2 access,
 *    filter candidates against L2 contents / prefetch cache / MSHRs /
 *    queue capacity, issue survivors at prefetch (lowest) priority;
 *  - late-prefetch detection: a demand that merges with an in-flight
 *    prefetch MSHR promotes it to demand priority and reports it late;
 *  - pollution bookkeeping: demand-fetched victims of prefetch fills set
 *    the pollution filter, prefetch fills clear it, demand misses test it;
 *  - optional prefetch cache (Section 5.7, one core only): prefetch fills
 *    bypass the L2.
 *
 * Every request carries its CoreId so the shared structures attribute
 * costs to cores:
 *  - L2 lines carry the installing core; pollution is charged to the
 *    prefetching core and reported to the victim line's owner core;
 *  - MSHR entries carry the allocating core; a demand that merges into
 *    another core's in-flight prefetch retags the entry to the
 *    demanding core (the late-prefetch credit stays with the issuer);
 *  - DRAM counts bus accesses per core (bandwidth share).
 *
 * Shared-L2 evictions tick EVERY controller's sampling interval, so all
 * cores' intervals stay synchronized (an audited invariant) and
 * end-of-interval audits see the whole machine at one cadence.
 */

#ifndef FDP_MEM_MEMORY_SYSTEM_HH
#define FDP_MEM_MEMORY_SYSTEM_HH

#include <array>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/fdp_controller.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory_port.hh"
#include "mem/mshr.hh"
#include "mem/prefetch_cache.hh"
#include "prefetch/prefetcher.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace fdp
{

/** Paper Table 3 machine configuration (memory side). */
struct MachineParams
{
    CacheParams l1{"L1D", 64 * 1024, 4};
    Cycle l1Latency = 2;
    CacheParams l2{"L2", 1024 * 1024, 16};
    Cycle l2Latency = 10;
    std::size_t l2Mshrs = 128;
    /** MSHRs held back from prefetches so demands can always allocate. */
    std::size_t mshrDemandReserve = 16;
    /** Prefetch Request Queue capacity (paper Section 4.1: 128). */
    std::size_t prefetchQueueCap = 128;
    DramParams dram;
    /** DRAM backend selection + controller knobs (DramKind::Flat keeps
     *  the Table 3 flat bus model, the golden baseline). */
    DramCtrlParams dramCtrl;
    PrefetchCacheParams prefetchCache;
    bool modelWritebacks = true;
};

/** Private L1s + shared L2 + shared MSHRs + shared DRAM. */
class MemorySystem : public Auditable, public MemoryPort, public Snapshottable
{
  public:
    using DoneFn = fdp::DoneFn;

    /**
     * One-core machine. Core 0's share of every shared counter is the
     * shared total itself, so it keeps no per-core columns for them.
     *
     * @param params  machine configuration
     * @param events  shared event queue
     * @param pf      L2 prefetcher (nullptr disables prefetching)
     * @param fdp     feedback controller (always present; it observes
     *                even when its dynamic policies are disabled)
     * @param stats   group receiving memory-side statistics
     */
    MemorySystem(const MachineParams &params, EventQueue &events,
                 Prefetcher *pf, FdpController &fdp, StatGroup &stats);

    /**
     * N-core machine, one entry per core in each vector.
     *
     * @param params       machine configuration; the prefetch cache is
     *                     rejected when there is more than one core
     * @param events       shared event queue
     * @param prefetchers  one per core (entries may be null)
     * @param controllers  one per core, never null
     * @param sharedStats  group receiving the shared totals
     * @param coreStats    one group per core for that core's share of
     *                     every shared counter
     */
    MemorySystem(const MachineParams &params, EventQueue &events,
                 const std::vector<Prefetcher *> &prefetchers,
                 const std::vector<FdpController *> &controllers,
                 StatGroup &sharedStats,
                 const std::vector<StatGroup *> &coreStats);

    /** Demand load/store by core 0 (the MemoryPort of a one-core
     *  machine). */
    void
    demandAccess(Addr addr, Addr pc, bool isWrite, Cycle now,
                 DoneFn done) override
    {
        demandAccess(kCore0, addr, pc, isWrite, now, std::move(done));
    }

    /**
     * Demand load/store by @p core at cycle @p now. @p done fires with
     * the cycle the data is available (loads); stores invoke it too but
     * the core does not wait on them.
     */
    void demandAccess(CoreId core, Addr addr, Addr pc, bool isWrite,
                      Cycle now, DoneFn done);

    /** MemoryPort view binding @p core, for driving an OooCore. */
    MemoryPort &port(CoreId core);

    unsigned numCores() const { return numCores_; }

    /** True when no misses are in flight and no requests are queued. */
    bool quiesced() const;

    /**
     * Attach (or detach, with nullptr) @p core's L2 prefetcher. Used by
     * the warm-up boundary: the warm-up phase runs with no prefetcher so
     * the warmed state is independent of the prefetch configuration.
     */
    void
    setPrefetcher(Prefetcher *pf, CoreId core = kCore0)
    {
        prefetchers_[core.index()] = pf;
    }

    /** No-op: counters are written straight into their statistics. The
     *  repository benchmark still calls it; its next change removes
     *  those calls and then this member. */
    void flushStats() {}

    /** Zero every per-core breakdown: DRAM's per-core attribution and
     *  each core's share of the memory-side counters. Called at every
     *  measurement boundary, next to the reset of the shared group. */
    void resetAttribution();

    /** Data-bus utilization over the last closed measurement window,
     *  in [0, 1], measured from the backend's per-channel data-bus
     *  occupancy (PrefetchObservation::busUtil; DESIGN.md §17/18). */
    double busUtilization() const { return busUtil_; }

    /** Cycles per bus-utilization measurement window. */
    static constexpr Cycle kBusUtilWindow = 4096;

    const SetAssocCache &l1(CoreId c = kCore0) const { return core(c).l1; }
    const SetAssocCache &l2() const { return l2_; }
    DramBackend &dram() { return *dram_; }
    const DramBackend &dram() const { return *dram_; }
    const MachineParams &params() const { return params_; }

    /// @name Lifetime statistics, all cores together
    /// @{
    std::uint64_t demandAccesses() const { return total(kDemandAccesses); }
    std::uint64_t l1Misses() const { return total(kL1Misses); }
    std::uint64_t l2Misses() const { return total(kL2Misses); }
    std::uint64_t prefetchesIssued() const { return total(kPrefIssued); }
    std::uint64_t prefetchCacheHits() const { return total(kPcacheHits); }
    std::uint64_t mshrStalls() const { return total(kMshrStalls); }

    /** Average cycles from demand-miss MSHR allocation to fill. */
    double avgDemandMissLatency() const;
    /// @}

    /// @name Per-core lifetime statistics
    /// @{
    std::uint64_t
    demandAccesses(CoreId c) const
    {
        return column(c, kDemandAccesses);
    }
    std::uint64_t l2Misses(CoreId c) const { return column(c, kL2Misses); }
    std::uint64_t
    mshrStalls(CoreId c) const
    {
        return column(c, kMshrStalls);
    }
    /** Demand blocks this core's prefetch fills evicted (any victim). */
    std::uint64_t
    pollutionInflicted(CoreId c) const
    {
        return column(c, kPollutionInflicted);
    }
    /** This core's demand blocks evicted by OTHER cores' prefetches. */
    std::uint64_t
    crossPollutionSuffered(CoreId c) const
    {
        return column(c, kCrossPollutionSuffered);
    }
    /// @}

    /**
     * Invariants: per-core structures within capacity; core-id tags of
     * queued demands valid; every per-core counter column sums exactly
     * to its shared total (stat-scoping conservation); all controllers'
     * sampling intervals synchronized; plus the structural audits of
     * the L1s, the L2, the MSHR file, the DRAM model, and the prefetch
     * cache when configured.
     */
    void audit() const override;
    const char *auditName() const override { return "memory_system"; }

    /**
     * Serialize the hierarchy: a "mem" marker section (asserting the
     * transient queues — MSHRs, stalled demands, every core's PRQ, the
     * bus queues — are empty, i.e. quiesced()), then each core's L1 in
     * core-id order, the L2, MSHR file, DRAM, and optional prefetch
     * cache. Counters travel in the stat groups, not here.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "mem"; }

  private:
    friend struct AuditCorrupter;

    /**
     * Memory-side event counters, in statistic registration order. The
     * first kNumTotals have a shared total plus, with perCoreColumns_,
     * a column per core (the stat-scoping audit checks the columns sum
     * to the total); the rest are per-core only. pcache_hits is
     * registered in the shared group of a one-core machine only, never
     * in a per-core group.
     */
    enum Counter : unsigned
    {
        kDemandAccesses,
        kL1Hits,
        kL1Misses,
        kL2Hits,
        kL2Misses,
        kMshrMerges,
        kMshrStalls,
        kPrefIssued,
        kPrefDropL2Hit,
        kPrefDropInFlight,
        kPrefDropQueueFull,
        kPcacheHits,
        kWritebacks,
        kDemandMissFills,
        kDemandMissCycles,
        kNumTotals,
        kL2EvictionsCaused = kNumTotals,
        kPollutionInflicted,
        kCrossPollutionSuffered,
        kNumCounters
    };

    template <std::size_t N>
    using Counters = std::array<ScalarStat, N>;

    /** Counters 0..N-1 registered in @p group (null: unregistered),
     *  pcache_hits only when @p withPcacheHits. */
    template <std::size_t... K>
    static Counters<sizeof...(K)>
    makeCounters(StatGroup *group, bool withPcacheHits,
                 std::index_sequence<K...>);

    /** MemoryPort adapter binding one CoreId. */
    class Port : public MemoryPort
    {
      public:
        Port(MemorySystem &sys, CoreId core) : sys_(sys), core_(core) {}
        void
        demandAccess(Addr addr, Addr pc, bool isWrite, Cycle now,
                     DoneFn done) override
        {
            sys_.demandAccess(core_, addr, pc, isWrite, now,
                              std::move(done));
        }

      private:
        MemorySystem &sys_;
        CoreId core_;
    };

    struct PendingDemand
    {
        CoreId core;
        BlockAddr block;
        bool isWrite;
        DoneFn done;
    };

    /** One core's private structures and its share of every counter. */
    struct PerCore
    {
        PerCore(const MachineParams &params, unsigned numCores,
                StatGroup *stats);

        SetAssocCache l1;
        std::deque<BlockAddr> prefetchQueue;  ///< the Prefetch Request Queue
        Counters<kNumCounters> counters;
    };

    PerCore &core(CoreId c) { return perCore_[c.index()]; }
    const PerCore &core(CoreId c) const { return perCore_[c.index()]; }

    std::uint64_t total(Counter k) const { return totals_[k].value(); }
    std::uint64_t
    column(CoreId c, Counter k) const
    {
        return k < kNumTotals && !perCoreColumns_
                   ? total(k)
                   : core(c).counters[k].value();
    }

    /** Count @p n events of shared counter @p k against the shared
     *  total and @p self's column. */
    void
    count(PerCore &self, Counter k, std::uint64_t n = 1)
    {
        totals_[k] += n;
        if (perCoreColumns_)
            self.counters[k] += n;
    }

    /** Run @p core's prefetcher on a demand L2 access and queue its
     *  candidates. */
    void observeAndIssue(CoreId core, const PrefetchObservation &obs,
                         Cycle now);

    /** Close the bus-utilization window if @p now has moved past it. */
    void updateBusUtil(Cycle now);

    /**
     * Drain @p core's Prefetch Request Queue into the MSHRs / bus queue
     * as capacity allows (prefetches wait here rather than being lost).
     */
    void drainPrefetchQueue(CoreId core, Cycle now);

    /** Allocate the MSHR and send a demand miss to DRAM. */
    void startDemandMiss(CoreId core, BlockAddr block, bool isWrite,
                         Cycle now, DoneFn done);

    /** A demand joins the in-flight MSHR entry @p e for its block. */
    void mergeIntoMshr(CoreId core, MshrEntry &e, BlockAddr block,
                       bool isWrite, DoneFn done);

    /** DRAM fill arrived for @p block. */
    void onFill(BlockAddr block, Cycle fillCycle);

    /** Install a fill by core @p by in the L2, handling victim
     *  bookkeeping. */
    void insertL2Fill(CoreId by, BlockAddr block, bool prefBit, bool dirty,
                      Cycle now);

    /** Install a block in @p core's L1, handling dirty-victim
     *  writeback. */
    void fillL1(CoreId core, BlockAddr block, bool isWrite, Cycle now);

    /** Admit MSHR-stalled demands after a deallocation. */
    void admitPending(Cycle now);

    MachineParams params_;
    unsigned numCores_;
    std::vector<Prefetcher *> prefetchers_;
    std::vector<FdpController *> fdp_;
    /** False on a one-core machine built without a per-core group: its
     *  columns of the shared counters would only repeat the totals. */
    bool perCoreColumns_;

    /** deque: ScalarStat registers into its group, so no relocation. */
    std::deque<PerCore> perCore_;
    std::deque<Port> ports_;

    SetAssocCache l2_;
    MshrFile mshrs_;
    std::unique_ptr<DramBackend> dram_;
    std::unique_ptr<PrefetchCache> pcache_;

    /// @name Bus-utilization window
    /// Recomputed from busBusyCycles() deltas every kBusUtilWindow
    /// cycles; a pure function of simulated time, so deterministic.
    /// One shared bus, so one shared window.
    /// @{
    double busUtil_ = 0.0;
    Cycle busWindowStart_ = 0;
    std::uint64_t busWindowBusy_ = 0;
    /// @}

    std::deque<PendingDemand> mshrWaitQ_;
    std::vector<BlockAddr> pfCandidates_;  ///< scratch, reused per access
    std::vector<DoneFn> fillWaiters_;      ///< scratch, reused per fill

    Counters<kNumTotals> totals_;
};

} // namespace fdp

#endif // FDP_MEM_MEMORY_SYSTEM_HH
