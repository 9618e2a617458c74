#include "snap/machine_snapshot.hh"

#include <sstream>

#include "sim/check.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace fdp
{

std::string
machineGeometry(const MachineParams &machine, const CoreParams &core)
{
    std::ostringstream s;
    s << "l1{" << machine.l1.sizeBytes << "," << machine.l1.assoc
      << ",lat=" << machine.l1Latency << "}"
      << " l2{" << machine.l2.sizeBytes << "," << machine.l2.assoc
      << ",lat=" << machine.l2Latency << "}"
      << " mshrs=" << machine.l2Mshrs
      << " reserve=" << machine.mshrDemandReserve
      << " pfq=" << machine.prefetchQueueCap
      << " dram{banks=" << machine.dram.banks
      << ",row=" << machine.dram.rowBlocks
      << ",hit=" << machine.dram.accessRowHit
      << ",conf=" << machine.dram.accessRowConflict
      << ",cas=" << machine.dram.casToCASCycles
      << ",bus=" << machine.dram.busBytesPerCycle
      << ",ret=" << machine.dram.returnCycles
      << ",q=" << machine.dram.queueCapacity
      << ",wbhw=" << machine.dram.writebackHighWater << "}";
    // Geometry strings of flat-DRAM machines predate the controller, so
    // the controller block is appended only when it is selected: old
    // fdpsnap images keep loading against the default configuration.
    if (machine.dramCtrl.kind == DramKind::Controller)
        s << " dramctl{ch=" << machine.dramCtrl.channels
          << ",rowpol=" << static_cast<int>(machine.dramCtrl.rowPolicy)
          << ",fdpprio=" << (machine.dramCtrl.fdpPriority ? 1 : 0)
          << ",lowdrop=" << machine.dramCtrl.lowTierDropAt
          << ",qoscap=" << machine.dramCtrl.qosInFlightCap
          << ",qosw=" << (machine.dramCtrl.qosWeighted ? 1 : 0) << "}";
    if (machine.prefetchCache.enabled)
        s << " pcache{" << machine.prefetchCache.sizeBytes << ","
          << machine.prefetchCache.assoc << "}";
    else
        s << " pcache{off}";
    s << " wb=" << (machine.modelWritebacks ? 1 : 0)
      << " core{rob=" << core.robSize << ",w=" << core.width << "}";
    return s.str();
}

void
drainToQuiesce(EventQueue &events, MemorySystem &mem)
{
    while (!mem.quiesced()) {
        const Cycle nxt = events.nextEventCycle();
        FDP_ASSERT(nxt != kNoCycle,
                   "drainToQuiesce: memory busy with no pending events");
        events.serviceUntil(nxt);
    }
}

namespace
{

/** The snap library's own marker naming the saved prefetcher (or
 *  "none"), so restores can detect mismatches and forks can skip the
 *  prefetcher section without knowing its name in advance. */
constexpr const char *kPfMarker = "pf";

Snapshottable &
snapshottableWorkload(Workload &workload)
{
    auto *s = dynamic_cast<Snapshottable *>(&workload);
    if (s == nullptr)
        fatal("workload %s does not support snapshots (recording "
              "frontends never do; re-run without snapshotting)",
              workload.name());
    return *s;
}

} // namespace

SnapshotImageBody
captureMachine(const SnapshotParts &parts)
{
    SnapWriter w;
    parts.events.saveState(w);
    for (const SnapshotParts::Core &c : parts.cores) {
        snapshottableWorkload(c.workload).saveState(w);
        c.core.saveState(w);
    }
    parts.mem.saveState(w);
    for (const SnapshotParts::Core &c : parts.cores) {
        c.fdp.saveState(w);
        w.beginSection(kPfMarker);
        w.putString(c.prefetcher ? c.prefetcher->snapName() : "none");
        w.endSection();
        if (c.prefetcher)
            c.prefetcher->saveState(w);
    }
    for (const StatGroup *g : parts.stats)
        g->saveState(w);
    return SnapshotImageBody{w.bytes(), w.sectionCount()};
}

void
restoreMachine(const SnapshotParts &parts,
               const std::vector<std::uint8_t> &body, RestoreMode mode)
{
    SnapReader r(body);
    parts.events.loadState(r);
    for (const SnapshotParts::Core &c : parts.cores) {
        snapshottableWorkload(c.workload).loadState(r);
        c.core.loadState(r);
    }
    parts.mem.loadState(r);

    // A forked cell rebuilds policy state from its own configuration at
    // the measurement boundary; it skips the saved policy, prefetcher
    // and stats sections, still validating the frame structure.
    const bool fork = mode == RestoreMode::Fork;
    for (const SnapshotParts::Core &c : parts.cores) {
        if (fork) {
            r.skipSection("fdp");
            r.skipSection("fdp/counters");
            r.skipSection("fdp/filter");
        } else {
            c.fdp.loadState(r);
        }

        r.openSection(kPfMarker);
        const std::string pf_name = r.getString();
        r.closeSection();
        if (fork) {
            if (pf_name != "none")
                r.skipSection(pf_name);
            continue;
        }
        const std::string have =
            c.prefetcher ? c.prefetcher->snapName() : "none";
        if (pf_name != have)
            fatal("snapshot: machine has prefetcher %s, snapshot has %s",
                  have.c_str(), pf_name.c_str());
        if (c.prefetcher)
            c.prefetcher->loadState(r);
    }

    for (StatGroup *g : parts.stats) {
        if (fork)
            r.skipSection(g->snapName());
        else
            g->loadState(r);
    }

    if (!r.atEnd())
        fatal("snapshot: trailing bytes after the last section");
}

} // namespace fdp
