/**
 * @file
 * Whole-machine snapshot capture and restore.
 *
 * A machine snapshot is the concatenation of every stateful component's
 * Snapshottable section, in the fixed order captureMachine() writes
 * them: events, each core's workload and core, the memory hierarchy,
 * each core's FDP controller and prefetcher (behind a "pf" marker
 * naming it), and the stat groups (DESIGN.md Section 16). Snapshots
 * are only taken at quiesce points — no misses in flight, no queued
 * requests, empty ROBs — because in-flight transactions hold closures
 * that cannot be serialized; callers reach such a point with
 * drainToQuiesce().
 *
 * Restores come in two flavors:
 *  - RestoreMode::Full rebuilds every component and requires the
 *    restoring machine to match the saving one exactly (same geometry,
 *    same prefetcher);
 *  - RestoreMode::Fork restores only the config-neutral prefix (events,
 *    workloads, cores, memory hierarchy) and skips the FDP, prefetcher,
 *    and stats sections, because a warm-forked cell rebuilds those from
 *    its own configuration at the measurement boundary.
 *
 * The warm-fork determinism contract (DESIGN.md Section 16): warming a
 * neutral machine, snapshotting, and fork-restoring into a fresh
 * per-config machine is bit-identical to warming that machine cold —
 * both sides then apply the same boundary reset and measured run.
 */

#ifndef FDP_SNAP_MACHINE_SNAPSHOT_HH
#define FDP_SNAP_MACHINE_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/fdp_controller.hh"
#include "cpu/ooo_core.hh"
#include "mem/memory_system.hh"
#include "prefetch/prefetcher.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace fdp
{

/** Non-owning view of the components one machine snapshot covers. */
struct SnapshotParts
{
    /** One core's components. */
    struct Core
    {
        Workload &workload;
        OooCore &core;
        FdpController &fdp;
        Prefetcher *prefetcher;  ///< nullptr when the core has none
    };

    /** Every core of a machine, in core-id order, and its stat groups
     *  in capture order. */
    SnapshotParts(EventQueue &events, MemorySystem &mem,
                  std::vector<Core> cores, std::vector<StatGroup *> stats)
        : events(events), mem(mem), cores(std::move(cores)),
          stats(std::move(stats))
    {
    }

    /** A one-core machine with its fdp, mem and core stat groups: the
     *  form the repository benchmark (perfbench/) builds. ROADMAP lists
     *  it for removal at that benchmark's next change. */
    SnapshotParts(EventQueue &events, Workload &workload, OooCore &core,
                  MemorySystem &mem, FdpController &fdp,
                  Prefetcher *prefetcher, StatGroup &fdpStats,
                  StatGroup &memStats, StatGroup &coreStats)
        : SnapshotParts(events, mem, {{workload, core, fdp, prefetcher}},
                        {&fdpStats, &memStats, &coreStats})
    {
    }

    EventQueue &events;
    MemorySystem &mem;
    std::vector<Core> cores;
    std::vector<StatGroup *> stats;
};

/** How much of a snapshot body restoreMachine() consumes. */
enum class RestoreMode : std::uint8_t
{
    Full,  ///< every section; machine must match the saved one exactly
    Fork,  ///< config-neutral prefix only; FDP/prefetcher/stats skipped
};

/**
 * Canonical one-line description of the structural machine shape. Two
 * machines exchange snapshots only when their geometry strings match;
 * FDP policy and prefetcher parameters are deliberately excluded, so
 * every cell of a policy sweep shares one warm snapshot.
 */
std::string machineGeometry(const MachineParams &machine,
                            const CoreParams &core);

/**
 * Service events until the memory system is quiesced. The caller's
 * core must be between runs (nothing left to dispatch), so every
 * pending event belongs to an in-flight miss that drains in bounded
 * time.
 */
void drainToQuiesce(EventQueue &events, MemorySystem &mem);

/** Byte body + section count, as captureMachine produces and
 *  restoreMachine consumes. */
struct SnapshotImageBody
{
    std::vector<std::uint8_t> bytes;
    std::uint32_t sectionCount = 0;
};

/**
 * Serialize the full machine into a snapshot body. The machine must be
 * quiesced (the per-component saveState asserts enforce it) and the
 * workload must be Snapshottable — synthetic and trace frontends are;
 * recording frontends deliberately are not.
 */
SnapshotImageBody captureMachine(const SnapshotParts &parts);

/**
 * Restore @p parts from a snapshot body. The machine must already be
 * constructed (with matching geometry — the caller checks the header's
 * geometry string) and idle. Fatal on any structural mismatch.
 */
void restoreMachine(const SnapshotParts &parts,
                    const std::vector<std::uint8_t> &body,
                    RestoreMode mode);

} // namespace fdp

#endif // FDP_SNAP_MACHINE_SNAPSHOT_HH
