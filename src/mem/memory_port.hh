/**
 * @file
 * The demand-side interface a core uses to reach its memory hierarchy.
 *
 * OooCore issues loads and stores through this port, so the same core
 * model runs against a one-core MemorySystem (which is core 0's port
 * itself) and against one per-core port of an N-core MemorySystem
 * without knowing which it is attached to.
 */

#ifndef FDP_MEM_MEMORY_PORT_HH
#define FDP_MEM_MEMORY_PORT_HH

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace fdp
{

/** Abstract demand-access endpoint for one core. */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /**
     * Demand load/store at cycle @p now. @p done fires with the cycle
     * the data is available (loads); stores invoke it too but the core
     * does not wait on them.
     */
    virtual void demandAccess(Addr addr, Addr pc, bool isWrite, Cycle now,
                              DoneFn done) = 0;
};

} // namespace fdp

#endif // FDP_MEM_MEMORY_PORT_HH
