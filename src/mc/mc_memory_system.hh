/**
 * @file
 * Former name of the N-core memory hierarchy, which is now
 * MemorySystem (mem/memory_system.hh) for any core count.
 */

#ifndef FDP_MC_MC_MEMORY_SYSTEM_HH
#define FDP_MC_MC_MEMORY_SYSTEM_HH

#include "mem/memory_system.hh"

namespace fdp
{

using McMemorySystem = MemorySystem;

} // namespace fdp

#endif // FDP_MC_MC_MEMORY_SYSTEM_HH
