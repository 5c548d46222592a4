/**
 * @file
 * Linear-scan register allocation over 32-bit registers and 8-bit
 * slices (paper §3.3.3).
 *
 * All slices are exposed as subregisters: a W vreg occupies all four
 * slices of r4..r11; a B vreg occupies a single slice, preferring
 * registers that already hold other slices (register packing — the
 * mechanism behind Fig. 10/11). Liveness uses the SMIR predecessor
 * rule: blocks of a speculative region are predecessors of their
 * handler, so values the handler consumes stay allocated across the
 * whole region. Values defined inside a region are dead at the
 * handler (Theorem 3.1), which makes spill placement safe without
 * further constraints.
 */

#ifndef BITSPEC_BACKEND_REGALLOC_H_
#define BITSPEC_BACKEND_REGALLOC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "backend/mir.h"

namespace bitspec
{

/** One vreg's live interval: sorted, disjoint [first, last] ranges of
 *  instruction positions, numbered in block order. */
struct LiveInterval
{
    uint32_t vreg = 0;
    bool isSlice = false;
    std::vector<std::pair<int, int>> segs;
};

/** The intervals allocateRegisters scans for @p mf, in scan order
 *  (by start). */
std::vector<LiveInterval> liveIntervals(const MachFunction &mf);

/** Allocate @p mf in place; returns spill statistics. */
BackendStats allocateRegisters(MachFunction &mf);

} // namespace bitspec

#endif // BITSPEC_BACKEND_REGALLOC_H_
