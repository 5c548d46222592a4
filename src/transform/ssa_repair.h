/**
 * @file
 * SSA repair after introducing alternate definitions of a value.
 *
 * When a misspeculation handler re-enters CFG_orig at BB_orig, every
 * value live into BB_orig gains a second definition (the phi of
 * Eq. 8 merging the handler's extension with the original). Uses
 * reachable from any BB_orig must then be rewritten, inserting join
 * phis on demand — the classic SSAUpdater problem, generalised here
 * to many handlers feeding many re-entry blocks for one value.
 */

#ifndef BITSPEC_TRANSFORM_SSA_REPAIR_H_
#define BITSPEC_TRANSFORM_SSA_REPAIR_H_

#include <vector>

#include "ir/module.h"

namespace bitspec
{

/** One re-entry point for a repaired value. */
struct AltDef
{
    /** Block entered from the handler (BB_orig). A phi is created at
     *  its top. */
    BasicBlock *block = nullptr;
    /** The handler predecessor of @p block. */
    BasicBlock *handlerPred = nullptr;
    /** Value flowing in from the handler (the Eq. 8 extension). */
    Value *handlerValue = nullptr;
};

/** Every re-entry point of one repaired value. */
struct SSARepair
{
    Value *orig = nullptr;
    std::vector<AltDef> alts;
};

/**
 * Rewrite uses of each SSARepair::orig so that paths flowing through
 * any of its AltDef blocks observe the merged value, inserting phis at
 * joins on demand. Each AltDef gets a phi at the top of its block
 * whose incoming from @p handlerPred is @p handlerValue and whose
 * other incomings are the reaching definitions. Types must all match.
 *
 * The repairs run in order, with the same result as one call per
 * value, but the predecessor map and the use lists of the repaired
 * values are built once for the whole batch. That is sound because a
 * repair only inserts phis reading its own value, its merges and its
 * handler values: it adds no edge and adds or removes no use of
 * another value in the batch (checked as each use is rewritten).
 * Each value may appear at most once.
 */
void repairSSA(Function &f, const std::vector<SSARepair> &repairs);

/** A batch of one: repair @p orig_def alone. */
void repairSSA(Function &f, Value *orig_def,
               const std::vector<AltDef> &alts);

} // namespace bitspec

#endif // BITSPEC_TRANSFORM_SSA_REPAIR_H_
