/**
 * @file
 * Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).
 */

#ifndef BITSPEC_ANALYSIS_DOMINATORS_H_
#define BITSPEC_ANALYSIS_DOMINATORS_H_

#include <cstddef>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/function.h"

namespace bitspec
{

/** Position of every instruction within its block, so same-block
 *  order is one lookup. Valid until the function is modified. */
class InstOrder
{
  public:
    explicit InstOrder(const Function &f);

    /** Does @p def come no later than @p user in @p bb's list? False
     *  when @p def is not in @p bb; true when only @p user is not. */
    bool comesFirst(const Instruction *def, const Instruction *user,
                    const BasicBlock *bb) const;

  private:
    std::unordered_map<const Instruction *,
                       std::pair<const BasicBlock *, size_t>>
        pos_;
};

/** Dominator tree over the reachable blocks of a function. */
class DomTree
{
  public:
    explicit DomTree(Function &f);

    /** Immediate dominator; the entry's idom is itself. */
    BasicBlock *idom(BasicBlock *bb) const;

    /** Does @p a dominate @p b? (Reflexive.) */
    bool dominates(BasicBlock *a, BasicBlock *b) const;

    /**
     * Does the definition @p def dominate the use site (@p user inside
     * @p use_block)? For phis the use site is the incoming block's end.
     * @p order, built on the unmodified function, decides same-block
     * uses.
     */
    bool dominatesUse(const Instruction *def, const Instruction *user,
                      size_t operand_index, const InstOrder &order) const;

    /** True iff @p bb was reachable when the tree was built. */
    bool isReachable(BasicBlock *bb) const
    {
        return idom_.count(bb) > 0;
    }

  private:
    std::map<BasicBlock *, BasicBlock *> idom_;
    std::map<BasicBlock *, unsigned> rpoIndex_;
};

} // namespace bitspec

#endif // BITSPEC_ANALYSIS_DOMINATORS_H_
