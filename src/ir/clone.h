/**
 * @file
 * Cloning utilities shared by the inliner, loop unroller and squeezer.
 */

#ifndef BITSPEC_IR_CLONE_H_
#define BITSPEC_IR_CLONE_H_

#include <unordered_map>
#include <vector>

#include "ir/function.h"

namespace bitspec
{

class Module;

/** Mapping from original values/blocks to their clones. */
struct CloneMap
{
    std::unordered_map<Value *, Value *> values;
    std::unordered_map<BasicBlock *, BasicBlock *> blocks;

    /** Mapped value, or the value itself when unmapped (e.g. constants,
     *  values defined outside the cloned region). */
    Value *
    get(Value *v) const
    {
        auto it = values.find(v);
        return it == values.end() ? v : it->second;
    }

    BasicBlock *
    get(BasicBlock *bb) const
    {
        auto it = blocks.find(bb);
        return it == blocks.end() ? bb : it->second;
    }
};

/**
 * Clone @p src_blocks into @p dst (which may equal the source function),
 * remapping operands and phi incoming blocks through the returned map.
 * Block names get @p suffix appended. References to values or blocks
 * outside @p src_blocks are left pointing at the originals.
 */
CloneMap cloneBlocks(const std::vector<BasicBlock *> &src_blocks,
                     Function *dst, const std::string &suffix);

/** Clone a single instruction without inserting it anywhere. */
std::unique_ptr<Instruction> cloneInstruction(const Instruction *inst);

/**
 * Deep-copy @p src into a fresh Module: globals (data and addresses)
 * and functions (blocks, instructions, dense ids, block-name state,
 * speculative regions).
 * Operands are remapped into the copy's own constant and GlobalRef
 * pools, callees to the copied functions. The copy prints identically
 * and compiles to the same bytes; @p map (optional) receives every
 * original -> copy value and block pair.
 */
std::unique_ptr<Module> cloneModule(const Module &src,
                                    CloneMap *map = nullptr);

} // namespace bitspec

#endif // BITSPEC_IR_CLONE_H_
