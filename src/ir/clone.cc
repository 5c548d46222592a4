#include "ir/clone.h"

#include <unordered_map>

#include "ir/module.h"

namespace bitspec
{

std::unique_ptr<Instruction>
cloneInstruction(const Instruction *inst)
{
    auto copy = std::make_unique<Instruction>(inst->op(), inst->type());
    copy->setName(inst->name());
    for (Value *op : inst->operands())
        copy->addOperand(op);
    for (BasicBlock *bb : inst->blockOperands())
        copy->addBlockOperand(bb);
    copy->setPred(inst->pred());
    copy->setCallee(inst->callee());
    copy->setSpeculative(inst->isSpeculative());
    copy->setGuard(inst->isGuard());
    copy->setSpecOrigBits(inst->specOrigBits());
    copy->setSrcLine(inst->srcLine());
    return copy;
}

CloneMap
cloneBlocks(const std::vector<BasicBlock *> &src_blocks, Function *dst,
            const std::string &suffix)
{
    CloneMap map;
    size_t insts = 0;
    for (BasicBlock *bb : src_blocks)
        insts += bb->insts().size();
    map.values.reserve(insts);
    map.blocks.reserve(src_blocks.size());

    // Pass 1: create empty clone blocks.
    for (BasicBlock *bb : src_blocks)
        map.blocks[bb] = dst->addBlock(bb->name() + suffix);

    // Pass 2: clone instructions, recording the value mapping.
    for (BasicBlock *bb : src_blocks) {
        BasicBlock *nbb = map.blocks[bb];
        for (const auto &inst : bb->insts()) {
            Instruction *copy = nbb->append(cloneInstruction(inst.get()));
            map.values[inst.get()] = copy;
        }
    }

    // Pass 3: remap operands and block operands through the clone map.
    for (BasicBlock *bb : src_blocks) {
        BasicBlock *nbb = map.blocks[bb];
        for (auto &inst : nbb->insts()) {
            for (size_t i = 0; i < inst->numOperands(); ++i)
                inst->setOperand(i, map.get(inst->operand(i)));
            for (size_t i = 0; i < inst->blockOperands().size(); ++i)
                inst->setBlockOperand(i, map.get(inst->blockOperand(i)));
        }
    }

    return map;
}

std::unique_ptr<Module>
cloneModule(const Module &src, CloneMap *map)
{
    auto dst = std::make_unique<Module>();
    std::unordered_map<const Global *, Global *> globals;
    for (const auto &g : src.globals()) {
        Global *ng = dst->addGlobal(g->name(), g->elemBits(),
                                    g->elemCount());
        ng->setAddress(g->address());
        ng->setData(g->data());
        globals.emplace(g.get(), ng);
    }
    // Every function exists before any body is copied: calls may
    // point forward.
    std::unordered_map<const Function *, Function *> funcs;
    for (const auto &f : src.functions()) {
        std::vector<Type> params;
        for (size_t i = 0; i < f->numArgs(); ++i)
            params.push_back(f->arg(i)->type());
        Function *nf = dst->addFunction(f->name(), f->retType(), params);
        for (size_t i = 0; i < f->numArgs(); ++i)
            nf->arg(i)->setName(f->arg(i)->name());
        funcs.emplace(f.get(), nf);
    }

    CloneMap all;
    for (const auto &f : src.functions()) {
        Function *nf = funcs.at(f.get());
        std::vector<BasicBlock *> blocks;
        for (const auto &bb : f->blocks())
            blocks.push_back(bb.get());
        CloneMap cm = cloneBlocks(blocks, nf, "");
        nf->copyNumberingFrom(*f);
        for (size_t i = 0; i < f->numArgs(); ++i)
            cm.values[f->arg(i)] = nf->arg(i);

        // cloneBlocks left every reference from outside the blocks
        // (arguments, pooled values, callees) on the original.
        for (const auto &bb : f->blocks()) {
            auto it = cm.get(bb.get())->insts().begin();
            for (const auto &inst : bb->insts()) {
                Instruction *ni = (it++)->get();
                ni->setId(inst->id());
                if (ni->callee())
                    ni->setCallee(funcs.at(ni->callee()));
                for (size_t i = 0; i < ni->numOperands(); ++i) {
                    Value *v = ni->operand(i);
                    switch (v->kind()) {
                      case ValueKind::Constant:
                        ni->setOperand(
                            i, dst->getConst(
                                   v->type(),
                                   static_cast<Constant *>(v)->value()));
                        break;
                      case ValueKind::GlobalRef:
                        ni->setOperand(
                            i, dst->getGlobalRef(globals.at(
                                   static_cast<GlobalRef *>(v)->global())));
                        break;
                      case ValueKind::Argument:
                        ni->setOperand(i, cm.get(v));
                        break;
                      case ValueKind::Instruction:
                        break;
                    }
                }
            }
        }

        // A squeezed function's regions, remapped onto the copy.
        for (const auto &sr : f->specRegions()) {
            SpecRegion *nr = nf->addSpecRegion();
            *nr = *sr;
            for (BasicBlock *&bb : nr->blocks)
                bb = cm.get(bb);
            nr->handler = cm.get(nr->handler);
            for (const Instruction *&check : nr->checks)
                check = static_cast<const Instruction *>(
                    cm.get(const_cast<Instruction *>(check)));
        }

        if (map) {
            all.values.merge(cm.values);
            all.blocks.merge(cm.blocks);
        }
    }
    if (map)
        *map = std::move(all);
    return dst;
}

} // namespace bitspec
