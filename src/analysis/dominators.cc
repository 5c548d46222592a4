#include "analysis/dominators.h"

#include "analysis/cfg.h"
#include "support/error.h"

namespace bitspec
{

DomTree::DomTree(Function &f)
{
    auto rpo = reversePostOrder(f);
    for (unsigned i = 0; i < rpo.size(); ++i)
        rpoIndex_[rpo[i]] = i;

    auto preds = f.predecessors();
    BasicBlock *entry = f.entry();
    idom_[entry] = entry;

    auto intersect = [&](BasicBlock *a, BasicBlock *b) {
        while (a != b) {
            while (rpoIndex_.at(a) > rpoIndex_.at(b))
                a = idom_.at(a);
            while (rpoIndex_.at(b) > rpoIndex_.at(a))
                b = idom_.at(b);
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (BasicBlock *bb : rpo) {
            if (bb == entry)
                continue;
            BasicBlock *new_idom = nullptr;
            for (BasicBlock *p : preds[bb]) {
                if (!idom_.count(p))
                    continue; // Not yet processed / unreachable.
                new_idom = new_idom ? intersect(new_idom, p) : p;
            }
            if (!new_idom)
                continue;
            auto it = idom_.find(bb);
            if (it == idom_.end() || it->second != new_idom) {
                idom_[bb] = new_idom;
                changed = true;
            }
        }
    }
}

BasicBlock *
DomTree::idom(BasicBlock *bb) const
{
    auto it = idom_.find(bb);
    bsAssert(it != idom_.end(), "idom: unreachable block " + bb->name());
    return it->second;
}

bool
DomTree::dominates(BasicBlock *a, BasicBlock *b) const
{
    if (!isReachable(a) || !isReachable(b))
        return false;
    // Walk b's idom chain towards the entry.
    BasicBlock *cur = b;
    for (;;) {
        if (cur == a)
            return true;
        BasicBlock *up = idom_.at(cur);
        if (up == cur)
            return false; // Reached the entry.
        cur = up;
    }
}

InstOrder::InstOrder(const Function &f)
{
    for (const auto &bb : f.blocks()) {
        size_t i = 0;
        for (const auto &inst : bb->insts())
            pos_.emplace(inst.get(), std::make_pair(bb.get(), i++));
    }
}

bool
InstOrder::comesFirst(const Instruction *def, const Instruction *user,
                      const BasicBlock *bb) const
{
    auto d = pos_.find(def);
    if (d == pos_.end() || d->second.first != bb)
        return false;
    auto u = pos_.find(user);
    if (u == pos_.end() || u->second.first != bb)
        return true;
    return d->second.second <= u->second.second;
}

bool
DomTree::dominatesUse(const Instruction *def, const Instruction *user,
                      size_t operand_index, const InstOrder &order) const
{
    BasicBlock *def_bb = def->parent();
    if (user->isPhi()) {
        // Use happens at the end of the incoming block.
        BasicBlock *incoming = user->blockOperand(operand_index);
        return dominates(def_bb, incoming);
    }
    BasicBlock *use_bb = user->parent();
    if (def_bb != use_bb)
        return dominates(def_bb, use_bb);
    // Same block: def must come first.
    return order.comesFirst(def, user, def_bb);
}

} // namespace bitspec
