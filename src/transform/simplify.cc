#include "transform/simplify.h"

#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/cfg.h"
#include "support/bits.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

/** Fold a binary/compare/cast op over constants. Returns false when the
 *  op is not safely foldable (division, unknown). */
bool
foldOp(const Instruction &inst, uint64_t &out)
{
    unsigned bits = inst.type().bits;
    auto cval = [&](size_t i) {
        return static_cast<Constant *>(inst.operand(i))->value();
    };

    switch (inst.op()) {
      case Opcode::Add:
        out = truncTo(cval(0) + cval(1), bits);
        return true;
      case Opcode::Sub:
        out = truncTo(cval(0) - cval(1), bits);
        return true;
      case Opcode::Mul:
        out = truncTo(cval(0) * cval(1), bits);
        return true;
      case Opcode::And:
        out = cval(0) & cval(1);
        return true;
      case Opcode::Or:
        out = cval(0) | cval(1);
        return true;
      case Opcode::Xor:
        out = cval(0) ^ cval(1);
        return true;
      case Opcode::Shl: {
        uint64_t amt = cval(1);
        out = amt >= bits ? 0 : truncTo(cval(0) << amt, bits);
        return true;
      }
      case Opcode::LShr: {
        uint64_t amt = cval(1);
        out = amt >= bits ? 0 : (cval(0) >> amt);
        return true;
      }
      case Opcode::AShr: {
        uint64_t amt = cval(1);
        int64_t sa = static_cast<int64_t>(sextFrom(cval(0), bits));
        out = amt >= bits ? truncTo(sa < 0 ? ~0ULL : 0, bits)
                          : truncTo(static_cast<uint64_t>(sa >> amt), bits);
        return true;
      }
      case Opcode::ICmp: {
        unsigned obits = inst.operand(0)->type().bits;
        uint64_t ua = truncTo(cval(0), obits), ub = truncTo(cval(1), obits);
        int64_t sa = static_cast<int64_t>(sextFrom(ua, obits));
        int64_t sb = static_cast<int64_t>(sextFrom(ub, obits));
        bool r = false;
        switch (inst.pred()) {
          case CmpPred::EQ: r = ua == ub; break;
          case CmpPred::NE: r = ua != ub; break;
          case CmpPred::ULT: r = ua < ub; break;
          case CmpPred::ULE: r = ua <= ub; break;
          case CmpPred::UGT: r = ua > ub; break;
          case CmpPred::UGE: r = ua >= ub; break;
          case CmpPred::SLT: r = sa < sb; break;
          case CmpPred::SLE: r = sa <= sb; break;
          case CmpPred::SGT: r = sa > sb; break;
          case CmpPred::SGE: r = sa >= sb; break;
        }
        out = r ? 1 : 0;
        return true;
      }
      case Opcode::ZExt:
        out = zextFrom(cval(0), inst.operand(0)->type().bits);
        return true;
      case Opcode::SExt:
        out = truncTo(sextFrom(cval(0), inst.operand(0)->type().bits),
                      bits);
        return true;
      case Opcode::Trunc:
        out = truncTo(cval(0), bits);
        return true;
      case Opcode::Select:
        out = cval(0) != 0 ? truncTo(cval(1), bits)
                           : truncTo(cval(2), bits);
        return true;
      default:
        return false;
    }
}

bool
isPhi(const Value *v)
{
    return v->isInstruction() && static_cast<const Instruction *>(v)->isPhi();
}

} // namespace

unsigned
simplifyTrivialPhis(Function &f)
{
    // Uses of every phi (only phis are ever replaced), built at the
    // first trivial phi, so that replacing one touches only its uses.
    // Removed phis stay allocated until return: their addresses are
    // still keys here, and getConst must not hand one out again.
    std::unordered_map<const Value *,
                       std::vector<std::pair<Instruction *, size_t>>>
        users;
    bool indexed = false;
    std::vector<std::unique_ptr<Instruction>> removed_phis;

    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &bb : f.blocks()) {
            for (auto it = bb->insts().begin(); it != bb->insts().end();) {
                Instruction *inst = it->get();
                if (!inst->isPhi()) {
                    ++it;
                    continue;
                }
                // Find the unique operand that isn't the phi itself.
                Value *unique = nullptr;
                bool trivial = true;
                for (Value *op : inst->operands()) {
                    if (op == inst)
                        continue;
                    if (unique && unique != op) {
                        trivial = false;
                        break;
                    }
                    unique = op;
                }
                if (!trivial) {
                    ++it;
                    continue;
                }
                // Empty/self-only phis come from unreachable merges:
                // any value is acceptable; use zero.
                Value *repl = unique
                                  ? unique
                                  : f.parent()->getConst(inst->type(), 0);
                if (!indexed) {
                    for (auto &b : f.blocks())
                        for (auto &u : b->insts())
                            for (size_t i = 0; i < u->numOperands(); ++i)
                                if (isPhi(u->operand(i)))
                                    users[u->operand(i)].push_back(
                                        {u.get(), i});
                    indexed = true;
                }
                auto uit = users.find(inst);
                if (uit != users.end()) {
                    auto moved = std::move(uit->second);
                    users.erase(uit);
                    for (const auto &[user, index] : moved) {
                        bsAssert(user->operand(index) == inst,
                                 "simplifyTrivialPhis: stale use");
                        user->setOperand(index, repl);
                    }
                    if (isPhi(repl)) {
                        auto &to = users[repl];
                        to.insert(to.end(), moved.begin(), moved.end());
                    }
                }
                removed_phis.push_back(std::move(*it));
                it = bb->insts().erase(it);
                changed = true;
            }
        }
    }
    return static_cast<unsigned>(removed_phis.size());
}

unsigned
deadCodeElim(Function &f)
{
    unsigned removed = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        std::set<const Value *> used;
        for (const auto &bb : f.blocks())
            for (const auto &inst : bb->insts())
                for (Value *op : inst->operands())
                    used.insert(op);

        for (auto &bb : f.blocks()) {
            for (auto it = bb->insts().begin(); it != bb->insts().end();) {
                Instruction *inst = it->get();
                bool side_effects =
                    inst->isTerm() || inst->op() == Opcode::Store ||
                    inst->isCall() || inst->isVolatileOp();
                if (!side_effects && !inst->isGuard() &&
                    !inst->type().isVoid() && !used.count(inst)) {
                    it = bb->insts().erase(it);
                    ++removed;
                    changed = true;
                } else {
                    ++it;
                }
            }
        }
    }
    return removed;
}

unsigned
constantFold(Function &f)
{
    unsigned folds = 0;
    Module *m = f.parent();
    bsAssert(m != nullptr, "constantFold: function without module");

    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &bb : f.blocks()) {
            for (auto it = bb->insts().begin(); it != bb->insts().end();) {
                Instruction *inst = it->get();

                // Fold a constant conditional branch into a plain one.
                if (inst->op() == Opcode::CondBr &&
                    inst->operand(0)->isConstant()) {
                    bool taken =
                        static_cast<Constant *>(inst->operand(0))->value()
                        != 0;
                    BasicBlock *kept = inst->blockOperand(taken ? 0 : 1);
                    BasicBlock *dropped = inst->blockOperand(taken ? 1 : 0);
                    inst->setOp(Opcode::Br);
                    inst->clearOperands();
                    while (!inst->blockOperands().empty())
                        inst->removeBlockOperand(0);
                    inst->addBlockOperand(kept);
                    // The dropped edge no longer feeds phis.
                    if (dropped != kept) {
                        for (Instruction *phi : dropped->phis()) {
                            for (size_t i = phi->numOperands(); i-- > 0;) {
                                if (phi->blockOperand(i) == bb.get())
                                    phi->removePhiIncoming(i);
                            }
                        }
                    }
                    ++folds;
                    changed = true;
                    ++it;
                    continue;
                }

                // Speculative instructions carry a misspeculation side
                // effect; folding them would drop it.
                if (inst->isSpeculative() || inst->type().isVoid()) {
                    ++it;
                    continue;
                }

                bool all_const = inst->numOperands() > 0;
                for (Value *op : inst->operands())
                    all_const &= op->isConstant();
                uint64_t val = 0;
                if (all_const && !inst->isPhi() &&
                    foldOp(*inst, val)) {
                    f.replaceAllUses(inst,
                                     m->getConst(inst->type(), val));
                    it = bb->insts().erase(it);
                    ++folds;
                    changed = true;
                } else {
                    ++it;
                }
            }
        }
    }
    return folds;
}

void
simplifyFunction(Function &f)
{
    for (;;) {
        unsigned n = 0;
        n += constantFold(f);
        n += simplifyTrivialPhis(f);
        n += deadCodeElim(f);
        removeUnreachableBlocks(f);
        if (n == 0)
            return;
    }
}

void
simplifyModule(Module &m)
{
    for (const auto &f : m.functions())
        simplifyFunction(*f);
}

} // namespace bitspec
