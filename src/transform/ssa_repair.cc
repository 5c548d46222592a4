#include "transform/ssa_repair.h"

#include <unordered_map>

#include "support/error.h"

namespace bitspec
{

namespace
{

/**
 * One function's batch of repairs. The CFG and the use lists of the
 * repaired values are indexed once: a repair inserts phis but never
 * adds or removes an edge, and the phis it creates only read its own
 * value, its merges and handler values, so no repair changes another
 * repaired value's uses. Per-value state lives in block-indexed
 * vectors stamped with the repair's sequence number instead of being
 * cleared between repairs.
 */
class Repairer
{
  public:
    Repairer(Function &f, const std::vector<SSARepair> &repairs) : f_(f)
    {
        for (auto &bb : f_.blocks()) {
            blockIdx_.emplace(bb.get(),
                              static_cast<unsigned>(blocks_.size()));
            blocks_.push_back(bb.get());
        }
        const size_t n = blocks_.size();
        preds_.resize(n);
        for (BasicBlock *bb : blocks_) {
            for (BasicBlock *s : bb->successors()) {
                auto it = blockIdx_.find(s);
                if (it != blockIdx_.end())
                    preds_[it->second].push_back(bb);
            }
        }
        merge_.resize(n);
        memo_.resize(n);
        visiting_.resize(n);

        // Uses of every repaired value, in function order.
        for (const SSARepair &r : repairs)
            if (!uses_.try_emplace(r.orig).second)
                panic("repairSSA: %" + r.orig->name() +
                      " repaired twice in one batch");
        for (auto &bb : f_.blocks()) {
            for (auto &inst : bb->insts()) {
                for (size_t i = 0; i < inst->numOperands(); ++i) {
                    auto it = uses_.find(inst->operand(i));
                    if (it != uses_.end())
                        it->second.push_back({inst.get(), i});
                }
            }
        }
    }

    void
    repair(const SSARepair &r)
    {
        ++stamp_;
        orig_ = r.orig;
        origBlock_ = orig_->isInstruction()
                         ? static_cast<Instruction *>(orig_)->parent()
                         : nullptr;

        // Create the re-entry phis up front so reaching-def queries
        // terminate at them.
        for (const AltDef &alt : r.alts) {
            auto phi = std::make_unique<Instruction>(Opcode::Phi,
                                                     orig_->type());
            phi->setName("merge");
            Instruction *raw = phi.get();
            raw->setParent(alt.block);
            alt.block->insertBefore(alt.block->insts().begin(),
                                    std::move(phi));
            merge_[idx(alt.block)] = {stamp_, raw};
        }

        // Fill the re-entry phi operands.
        for (const AltDef &alt : r.alts) {
            Instruction *phi = merge_[idx(alt.block)].value;
            for (BasicBlock *p : preds_[idx(alt.block)]) {
                if (p == alt.handlerPred)
                    phi->addOperand(alt.handlerValue);
                else
                    phi->addOperand(reachEnd(p));
                phi->addBlockOperand(p);
            }
        }

        // Rewrite the uses that existed before this batch.
        for (const auto &[user, index] : uses_.at(orig_)) {
            bsAssert(user->operand(index) == orig_,
                     "repairSSA: indexed use no longer reads its value");
            Value *repl;
            if (user->isPhi()) {
                repl = reachEnd(user->blockOperand(index));
            } else {
                BasicBlock *bb = user->parent();
                if (Instruction *def = defIn(bb)) {
                    repl = def;
                } else if (bb == origBlock_ &&
                           definesBefore(orig_, user, bb)) {
                    continue; // Straight-line use after the def.
                } else {
                    repl = reachEntry(bb);
                }
            }
            user->setOperand(index, repl);
        }
    }

  private:
    /** Per-block value valid only while its stamp is current. */
    template <typename T>
    struct Stamped
    {
        unsigned stamp = 0;
        T value{};
    };

    unsigned idx(const BasicBlock *bb) const { return blockIdx_.at(bb); }

    /** This repair's re-entry phi at the top of @p bb, if any. */
    Instruction *
    defIn(const BasicBlock *bb) const
    {
        const Stamped<Instruction *> &m = merge_[idx(bb)];
        return m.stamp == stamp_ ? m.value : nullptr;
    }

    static bool
    definesBefore(Value *def, Instruction *user, BasicBlock *bb)
    {
        if (!def->isInstruction())
            return true; // Arguments are defined at entry.
        for (const auto &inst : bb->insts()) {
            if (inst.get() == def)
                return true;
            if (inst.get() == user)
                return false;
        }
        return false;
    }

    /** Placeholder for paths no valid use can observe: an argument
     *  reaches the entry; anything else gets zero. */
    Value *
    placeholder()
    {
        return orig_->isInstruction()
                   ? static_cast<Value *>(
                         f_.parent()->getConst(orig_->type(), 0))
                   : orig_;
    }

    Value *
    reachEnd(BasicBlock *bb)
    {
        if (Instruction *def = defIn(bb))
            return def;
        if (bb == origBlock_)
            return orig_;
        return reachEntry(bb);
    }

    Value *
    reachEntry(BasicBlock *bb)
    {
        const unsigned b = idx(bb);
        if (memo_[b].stamp == stamp_)
            return memo_[b].value;

        const auto &preds = preds_[b];
        if (preds.empty()) {
            // Entry or unreachable block: only an argument can
            // legitimately reach here; otherwise any placeholder is
            // fine (valid SSA guarantees such a path never uses it).
            Value *v = placeholder();
            memo_[b] = {stamp_, v};
            return v;
        }
        if (preds.size() == 1) {
            // No placeholder memoisation: an in-progress marker would
            // leak into sibling resolutions revisiting this block
            // (shared ancestors in unrolled loops). Recursing again is
            // safe: every reachable cycle contains a join, and joins
            // memoise their phi before resolving inputs, so a second
            // traversal terminates there. Only degenerate join-less
            // cycles (unreachable garbage) need the bail-out.
            Stamped<unsigned> &depth = visiting_[b];
            if (depth.stamp != stamp_)
                depth = {stamp_, 0};
            if (depth.value >= 2) {
                Value *v = placeholder();
                memo_[b] = {stamp_, v};
                return v;
            }
            ++depth.value;
            Value *v = reachEnd(preds[0]);
            --depth.value;
            memo_[b] = {stamp_, v};
            return v;
        }

        // Join: speculative phi, memoised before recursion to close
        // loops. Trivial ones are cleaned by simplifyTrivialPhis.
        auto phi = std::make_unique<Instruction>(Opcode::Phi,
                                                 orig_->type());
        phi->setName("ssarep");
        Instruction *raw = phi.get();
        raw->setParent(bb);
        bb->insertBefore(bb->insts().begin(), std::move(phi));
        memo_[b] = {stamp_, raw};
        for (BasicBlock *p : preds) {
            raw->addOperand(reachEnd(p));
            raw->addBlockOperand(p);
        }
        return raw;
    }

    Function &f_;
    std::vector<BasicBlock *> blocks_;
    std::unordered_map<const BasicBlock *, unsigned> blockIdx_;
    std::vector<std::vector<BasicBlock *>> preds_;
    std::unordered_map<const Value *,
                       std::vector<std::pair<Instruction *, size_t>>>
        uses_;

    unsigned stamp_ = 0;
    Value *orig_ = nullptr;
    BasicBlock *origBlock_ = nullptr;
    std::vector<Stamped<Instruction *>> merge_; ///< Re-entry phis.
    std::vector<Stamped<Value *>> memo_;
    std::vector<Stamped<unsigned>> visiting_;
};

} // namespace

void
repairSSA(Function &f, const std::vector<SSARepair> &repairs)
{
    bool any = false;
    for (const SSARepair &r : repairs) {
        for (const AltDef &a : r.alts) {
            if (a.handlerValue->type() != r.orig->type())
                panic("repairSSA: type mismatch: orig %" + r.orig->name() +
                      " " + r.orig->type().str() + " vs handler value %" +
                      a.handlerValue->name() + " " +
                      a.handlerValue->type().str() + " at " +
                      a.block->name());
            bsAssert(a.block && a.handlerPred, "repairSSA: bad alt def");
        }
        any |= !r.alts.empty();
    }
    if (!any)
        return;
    Repairer rep(f, repairs);
    for (const SSARepair &r : repairs)
        if (!r.alts.empty())
            rep.repair(r);
}

void
repairSSA(Function &f, Value *orig_def, const std::vector<AltDef> &alts)
{
    repairSSA(f, {SSARepair{orig_def, alts}});
}

} // namespace bitspec
