#include "analysis/liveness.h"

#include <bit>

namespace bitspec
{

void
Liveness::ValueSet::iterator::settle()
{
    const size_t n = lv_->values_.size();
    while (row_ && id_ < n) {
        const uint64_t w = row_[id_ / 64] >> (id_ % 64);
        if (w != 0) {
            id_ += static_cast<size_t>(std::countr_zero(w));
            break;
        }
        id_ = (id_ / 64 + 1) * 64;
    }
    if (!row_ || id_ > n)
        id_ = n;
}

size_t
Liveness::ValueSet::count(const Value *v) const
{
    const long id = lv_->idOf(v);
    if (!row_ || id < 0)
        return 0;
    const auto i = static_cast<size_t>(id);
    return (row_[i / 64] >> (i % 64)) & 1;
}

Liveness::Liveness(const Function &f, bool handler_edges)
{
    for (size_t i = 0; i < f.numArgs(); ++i)
        values_.push_back(f.arg(i));
    for (const auto &bb : f.blocks()) {
        blockIdx_.emplace(bb.get(), static_cast<unsigned>(blockIdx_.size()));
        for (const auto &inst : bb->insts())
            values_.push_back(inst.get());
    }
    ids_.reserve(values_.size());
    for (size_t i = 0; i < values_.size(); ++i)
        ids_.emplace(values_[i], static_cast<unsigned>(i));

    const size_t nb = f.blocks().size();
    const size_t nv = values_.size();
    auto block = [&](const BasicBlock *bb) {
        auto it = blockIdx_.find(bb);
        return it == blockIdx_.end() ? -1L : static_cast<long>(it->second);
    };

    // Successors, including handler edges when requested.
    std::vector<std::vector<unsigned>> succs(nb);
    for (const auto &bb : f.blocks()) {
        auto &out = succs[blockIdx_.at(bb.get())];
        for (BasicBlock *s : bb->successors())
            if (long si = block(s); si >= 0)
                out.push_back(static_cast<unsigned>(si));
    }
    if (handler_edges) {
        for (const auto &sr : f.specRegions()) {
            const long h = block(sr->handler);
            for (BasicBlock *member : sr->blocks) {
                const long m = block(member);
                if (m >= 0 && h >= 0)
                    succs[m].push_back(static_cast<unsigned>(h));
            }
        }
    }

    // use[b]: used before any def in b (phi uses attributed to the
    // incoming edge, i.e. to the predecessor's live-out).
    // def[b]: values defined in b.
    // phiUse[pred]: values consumed by successor phis along pred's
    // outgoing edges.
    BitMatrix use(nb, nv), def(nb, nv), phi_use(nb, nv);
    size_t id = f.numArgs();
    for (const auto &bb : f.blocks()) {
        const unsigned b = blockIdx_.at(bb.get());
        for (const auto &inst : bb->insts()) {
            if (inst->isPhi()) {
                for (size_t i = 0; i < inst->numOperands(); ++i) {
                    const long v = idOf(inst->operand(i));
                    const long p = block(inst->blockOperand(i));
                    if (v >= 0 && p >= 0)
                        phi_use.set(static_cast<size_t>(p),
                                     static_cast<size_t>(v));
                }
            } else {
                for (Value *op : inst->operands()) {
                    const long v = idOf(op);
                    if (v >= 0 && !def.test(b, static_cast<size_t>(v)))
                        use.set(b, static_cast<size_t>(v));
                }
            }
            if (!inst->type().isVoid())
                def.set(b, id);
            ++id;
        }
    }

    // Phi results are defined at the top of their block, so they are
    // live-in only via other blocks.
    liveIn_ = BitMatrix(nb, nv);
    liveOut_ = BitMatrix(nb, nv);
    solveLiveness(succs, use, def, &phi_use, liveIn_, liveOut_);
}

long
Liveness::idOf(const Value *v) const
{
    if (!v->isInstruction() && v->kind() != ValueKind::Argument)
        return -1;
    auto it = ids_.find(v);
    return it == ids_.end() ? -1 : static_cast<long>(it->second);
}

Liveness::ValueSet
Liveness::rowOf(const BitMatrix &m, const BasicBlock *bb) const
{
    auto it = blockIdx_.find(bb);
    return ValueSet(this, it == blockIdx_.end() ? nullptr
                                                : m.row(it->second));
}

Liveness::ValueSet
Liveness::liveIn(const BasicBlock *bb) const
{
    return rowOf(liveIn_, bb);
}

Liveness::ValueSet
Liveness::liveOut(const BasicBlock *bb) const
{
    return rowOf(liveOut_, bb);
}

} // namespace bitspec
