#include "backend/regalloc.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "support/bitmatrix.h"

namespace bitspec
{

namespace
{

/** A vreg's live interval plus its allocation state.
 *
 * Segments (rather than one [min, max] range) matter enormously for
 * BitSpec: values live into a misspeculation handler are used again
 * in the cold CFG_orig clone, and a single-range allocator would
 * stretch them across every hot loop in between, spilling the world.
 */
struct Interval : LiveInterval
{
    int start = 0; ///< First segment start (sort key).
    int assignedReg = -1;
    int assignedSlice = -1;
    bool spilled = false;
    unsigned slot = 0;

    /** True when a segment intersects one of @p other's, which is
     *  sorted and disjoint (so its ends ascend too). */
    bool
    overlaps(const std::vector<std::pair<int, int>> &other) const
    {
        auto j = other.begin();
        for (const auto &[s, e] : segs) {
            j = std::lower_bound(j, other.end(), s,
                                 [](const std::pair<int, int> &o, int v) {
                                     return o.second < v;
                                 });
            if (j == other.end())
                return false;
            if (j->first <= e)
                return true;
        }
        return false;
    }
};

/** Busy segments assigned to one physical slot. */
struct SlotBusy
{
    std::vector<std::pair<int, int>> segs; ///< Sorted, disjoint.

    bool
    conflicts(const Interval &iv) const
    {
        return iv.overlaps(segs);
    }

    void
    add(const Interval &iv)
    {
        const auto mid = static_cast<std::ptrdiff_t>(segs.size());
        segs.insert(segs.end(), iv.segs.begin(), iv.segs.end());
        std::inplace_merge(segs.begin(), segs.begin() + mid, segs.end());
    }
};

template <typename Inst, typename Fn>
void
forEachVReg(Inst &inst, Fn fn)
{
    bool dst_is_use = inst.op == MOp::STR || inst.op == MOp::STRH ||
                      inst.op == MOp::STRB || inst.op == MOp::STRB8;
    bool dst_also_use =
        ((inst.op == MOp::MOV || inst.op == MOp::MOV8) &&
         inst.cond != Cond::AL) ||
        inst.op == MOp::MOVT;
    if (inst.dst.isVReg())
        fn(inst.dst, !dst_is_use, dst_is_use || dst_also_use);
    if (inst.a.isVReg())
        fn(inst.a, false, true);
    if (inst.b.isVReg())
        fn(inst.b, false, true);
}

/**
 * Live intervals of every vreg of @p mf over instruction positions
 * numbered in block order, sorted by start. The (unstable) sort sees
 * the intervals in ascending vreg order, which fixes how it breaks
 * ties. Liveness is one bit row per block over vreg ids, with SMIR
 * handler edges (Eq. 2).
 */
std::vector<Interval>
buildIntervals(const MachFunction &mf)
{
    const size_t nb = mf.blocks.size();
    const size_t nv = mf.vregIsSlice.size();

    // Block ids -> positions in mf.blocks (rows of the bit matrices).
    int max_id = -1;
    for (const MachBlock &mb : mf.blocks)
        max_id = std::max(max_id, mb.id);
    std::vector<int> row_of(static_cast<size_t>(max_id + 1), -1);
    for (size_t b = 0; b < nb; ++b)
        row_of[static_cast<size_t>(mf.blocks[b].id)] = static_cast<int>(b);
    auto row = [&](int id) {
        return id >= 0 && id <= max_id ? row_of[static_cast<size_t>(id)]
                                       : -1;
    };

    std::vector<int> block_start(nb);
    BitMatrix use(nb, nv), def(nb, nv);
    std::vector<std::vector<unsigned>> succs(nb);
    int pos = 0;
    for (size_t b = 0; b < nb; ++b) {
        const MachBlock &mb = mf.blocks[b];
        block_start[b] = pos;
        pos += static_cast<int>(mb.insts.size());
        for (const MachInst &inst : mb.insts) {
            forEachVReg(inst, [&](const MOpnd &o, bool is_def,
                                  bool is_use) {
                if (is_use && !def.test(b, o.vreg))
                    use.set(b, o.vreg);
                if (is_def)
                    def.set(b, o.vreg);
            });
        }
        for (int s : mb.successors())
            if (int r = row(s); r >= 0)
                succs[b].push_back(static_cast<unsigned>(r));
        if (int r = row(mb.handlerBlock); r >= 0)
            succs[b].push_back(static_cast<unsigned>(r));
    }

    BitMatrix live_in(nb, nv), live_out(nb, nv);
    solveLiveness(succs, use, def, nullptr, live_in, live_out);

    // One raw segment per block where a vreg occurs or lives through.
    // Blocks are numbered in order, so each vreg's segments arrive
    // sorted and disjoint.
    std::vector<std::vector<std::pair<int, int>>> raw(nv);
    std::vector<size_t> seen_in(nv, SIZE_MAX);
    std::vector<std::pair<int, int>> occur(nv);
    std::vector<uint32_t> touched;
    for (size_t b = 0; b < nb; ++b) {
        const int bs = block_start[b];
        const int be = bs + static_cast<int>(mf.blocks[b].insts.size()) - 1;
        touched.clear();
        int p = bs;
        for (const MachInst &inst : mf.blocks[b].insts) {
            forEachVReg(inst, [&](const MOpnd &o, bool, bool) {
                if (seen_in[o.vreg] != b) {
                    seen_in[o.vreg] = b;
                    occur[o.vreg] = {p, p};
                    touched.push_back(o.vreg);
                } else {
                    occur[o.vreg].second = p;
                }
            });
            ++p;
        }
        for (uint32_t v : touched) {
            int s = live_in.test(b, v) ? bs : occur[v].first;
            int e = live_out.test(b, v) ? be : occur[v].second;
            raw[v].emplace_back(s, e);
        }
        // Live-through without occurrence.
        live_in.forEach(b, [&](size_t v) {
            if (seen_in[v] != b && live_out.test(b, v))
                raw[v].emplace_back(bs, be);
        });
    }

    std::vector<Interval> out;
    for (uint32_t v = 0; v < nv; ++v) {
        if (raw[v].empty())
            continue;
        Interval iv;
        iv.vreg = v;
        iv.isSlice = mf.vregIsSlice[v];
        for (auto &[s, e] : raw[v]) {
            if (!iv.segs.empty() && s <= iv.segs.back().second + 1)
                iv.segs.back().second = std::max(iv.segs.back().second, e);
            else
                iv.segs.emplace_back(s, e);
        }
        iv.start = iv.segs.front().first;
        out.push_back(std::move(iv));
    }
    std::sort(out.begin(), out.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    return out;
}

class Allocator
{
  public:
    explicit Allocator(MachFunction &mf)
        : mf_(mf), lastAlloc_(mf.lastAllocReg)
    {
        unsigned nregs = lastAlloc_ - kFirstAlloc + 1;
        wholeBusy_.resize(nregs);
        sliceBusy_.resize(nregs * 4);
    }

    BackendStats
    run()
    {
        intervals_ = buildIntervals(mf_);
        scan();
        rewrite();
        collectStats();
        return stats_;
    }

  private:
    unsigned numRegs() const { return lastAlloc_ - kFirstAlloc + 1; }

    void
    scan()
    {
        for (Interval &iv : intervals_) {
            if (iv.isSlice)
                allocSlice(iv);
            else
                allocWhole(iv);
        }
    }

    /** A whole register is usable when neither its whole-reg busy set
     *  nor any of its slice busy sets conflict. */
    void
    allocWhole(Interval &iv)
    {
        for (unsigned r = 0; r < numRegs(); ++r) {
            if (wholeBusy_[r].conflicts(iv))
                continue;
            bool slice_conflict = false;
            for (unsigned s = 0; s < 4; ++s)
                slice_conflict |= sliceBusy_[r * 4 + s].conflicts(iv);
            if (slice_conflict)
                continue;
            wholeBusy_[r].add(iv);
            iv.assignedReg = static_cast<int>(kFirstAlloc + r);
            return;
        }
        spill(iv);
    }

    /** A slice is usable when its own busy set and the enclosing
     *  register's whole-reg busy set are both clear. Prefer packing
     *  into registers that already hold slices. */
    void
    allocSlice(Interval &iv)
    {
        int best_r = -1, best_s = -1;
        size_t best_used = 0;
        for (unsigned r = 0; r < numRegs(); ++r) {
            if (wholeBusy_[r].conflicts(iv))
                continue;
            for (unsigned s = 0; s < 4; ++s) {
                if (sliceBusy_[r * 4 + s].conflicts(iv))
                    continue;
                size_t used = sliceBusy_[r * 4].segs.size() +
                              sliceBusy_[r * 4 + 1].segs.size() +
                              sliceBusy_[r * 4 + 2].segs.size() +
                              sliceBusy_[r * 4 + 3].segs.size();
                if (best_r < 0 || used > best_used) {
                    best_r = static_cast<int>(r);
                    best_s = static_cast<int>(s);
                    best_used = used;
                }
                break;
            }
        }
        if (best_r >= 0) {
            sliceBusy_[best_r * 4 + best_s].add(iv);
            iv.assignedReg = static_cast<int>(kFirstAlloc + best_r);
            iv.assignedSlice = best_s;
            return;
        }
        spill(iv);
    }

    void
    spill(Interval &iv)
    {
        iv.spilled = true;
        iv.assignedReg = -1;
        iv.slot = mf_.spillSlots++;
        ++stats_.spilledVRegs;
    }

    // ---------------- Rewrite ----------------

    MOpnd
    physOpnd(const Interval &iv) const
    {
        if (iv.isSlice)
            return MOpnd::makeSlice(
                static_cast<unsigned>(iv.assignedReg),
                static_cast<unsigned>(iv.assignedSlice));
        return MOpnd::makeReg(static_cast<unsigned>(iv.assignedReg));
    }

    static MOpnd
    slotOffset(unsigned slot)
    {
        return MOpnd::makeImm(static_cast<int64_t>(slot) * 4);
    }

    void
    rewrite()
    {
        std::vector<Interval *> iv_of(mf_.vregIsSlice.size(), nullptr);
        for (Interval &iv : intervals_)
            iv_of[iv.vreg] = &iv;

        for (auto &mb : mf_.blocks) {
            std::vector<MachInst> out;
            out.reserve(mb.insts.size());
            for (MachInst inst : mb.insts) {
                // Fold spills straight into physical-register moves
                // (argument setup / return values): using a scratch
                // there would clobber previously placed arguments.
                if (inst.op == MOp::MOV && inst.cond == Cond::AL &&
                    inst.dst.isReg() && inst.a.isVReg()) {
                    Interval *iv = iv_of[inst.a.vreg];
                    if (iv->spilled && !iv->isSlice) {
                        MachInst ld;
                        ld.op = MOp::LDR;
                        ld.dst = inst.dst;
                        ld.a = MOpnd::makeReg(kRegSP);
                        ld.b = slotOffset(iv->slot);
                        ld.tag = InstTag::SpillLoad;
                        out.push_back(ld);
                        continue;
                    }
                }
                if (inst.op == MOp::MOV && inst.cond == Cond::AL &&
                    inst.dst.isVReg() && inst.a.isReg()) {
                    Interval *iv = iv_of[inst.dst.vreg];
                    if (iv->spilled && !iv->isSlice) {
                        MachInst st;
                        st.op = MOp::STR;
                        st.dst = inst.a;
                        st.a = MOpnd::makeReg(kRegSP);
                        st.b = slotOffset(iv->slot);
                        st.tag = InstTag::SpillStore;
                        out.push_back(st);
                        continue;
                    }
                }

                std::vector<MachInst> loads, stores;
                auto fix = [&](MOpnd &o, bool is_def, bool is_use,
                               unsigned scratch) {
                    Interval *iv = iv_of[o.vreg];
                    if (!iv->spilled) {
                        o = physOpnd(*iv);
                        return;
                    }
                    MOpnd loc = iv->isSlice
                                    ? MOpnd::makeSlice(scratch, 0)
                                    : MOpnd::makeReg(scratch);
                    if (is_use) {
                        MachInst ld;
                        ld.op = iv->isSlice ? MOp::LDRB8 : MOp::LDR;
                        ld.dst = loc;
                        ld.a = MOpnd::makeReg(kRegSP);
                        ld.b = slotOffset(iv->slot);
                        ld.tag = InstTag::SpillLoad;
                        loads.push_back(ld);
                    }
                    if (is_def) {
                        MachInst st;
                        st.op = iv->isSlice ? MOp::STRB8 : MOp::STR;
                        st.dst = loc;
                        st.a = MOpnd::makeReg(kRegSP);
                        st.b = slotOffset(iv->slot);
                        st.tag = InstTag::SpillStore;
                        stores.push_back(st);
                    }
                    o = loc;
                };

                unsigned scratch = kScratch0;
                if (inst.a.isVReg())
                    fix(inst.a, false, true, scratch++);
                if (inst.b.isVReg())
                    fix(inst.b, false, true, scratch++);
                if (inst.dst.isVReg()) {
                    bool dst_is_use =
                        inst.op == MOp::STR || inst.op == MOp::STRH ||
                        inst.op == MOp::STRB || inst.op == MOp::STRB8;
                    bool dst_also_use =
                        ((inst.op == MOp::MOV ||
                          inst.op == MOp::MOV8) &&
                         inst.cond != Cond::AL) ||
                        inst.op == MOp::MOVT;
                    fix(inst.dst, !dst_is_use,
                        dst_is_use || dst_also_use, kScratch3);
                }

                for (auto &ld : loads)
                    out.push_back(ld);
                out.push_back(inst);
                for (auto &st : stores)
                    out.push_back(st);
            }
            mb.insts = std::move(out);
        }

        std::set<unsigned> used;
        for (Interval &iv : intervals_)
            if (!iv.spilled)
                used.insert(static_cast<unsigned>(iv.assignedReg));
        mf_.usedCalleeSaved.assign(used.begin(), used.end());
    }

    void
    collectStats()
    {
        for (auto &mb : mf_.blocks) {
            for (auto &inst : mb.insts) {
                ++stats_.staticInsts;
                if (inst.tag == InstTag::SpillLoad)
                    ++stats_.staticSpillLoads;
                else if (inst.tag == InstTag::SpillStore)
                    ++stats_.staticSpillStores;
                else if (inst.tag == InstTag::Copy)
                    ++stats_.staticCopies;
            }
        }
    }

    MachFunction &mf_;
    unsigned lastAlloc_;
    BackendStats stats_;
    std::vector<Interval> intervals_;
    std::vector<SlotBusy> wholeBusy_;  ///< Per register.
    std::vector<SlotBusy> sliceBusy_;  ///< Per register x 4 slices.
};

} // namespace

std::vector<LiveInterval>
liveIntervals(const MachFunction &mf)
{
    std::vector<Interval> ivs = buildIntervals(mf);
    return {ivs.begin(), ivs.end()};
}

BackendStats
allocateRegisters(MachFunction &mf)
{
    return Allocator(mf).run();
}

} // namespace bitspec
