#include "uarch/fast_core.h"

#include <algorithm>
#include <cstring>

#include "obs/attribution.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

// Identical timing parameters to the legacy Core (core.cc).
constexpr uint32_t kBranchPenalty = 2;  ///< Taken-branch flush.
constexpr uint32_t kMisspecPenalty = 4; ///< Redirect + refill.

/** Branch-free pre-resolved operand read (no rf accounting — counter
 *  events are pre-computed in CounterContrib). */
inline uint32_t
readSrc(const POpnd &o, const uint32_t *regs)
{
    return o.isImm ? o.imm : (regs[o.reg] >> o.shift) & o.mask;
}

/** Branch-free pre-resolved operand write (merge for slices; the
 *  full-register mask makes the merge an overwrite). */
inline void
writeDst(const POpnd &o, uint32_t *regs, uint32_t value)
{
    regs[o.reg] = (regs[o.reg] & ~(o.mask << o.shift)) |
                  ((value & o.mask) << o.shift);
}

void
addContrib(ActivityCounters &c, const CounterContrib &k)
{
    c.alu32 += k.alu32;
    c.alu8 += k.alu8;
    c.mulDiv += k.mulDiv;
    c.rfRead32 += k.rfRead32;
    c.rfRead8 += k.rfRead8;
    c.loads += k.loads;
    c.stores += k.stores;
    c.branches += k.branches;
    c.takenBranches += k.takenBranches;
    c.calls += k.calls;
    c.outputs += k.outputs;
    c.dynSpillLoads += k.dynSpillLoads;
    c.dynSpillStores += k.dynSpillStores;
    c.dynCopies += k.dynCopies;
}

/** Add every field of a memo delta except cycles (assigned at halt,
 *  like the legacy finish()), n replays at once: clean replays only
 *  bump RunMemo::pendingReplays and the multiply happens here, at
 *  finish(). */
void
addScaledDelta(ActivityCounters &c, const ActivityCounters &d,
               uint64_t n)
{
    for (const auto &f : fieldsOf<ActivityCounters>())
        if (f.member != &ActivityCounters::cycles)
            c.*f.member += d.*f.member * n;
}

} // namespace

FastCore::FastCore(const PredecodedProgram &pre)
    : pre_(pre), bySite_(pre.size()), byId_(pre.size())
{}

FastMachine::FastMachine() : dataMem_(Core::kMemBytes) {}

void
FastMachine::bind(FastCore &code, const Module &globals)
{
    code_ = &code;
    pre_ = &code.predecoded();
    prog_ = &pre_->prog();
    dataMem_.zero();
    for (const auto &g : globals.globals()) {
        bsAssert(g->address() + g->sizeBytes() <= dataMem_.size(),
                 "global outside data memory");
        std::copy(g->data().begin(), g->data().end(),
                  dataMem_.begin() + g->address());
    }
    std::fill(std::begin(regs_), std::end(regs_), 0);
    std::fill(std::begin(readyAt_), std::end(readyAt_), 0);
    maxReady_ = 0;
    flags_ = Flags{};
    delta_ = 0;
    classicMode_ = false;
    counters_ = ActivityCounters{};
    output_.clear();
    outputHash_ = Core::kFnvOffset;
    mem_ = MemoryHierarchy{};
    fuel_ = Core::kDefaultFuel;
    attr_ = nullptr;
    prof_ = nullptr;
    tracks_ = nullptr;
    setMisspecPolicy(MisspecPolicy::Hardware);
    // The hierarchy was rebuilt: line slots and the fill generation
    // restart, so no recorded pin proves anything any more.
    memoState_.assign(code.memoCount(), MemoState{});
    replayedRuns_ = 0;
    slowInsts_ = 0;
}

bool
FastMachine::condHolds(Cond c) const
{
    switch (c) {
      case Cond::AL: return true;
      case Cond::EQ: return flags_.z;
      case Cond::NE: return !flags_.z;
      case Cond::LO: return !flags_.c;
      case Cond::LS: return !flags_.c || flags_.z;
      case Cond::HI: return flags_.c && !flags_.z;
      case Cond::HS: return flags_.c;
      case Cond::LT: return flags_.n != flags_.v;
      case Cond::LE: return flags_.z || flags_.n != flags_.v;
      case Cond::GT: return !flags_.z && flags_.n == flags_.v;
      case Cond::GE: return flags_.n == flags_.v;
    }
    panic("condHolds: bad cond");
}

uint32_t
FastMachine::loadData(uint32_t addr, unsigned bytes)
{
    if (static_cast<uint64_t>(addr) + bytes > dataMem_.size())
        fatal(strFormat("machine load out of bounds at 0x%x", addr));
    uint32_t v = 0;
    for (unsigned b = 0; b < bytes; ++b)
        v |= static_cast<uint32_t>(dataMem_[addr + b]) << (8 * b);
    return v;
}

void
FastMachine::storeData(uint32_t addr, uint32_t value, unsigned bytes)
{
    if (static_cast<uint64_t>(addr) + bytes > dataMem_.size())
        fatal(strFormat("machine store out of bounds at 0x%x", addr));
    for (unsigned b = 0; b < bytes; ++b)
        dataMem_[addr + b] = static_cast<uint8_t>(value >> (8 * b));
}

void
FastMachine::setFlagsSub(uint64_t a, uint64_t b, unsigned bits)
{
    uint64_t mask = lowMask(bits);
    uint64_t r = (a - b) & mask;
    flags_.z = r == 0;
    flags_.n = (r >> (bits - 1)) & 1;
    flags_.c = a >= b;
    bool sa = (a >> (bits - 1)) & 1;
    bool sb = (b >> (bits - 1)) & 1;
    bool sr = (r >> (bits - 1)) & 1;
    flags_.v = (sa != sb) && (sr != sa);
}

void
FastMachine::emitOut(uint64_t v)
{
    output_.push_back(v);
    for (unsigned b = 0; b < 8; ++b) {
        outputHash_ ^= (v >> (8 * b)) & 0xff;
        outputHash_ *= Core::kFnvPrime;
    }
}

void
FastMachine::applyContrib(const CounterContrib &c)
{
    addContrib(counters_, c);
}

void
FastMachine::applyDstWrite(uint8_t dst_write)
{
    if (dst_write == 1)
        ++counters_.rfWrite32;
    else if (dst_write == 2)
        ++counters_.rfWrite8;
}

void
FastMachine::finish(uint64_t final_cycle)
{
    // Fold the deferred clean-replay deltas: each memo's counter sums
    // enter once, multiplied by how often it replayed this run.
    for (uint32_t id = 0; id < memoState_.size(); ++id)
        if (uint64_t &n = memoState_[id].pendingReplays) {
            addScaledDelta(counters_, code_->memoById(id).delta, n);
            n = 0;
        }
    // Provenance-tag counts are folded live (CounterContrib), so only
    // the cycle assignment of the legacy finish() remains.
    counters_.cycles = final_cycle;
    code_->replayedRuns_.fetch_add(replayedRuns_,
                                   std::memory_order_relaxed);
    code_->slowInsts_.fetch_add(slowInsts_, std::memory_order_relaxed);
}

FastCore::RunMemo
FastCore::buildMemo(uint32_t start) const
{
    RunMemo m;
    m.start = start;
    const std::vector<PInst> &insts = pre_.insts();
    const uint32_t end = pre_.runEnd(start);
    // Running off the code is left to the slow path, which raises
    // the fatal.
    if (end >= insts.size() || end - start > kMaxRunLen)
        return m;

    uint64_t rel = 0;           // Cycle offset from run entry.
    uint64_t relReady[16] = {}; // Scoreboard offsets.
    uint16_t writtenMask = 0;
    uint32_t maxReadyOff = 0;

    m.per.reserve(end - start);
    m.ops.reserve(end - start);
    for (uint32_t i = start; i < end; ++i) {
        const PInst &p = insts[i];
        if (p.kind == PKind::Bad)
            return m;

        RunMemo::PerInst pi;
        pi.cycBefore = static_cast<uint32_t>(rel);
        rel += 1; // Fetch, assumed L1I hit (entry guard).

        // In-order issue stall under the schedule's entry assumption:
        // registers not yet written in-run are ready at entry.
        m.entryReadyMask |=
            static_cast<uint16_t>(p.readyMask & ~writtenMask);
        uint64_t ready = 0;
        for (uint32_t bits = p.readyMask; bits; bits &= bits - 1) {
            uint64_t r =
                relReady[__builtin_ctz(bits)];
            ready = std::max(ready, r);
        }
        if (ready > rel)
            rel = ready;
        pi.issueOff = static_cast<uint32_t>(rel);

        if (p.dstWrite) {
            pi.writeReg = static_cast<uint8_t>(p.dst.reg);
            pi.readyOff = pi.issueOff + p.latency;
            relReady[p.dst.reg] = pi.readyOff;
            writtenMask |= static_cast<uint16_t>(1u << p.dst.reg);
            maxReadyOff = std::max(maxReadyOff, pi.readyOff);
        } else if (p.kind == PKind::MovCond) {
            // The write commits only when the condition holds, so dst
            // stays out of writtenMask (a false condition leaves the
            // entry-time value live) — but issue+1 is schedule-exact
            // either way: dst readiness was consulted at issue, so
            // both candidate values are <= any later consult.
            relReady[p.dst.reg] = rel + 1;
            maxReadyOff = std::max(maxReadyOff,
                                   static_cast<uint32_t>(rel + 1));
        }

        if (pi.readyOff > 0xffff)
            return m; // ROp::readyOff overflow: slow path (unseen).

        addContrib(m.delta, p.contrib);
        if (p.dstWrite == 1)
            ++m.delta.rfWrite32;
        else if (p.dstWrite == 2)
            ++m.delta.rfWrite8;
        ++m.delta.instructions;
        m.per.push_back(pi);
        m.ops.push_back(translateOp(p, pi));
    }

    // The terminator always retires after a clean body replay, so its
    // static contribution (branches/calls/instruction) rides in the
    // deferred delta too; only a conditional branch's takenBranches is
    // dynamic and counted live in terminate().
    addContrib(m.delta, insts[end].contrib);
    ++m.delta.instructions;

    m.len = end - start;
    m.bodyCycles = rel;
    m.maxReadyOff = maxReadyOff;
    m.fuelCost = m.len + 1;
    m.fetchFirst = pre_.prog().addrOf(start);
    m.fetchLast = pre_.prog().addrOf(end);
    for (uint32_t j = 0; j < m.len; ++j) {
        uint64_t next_fetch =
            j + 1 < m.len ? m.per[j + 1].cycBefore : m.bodyCycles;
        m.per[j].cost =
            static_cast<uint8_t>(next_fetch - m.per[j].cycBefore);
    }
    m.eligible = true;
    return m;
}

FastCore::RunMemo::ROp
FastCore::translateOp(const PInst &p, const RunMemo::PerInst &pi)
{
    using ROp = RunMemo::ROp;
    ROp r;
    r.writeReg = pi.writeReg;
    r.readyOff = static_cast<uint16_t>(pi.readyOff);
    r.dst = p.dst.reg;
    r.a = p.a.reg;
    r.b = p.b.reg;

    auto fullReg = [](const POpnd &o) {
        return !o.isImm && o.shift == 0 && o.mask == 0xffffffffu;
    };
    // Specialization requires a full-register (or absent) destination
    // and full-register/immediate sources: the micro-op then reads
    // and writes the register file directly, no slice merges.
    const bool dstFull = p.dstWrite == 1 && p.dst.shift == 0 &&
                         p.dst.mask == 0xffffffffu;
    const bool aR = fullReg(p.a), bR = fullReg(p.b);
    const bool aI = p.a.isImm, bI = p.b.isImm;

    switch (p.kind) {
      case PKind::AluAdd:
      case PKind::AluAnd:
      case PKind::AluOrr:
      case PKind::AluEor:
      case PKind::Mul: {
        if (!dstFull)
            break;
        ROp::K rr, ri;
        switch (p.kind) {
          case PKind::AluAdd: rr = ROp::kAddRR; ri = ROp::kAddRI; break;
          case PKind::AluAnd: rr = ROp::kAndRR; ri = ROp::kAndRI; break;
          case PKind::AluOrr: rr = ROp::kOrrRR; ri = ROp::kOrrRI; break;
          case PKind::AluEor: rr = ROp::kEorRR; ri = ROp::kEorRI; break;
          default:            rr = ROp::kMulRR; ri = ROp::kMulRI; break;
        }
        if (aR && bR) {
            r.op = rr;
        } else if (aR && bI) {
            r.op = ri;
            r.imm = p.b.imm;
        } else if (aI && bR) { // Commutative: fold as reg-op-imm.
            r.op = ri;
            r.a = p.b.reg;
            r.imm = p.a.imm;
        }
        break;
      }
      case PKind::AluSub:
        if (!dstFull)
            break;
        if (aR && bR) {
            r.op = ROp::kSubRR;
        } else if (aR && bI) {
            r.op = ROp::kSubRI;
            r.imm = p.b.imm;
        } else if (aI && bR) {
            r.op = ROp::kSubIR;
            r.a = p.b.reg;
            r.imm = p.a.imm;
        }
        break;
      case PKind::AluLsl:
      case PKind::AluLsr:
      case PKind::AluAsr: {
        if (!dstFull)
            break;
        ROp::K rr = p.kind == PKind::AluLsl   ? ROp::kLslRR
                    : p.kind == PKind::AluLsr ? ROp::kLsrRR
                                              : ROp::kAsrRR;
        ROp::K ri = p.kind == PKind::AluLsl   ? ROp::kLslRI
                    : p.kind == PKind::AluLsr ? ROp::kLsrRI
                                              : ROp::kAsrRI;
        if (aR && bR) {
            r.op = rr;
        } else if (aR && bI) {
            r.op = ri;
            r.imm = p.b.imm;
        }
        break;
      }
      case PKind::Mov:
        if (!dstFull)
            break;
        if (aR) {
            r.op = ROp::kMovR;
        } else if (aI) {
            r.op = ROp::kMovI;
            r.imm = p.a.imm;
        }
        break;
      case PKind::Mvn:
        if (dstFull && aR)
            r.op = ROp::kMvnR;
        break;
      case PKind::Movw:
        if (dstFull) {
            r.op = ROp::kMovI;
            r.imm = p.a.imm;
        }
        break;
      case PKind::Movt:
        if (dstFull) {
            r.op = ROp::kMovtI;
            r.imm = p.a.imm;
        }
        break;
      case PKind::Cmp:
        if (aR && bR) {
            r.op = ROp::kCmpRR;
        } else if (aR && bI) {
            r.op = ROp::kCmpRI;
            r.imm = p.b.imm;
        } else if (aI && bR) {
            r.op = ROp::kCmpIR;
            r.imm = p.a.imm;
        }
        break;
      case PKind::Setcc:
        if (dstFull) {
            r.op = ROp::kSetcc;
            r.imm = static_cast<uint32_t>(p.cond);
        }
        break;
      case PKind::Sxth:
        if (dstFull && aR)
            r.op = ROp::kSxth;
        break;
      case PKind::Uxth:
        if (dstFull && aR)
            r.op = ROp::kUxth;
        break;
      case PKind::Uxt8:
        if (dstFull && aR)
            r.op = ROp::kUxt8;
        break;
      case PKind::Sxt8:
        if (dstFull && aR)
            r.op = ROp::kSxt8;
        break;
      case PKind::Load:
        // Word loads with full-register addressing: the dominant
        // generic op left on hot paths. Sub-word and slice loads stay
        // Generic.
        if (!dstFull || p.aux != 4)
            break;
        if (aR && bR) {
            r.op = ROp::kLoadWRR;
        } else if (aR && bI) {
            r.op = ROp::kLoadWRI;
            r.imm = p.b.imm;
        } else if (aI && bR) {
            r.op = ROp::kLoadWRI;
            r.a = p.b.reg;
            r.imm = p.a.imm;
        }
        break;
      default: // Memory, 8-bit slice, conditional, rare: Generic.
        break;
    }
    if (r.op == ROp::kGeneric)
        r.imm = pi.issueOff;
    return r;
}

const FastCore::RunMemo &
FastCore::buildMemoAt(uint32_t idx)
{
    RunMemo built = buildMemo(idx);
    std::lock_guard<std::mutex> lock(publishMu_);
    // Another run may have published this site while we built it.
    if (const RunMemo *m = bySite_[idx].load(std::memory_order_relaxed))
        return *m;
    built.id = static_cast<uint32_t>(memos_.size());
    const RunMemo &m = memos_.emplace_back(std::move(built));
    byId_[m.id].store(&m, std::memory_order_release);
    memoCount_.store(memos_.size(), std::memory_order_release);
    bySite_[idx].store(&m, std::memory_order_release);
    return m;
}

bool
FastMachine::entryReady(const RunMemo &m) const
{
    if (maxReady_ <= cycle_)
        return true;
    for (uint32_t bits = m.entryReadyMask; bits; bits &= bits - 1)
        if (readyAt_[__builtin_ctz(bits)] > cycle_)
            return false;
    return true;
}

bool
FastMachine::fetchGuard(const RunMemo &m)
{
    // Memos published after bind() (by this run or a concurrent one)
    // have ids past the state this run has seen so far.
    if (m.id >= memoState_.size())
        memoState_.resize(m.id + 1);
    MemoryHierarchy::FetchPin &pin = memoState_[m.id].pin;
    if (pin.cnt && pin.gen == mem_.l1iFillGen())
        return true;
    if (!mem_.fetchRangeResident(m.fetchFirst, m.fetchLast))
        return false;
    mem_.fetchRangePin(m.fetchFirst, m.fetchLast, pin);
    return true;
}

void
FastMachine::commitFetches(const RunMemo &m, const MemoState &s)
{
    // No I-fill can intervene between the guard and this commit (the
    // body performs only D-side accesses), but re-checking is one
    // compare and keeps the pin self-validating.
    if (s.pin.cnt && s.pin.gen == mem_.l1iFillGen())
        mem_.fetchCommitPinned(s.pin, 1);
    else
        mem_.fetchRangeCommit(m.fetchFirst, m.fetchLast);
}

[[gnu::always_inline]] inline FastMachine::Outcome
FastMachine::execute(const PInst &p, uint64_t issue)
{
    uint32_t *regs = regs_;
    Outcome o;
    o.wrote = true; // Every kind below writes dst unless it says not.
    switch (p.kind) {
      case PKind::AluAdd:
        writeDst(p.dst, regs, readSrc(p.a, regs) + readSrc(p.b, regs));
        break;
      case PKind::AluSub:
        writeDst(p.dst, regs, readSrc(p.a, regs) - readSrc(p.b, regs));
        break;
      case PKind::AluAnd:
        writeDst(p.dst, regs, readSrc(p.a, regs) & readSrc(p.b, regs));
        break;
      case PKind::AluOrr:
        writeDst(p.dst, regs, readSrc(p.a, regs) | readSrc(p.b, regs));
        break;
      case PKind::AluEor:
        writeDst(p.dst, regs, readSrc(p.a, regs) ^ readSrc(p.b, regs));
        break;
      case PKind::AluLsl: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        writeDst(p.dst, regs, b >= 32 ? 0 : a << b);
        break;
      }
      case PKind::AluLsr: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        writeDst(p.dst, regs, b >= 32 ? 0 : a >> b);
        break;
      }
      case PKind::AluAsr: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        writeDst(p.dst, regs,
                 b >= 32 ? (static_cast<int32_t>(a) < 0 ? ~0u : 0)
                         : static_cast<uint32_t>(
                               static_cast<int32_t>(a) >> b));
        break;
      }
      case PKind::Mul:
        writeDst(p.dst, regs, readSrc(p.a, regs) * readSrc(p.b, regs));
        break;
      case PKind::Div: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        if (b == 0)
            fatal("machine division by zero");
        writeDst(p.dst, regs,
                 p.aux ? static_cast<uint32_t>(
                             static_cast<int32_t>(a) /
                             static_cast<int32_t>(b))
                       : a / b);
        break;
      }
      case PKind::Mov:
        writeDst(p.dst, regs, readSrc(p.a, regs));
        break;
      case PKind::MovCond:
        // Accounts and times its own conditional write (dstWrite 0).
        o.wrote = false;
        if (condHolds(p.cond)) {
            if (!p.a.isImm) {
                if (p.a.mask == 0xff)
                    ++counters_.rfRead8;
                else
                    ++counters_.rfRead32;
            }
            writeDst(p.dst, regs, readSrc(p.a, regs));
            if (p.dst.mask == 0xff)
                ++counters_.rfWrite8;
            else
                ++counters_.rfWrite32;
            readyAt_[p.dst.reg] = issue + 1;
            maxReady_ = std::max(maxReady_, issue + 1);
        }
        break;
      case PKind::Mvn:
        writeDst(p.dst, regs, ~readSrc(p.a, regs));
        break;
      case PKind::Movw:
        writeDst(p.dst, regs, p.a.imm);
        break;
      case PKind::Movt: {
        uint32_t lo = regs[p.dst.reg] & 0xffff;
        writeDst(p.dst, regs, (p.a.imm << 16) | lo);
        break;
      }
      case PKind::Cmp:
        setFlagsSub(readSrc(p.a, regs), readSrc(p.b, regs), 32);
        o.wrote = false;
        break;
      case PKind::Cmp8:
        setFlagsSub(readSrc(p.a, regs) & 0xff,
                    readSrc(p.b, regs) & 0xff, 8);
        o.wrote = false;
        break;
      case PKind::Setcc:
        writeDst(p.dst, regs, condHolds(p.cond) ? 1 : 0);
        break;
      case PKind::Sxth:
        writeDst(p.dst, regs,
                 static_cast<uint32_t>(sextFrom(readSrc(p.a, regs), 16)));
        break;
      case PKind::Uxth:
        writeDst(p.dst, regs, readSrc(p.a, regs) & 0xffff);
        break;
      case PKind::Uxt8:
        writeDst(p.dst, regs, readSrc(p.a, regs) & 0xff);
        break;
      case PKind::Sxt8:
        writeDst(p.dst, regs,
                 static_cast<uint32_t>(
                     sextFrom(readSrc(p.a, regs) & 0xff, 8)));
        break;
      case PKind::Load: {
        uint32_t addr = readSrc(p.a, regs) + readSrc(p.b, regs);
        o.stall = mem_.data(addr, false);
        writeDst(p.dst, regs, loadData(addr, p.aux));
        break;
      }
      case PKind::LoadSpec: {
        uint32_t addr = readSrc(p.a, regs) + readSrc(p.b, regs);
        o.stall = mem_.data(addr, false);
        uint32_t v = loadData(addr, p.aux);
        if (v > 0xff || shouldForce()) {
            o.wrote = false;
            o.misspec = true;
            break;
        }
        writeDst(p.dst, regs, v);
        break;
      }
      case PKind::Store: {
        uint32_t addr = readSrc(p.a, regs) + readSrc(p.b, regs);
        o.stall = mem_.data(addr, true);
        storeData(addr, readSrc(p.dst, regs), p.aux);
        o.wrote = false;
        break;
      }
      case PKind::Add8: {
        uint32_t a = readSrc(p.a, regs) & 0xff;
        uint32_t b = readSrc(p.b, regs) & 0xff;
        uint32_t full = a + b;
        if (p.aux && (full > 0xff || shouldForce())) {
            o.wrote = false;
            o.misspec = true;
            break;
        }
        writeDst(p.dst, regs, full & 0xff);
        break;
      }
      case PKind::Sub8: {
        uint32_t a = readSrc(p.a, regs) & 0xff;
        uint32_t b = readSrc(p.b, regs) & 0xff;
        if (p.aux && (a < b || shouldForce())) {
            o.wrote = false;
            o.misspec = true;
            break;
        }
        writeDst(p.dst, regs, (a - b) & 0xff);
        break;
      }
      case PKind::Logic8And:
        writeDst(p.dst, regs,
                 (readSrc(p.a, regs) & readSrc(p.b, regs)) & 0xff);
        break;
      case PKind::Logic8Orr:
        writeDst(p.dst, regs,
                 (readSrc(p.a, regs) | readSrc(p.b, regs)) & 0xff);
        break;
      case PKind::Logic8Eor:
        writeDst(p.dst, regs,
                 (readSrc(p.a, regs) ^ readSrc(p.b, regs)) & 0xff);
        break;
      case PKind::Trn8: {
        uint32_t v = readSrc(p.a, regs);
        if (p.aux && (v > 0xff || shouldForce())) {
            o.wrote = false;
            o.misspec = true;
            break;
        }
        writeDst(p.dst, regs, v & 0xff);
        break;
      }
      case PKind::Out:
        emitOut(readSrc(p.a, regs));
        o.wrote = false;
        break;
      case PKind::SetDelta:
        delta_ = p.a.imm;
        o.wrote = false;
        break;
      case PKind::Mode:
        classicMode_ = p.aux;
        o.wrote = false;
        break;
      case PKind::Nop:
        o.wrote = false;
        break;
      case PKind::Bad:
        panic("readOpnd: unallocated operand");
      default:
        panic("execute: terminator kind");
    }
    return o;
}

[[gnu::always_inline]] inline uint32_t
FastMachine::retire(uint32_t idx, const PInst &p, Outcome o,
                 uint64_t cycle_at_fetch)
{
    uint32_t next = idx + 1;
    if (o.wrote) {
        // A load's miss stall delays its destination, not the
        // pipeline.
        const uint64_t rdy = cycle_ + p.latency + o.stall;
        readyAt_[p.dst.reg] = rdy;
        maxReady_ = std::max(maxReady_, rdy);
        applyDstWrite(p.dstWrite);
    } else {
        cycle_ += o.stall; // A store's, or a misspeculating load's.
    }
    if (o.misspec) {
        ++counters_.misspeculations;
        if (attr_)
            attr_->onMisspec(idx);
        if (prof_)
            prof_->onMisspec(idx);
        next = idx + delta_ / kInstBytes;
        cycle_ += kMisspecPenalty;
    }
    if (attr_)
        attr_->onInst(idx, cycle_ - cycle_at_fetch);
    if (prof_)
        prof_->onInst(idx, cycle_ - cycle_at_fetch);
    if (tracks_)
        tracks_->onRetire(counters_, mem_, cycle_);
    return next;
}

[[gnu::always_inline]] inline uint32_t
FastMachine::terminate(uint32_t idx, const PInst &p,
                    uint64_t cycle_at_fetch)
{
    uint32_t next = idx + 1;
    bool halt = false;
    switch (p.kind) {
      case PKind::Branch:
        if (condHolds(p.cond)) {
            ++counters_.takenBranches;
            next = p.target;
            cycle_ += kBranchPenalty;
        }
        break;
      case PKind::Call:
        // Like the legacy BL: a raw lr write, no rf event, no
        // scoreboard update.
        regs_[kRegLR] = prog_->addrOf(idx + 1);
        next = p.target;
        cycle_ += kBranchPenalty;
        break;
      case PKind::Ret:
        cycle_ += kBranchPenalty;
        halt = regs_[kRegLR] == MachProgram::kHaltAddr;
        next = prog_->indexOf(regs_[kRegLR]);
        break;
      case PKind::Halt:
        halt = true;
        break;
      default:
        panic("terminate: not a terminator");
    }
    if (attr_)
        attr_->onInst(idx, cycle_ - cycle_at_fetch);
    if (prof_)
        prof_->onInst(idx, cycle_ - cycle_at_fetch);
    if (halt) {
        finish(cycle_);
        if (tracks_)
            tracks_->finish(counters_, mem_, cycle_);
        halted_ = true;
        retVal_ = regs_[0];
    } else if (tracks_) {
        tracks_->onRetire(counters_, mem_, cycle_);
    }
    return next;
}

uint32_t
FastMachine::replay(const RunMemo &m0)
{
    const RunMemo *mp = &m0; // Re-pointed when block chaining continues.
    uint32_t *regs = regs_;
    for (;;) {
        const uint64_t entry = cycle_;
        const PInst *insts = pre_->insts().data() + mp->start;
        for (uint32_t i = 0; i < mp->len; ++i) {
            const RunMemo::ROp &r = mp->ops[i];
            switch (r.op) {
              case RunMemo::ROp::kAddRR:
                regs[r.dst] = regs[r.a] + regs[r.b];
                break;
              case RunMemo::ROp::kAddRI:
                regs[r.dst] = regs[r.a] + r.imm;
                break;
              case RunMemo::ROp::kSubRR:
                regs[r.dst] = regs[r.a] - regs[r.b];
                break;
              case RunMemo::ROp::kSubRI:
                regs[r.dst] = regs[r.a] - r.imm;
                break;
              case RunMemo::ROp::kSubIR:
                regs[r.dst] = r.imm - regs[r.a];
                break;
              case RunMemo::ROp::kAndRR:
                regs[r.dst] = regs[r.a] & regs[r.b];
                break;
              case RunMemo::ROp::kAndRI:
                regs[r.dst] = regs[r.a] & r.imm;
                break;
              case RunMemo::ROp::kOrrRR:
                regs[r.dst] = regs[r.a] | regs[r.b];
                break;
              case RunMemo::ROp::kOrrRI:
                regs[r.dst] = regs[r.a] | r.imm;
                break;
              case RunMemo::ROp::kEorRR:
                regs[r.dst] = regs[r.a] ^ regs[r.b];
                break;
              case RunMemo::ROp::kEorRI:
                regs[r.dst] = regs[r.a] ^ r.imm;
                break;
              case RunMemo::ROp::kLslRR: {
                uint32_t s = regs[r.b];
                regs[r.dst] = s >= 32 ? 0 : regs[r.a] << s;
                break;
              }
              case RunMemo::ROp::kLslRI:
                regs[r.dst] = r.imm >= 32 ? 0 : regs[r.a] << r.imm;
                break;
              case RunMemo::ROp::kLsrRR: {
                uint32_t s = regs[r.b];
                regs[r.dst] = s >= 32 ? 0 : regs[r.a] >> s;
                break;
              }
              case RunMemo::ROp::kLsrRI:
                regs[r.dst] = r.imm >= 32 ? 0 : regs[r.a] >> r.imm;
                break;
              case RunMemo::ROp::kAsrRR: {
                uint32_t s = regs[r.b];
                int32_t a = static_cast<int32_t>(regs[r.a]);
                regs[r.dst] = s >= 32
                                  ? (a < 0 ? ~0u : 0)
                                  : static_cast<uint32_t>(a >> s);
                break;
              }
              case RunMemo::ROp::kAsrRI: {
                int32_t a = static_cast<int32_t>(regs[r.a]);
                regs[r.dst] = r.imm >= 32
                                  ? (a < 0 ? ~0u : 0)
                                  : static_cast<uint32_t>(a >> r.imm);
                break;
              }
              case RunMemo::ROp::kMulRR:
                regs[r.dst] = regs[r.a] * regs[r.b];
                break;
              case RunMemo::ROp::kMulRI:
                regs[r.dst] = regs[r.a] * r.imm;
                break;
              case RunMemo::ROp::kMovR:
                regs[r.dst] = regs[r.a];
                break;
              case RunMemo::ROp::kMovI:
                regs[r.dst] = r.imm;
                break;
              case RunMemo::ROp::kMvnR:
                regs[r.dst] = ~regs[r.a];
                break;
              case RunMemo::ROp::kMovtI:
                regs[r.dst] = (r.imm << 16) | (regs[r.dst] & 0xffff);
                break;
              case RunMemo::ROp::kCmpRR:
                setFlagsSub(regs[r.a], regs[r.b], 32);
                break;
              case RunMemo::ROp::kCmpRI:
                setFlagsSub(regs[r.a], r.imm, 32);
                break;
              case RunMemo::ROp::kCmpIR:
                setFlagsSub(r.imm, regs[r.b], 32);
                break;
              case RunMemo::ROp::kSetcc:
                regs[r.dst] =
                    condHolds(static_cast<Cond>(r.imm)) ? 1 : 0;
                break;
              case RunMemo::ROp::kSxth:
                regs[r.dst] =
                    static_cast<uint32_t>(sextFrom(regs[r.a], 16));
                break;
              case RunMemo::ROp::kUxth:
                regs[r.dst] = regs[r.a] & 0xffff;
                break;
              case RunMemo::ROp::kUxt8:
                regs[r.dst] = regs[r.a] & 0xff;
                break;
              case RunMemo::ROp::kSxt8:
                regs[r.dst] = static_cast<uint32_t>(
                    sextFrom(regs[r.a] & 0xff, 8));
                break;
              case RunMemo::ROp::kLoadWRR:
              case RunMemo::ROp::kLoadWRI: {
                uint32_t addr =
                    regs[r.a] + (r.op == RunMemo::ROp::kLoadWRR
                                     ? regs[r.b]
                                     : r.imm);
                uint32_t stall = mem_.data(addr, false);
                if (static_cast<uint64_t>(addr) + 4 > dataMem_.size())
                    loadData(addr, 4); // Same out-of-bounds fatal.
                uint32_t v;
                std::memcpy(&v, dataMem_.data() + addr, 4);
                regs[r.dst] = v;
                if (stall)
                    return diverge(*mp, i, Outcome{stall, true});
                break;
              }
              default: { // kGeneric.
                const Outcome o = execute(insts[i], entry + r.imm);
                if (!o.clean())
                    return diverge(*mp, i, o);
                break;
              }
            }
            // Branchless: no-write instructions target the scratch
            // slot.
            readyAt_[r.writeReg] = entry + r.readyOff;
        }

        // Clean body: commit it from the memo, then retire the
        // terminator. Counter deltas (body + static terminator parts)
        // are deferred — one pendingReplays increment here,
        // multiplied out at finish(). fetchGuard() sized memoState_.
        cycle_ = entry + mp->bodyCycles;
        maxReady_ = std::max(maxReady_, entry + mp->maxReadyOff);
        MemoState &state = memoState_[mp->id];
        commitFetches(*mp, state);
        ++state.pendingReplays;
        ++replayedRuns_;
        executed_ += mp->fuelCost;
        if (attr_)
            for (uint32_t i = 0; i < mp->len; ++i)
                attr_->onInst(mp->start + i, mp->per[i].cost);
        if (prof_)
            for (uint32_t i = 0; i < mp->len; ++i)
                prof_->onInst(mp->start + i, mp->per[i].cost);
        const uint64_t term_fetch = cycle_;
        cycle_ += 1; // Terminator fetch: L1I hit, committed above.
        const uint32_t next =
            terminate(mp->start + mp->len, insts[mp->len], term_fetch);

        // Block chaining: when the successor already has an eligible
        // memo and its entry guards hold, continue replaying it right
        // here — no dispatcher round trip. These are run()'s guards
        // (tracks_ is null whenever replay runs), and a successor
        // without a memo goes back to run(), which may build one; so
        // the path taken and every sink feed are unchanged.
        if (halted_ || next >= pre_->size())
            return next;
        const RunMemo *n = code_->memoIfBuilt(next);
        if (!n || !n->eligible || executed_ + n->fuelCost > fuel_ ||
            !entryReady(*n) || !fetchGuard(*n))
            return next;
        mp = n;
    }
}

uint32_t
FastMachine::diverge(const RunMemo &m, uint32_t i, Outcome o)
{
    // The i body instructions retired plus the diverging one were all
    // fetched; their lines are resident (entry guard), so the fetch
    // sequence commits in bulk. L1I traffic never reaches L2 here, so
    // committing after the already-performed D-accesses preserves the
    // legacy hierarchy state exactly.
    const uint64_t entry = cycle_;
    const uint32_t idx = m.start + i;
    mem_.fetchRangeCommit(m.fetchFirst, prog_->addrOf(idx));
    const PInst *insts = pre_->insts().data() + m.start;
    for (uint32_t j = 0; j < i; ++j) {
        applyContrib(insts[j].contrib);
        applyDstWrite(insts[j].dstWrite);
    }
    counters_.instructions += i;
    executed_ += i;
    if (attr_)
        for (uint32_t j = 0; j < i; ++j)
            attr_->onInst(m.start + j, m.per[j].cost);
    if (prof_)
        for (uint32_t j = 0; j < i; ++j)
            prof_->onInst(m.start + j, m.per[j].cost);
    // Upper bound over the prefix's scoreboard writes (readyAt_ is
    // exact — the replay loop updated it per write).
    maxReady_ = std::max(maxReady_, entry + m.maxReadyOff);

    // The diverging instruction itself, from its issue cycle.
    const PInst &p = insts[i];
    applyContrib(p.contrib);
    ++counters_.instructions;
    ++executed_;
    cycle_ = entry + m.per[i].issueOff;
    return retire(idx, p, o, entry + m.per[i].cycBefore);
}

uint32_t
FastMachine::slowStep(uint32_t idx)
{
    ++slowInsts_;
    if (++executed_ > fuel_)
        fatal("machine execution out of fuel (infinite loop?)");

    const PInst &p = pre_->insts()[idx];
    const uint64_t cycle_at_fetch = cycle_;
    cycle_ += 1 + mem_.fetch(prog_->addrOf(idx));
    ++counters_.instructions;
    applyContrib(p.contrib);

    uint64_t ready = 0;
    for (uint32_t bits = p.readyMask; bits; bits &= bits - 1)
        ready = std::max(ready, readyAt_[__builtin_ctz(bits)]);
    if (ready > cycle_)
        cycle_ = ready;

    if (isTerminator(p.kind))
        return terminate(idx, p, cycle_at_fetch);
    return retire(idx, p, execute(p, cycle_), cycle_at_fetch);
}

uint32_t
FastMachine::run(const std::vector<uint32_t> &args)
{
    trace::Span span("core.run", "execute");
    span.arg("engine", "fast");
    bsAssert(args.size() <= 4, "run: more than 4 arguments");
    for (size_t i = 0; i < args.size(); ++i)
        regs_[i] = args[i];
    regs_[kRegLR] = MachProgram::kHaltAddr;

    cycle_ = 0;
    executed_ = 0;
    halted_ = false;
    retVal_ = 0;
    const uint32_t size = static_cast<uint32_t>(pre_->size());
    // A counter-track emitter samples at per-retire granularity; bulk
    // replay would shift its window boundaries, so tracing runs stay
    // on the cycle-accurate path and build no memos. Every
    // misspeculation policy replays: its checks run in execute(), in
    // program order on both paths, and a forced one diverges exactly
    // like a natural one.
    const bool replayable = !tracks_;

    uint32_t idx = 0;
    for (;;) {
        if (idx >= size)
            fatal(strFormat("PC out of code range: index %u", idx));
        // A memo is built on the first visit where its fetch guard
        // can hold: with a later I-line of the run not yet resident,
        // it could not replay on this visit anyway.
        const RunMemo *m = nullptr;
        if (replayable) {
            m = code_->memoIfBuilt(idx);
            if (!m && mem_.fetchRangeResident(
                          prog_->addrOf(idx),
                          prog_->addrOf(pre_->runEnd(idx))))
                m = &code_->buildMemoAt(idx);
        }
        if (m && m->eligible && executed_ + m->fuelCost <= fuel_ &&
            entryReady(*m) && fetchGuard(*m)) {
            idx = replay(*m);
        } else {
            idx = slowStep(idx);
        }
        if (halted_)
            return retVal_;
    }
}

} // namespace bitspec
