#include "uarch/core.h"

#include <algorithm>

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

constexpr uint32_t kBranchPenalty = 2;  ///< Taken-branch flush.
constexpr uint32_t kMisspecPenalty = 4; ///< Redirect + refill.
constexpr uint32_t kLoadLatency = 2;
constexpr uint32_t kMulLatency = 3;
constexpr uint32_t kDivLatency = 12;

} // namespace

Core::Core(const MachProgram &program, const Module &m)
    : prog_(program), module_(m), dataMem_(kMemBytes)
{
    reset();
}

void
Core::reset()
{
    dataMem_.zero();
    for (const auto &g : module_.globals()) {
        bsAssert(g->address() + g->sizeBytes() <= dataMem_.size(),
                 "global outside data memory");
        std::copy(g->data().begin(), g->data().end(),
                  dataMem_.begin() + g->address());
    }
    std::fill(std::begin(regs_), std::end(regs_), 0);
    std::fill(std::begin(readyAt_), std::end(readyAt_), 0);
    flags_ = Flags{};
    delta_ = 0;
    classicMode_ = false;
    counters_ = ActivityCounters{};
    output_.clear();
    outputHash_ = kFnvOffset;
    mem_ = MemoryHierarchy{};
}

uint64_t
Core::outputChecksum() const
{
    // Maintained incrementally as OUT executes; experiment harnesses
    // query it once per run without re-walking the output stream.
    return outputHash_;
}

bool
Core::condHolds(Cond c) const
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
Core::readOpnd(const MOpnd &o)
{
    switch (o.kind) {
      case MOpndKind::Reg:
        ++counters_.rfRead32;
        return regs_[o.reg];
      case MOpndKind::Slice:
        ++counters_.rfRead8;
        return (regs_[o.reg] >> (8 * o.slice)) & 0xff;
      case MOpndKind::Imm:
        return static_cast<uint32_t>(o.imm);
      default:
        panic("readOpnd: unallocated operand");
    }
}

void
Core::writeOpnd(const MOpnd &o, uint32_t value)
{
    switch (o.kind) {
      case MOpndKind::Reg:
        ++counters_.rfWrite32;
        regs_[o.reg] = value;
        return;
      case MOpndKind::Slice: {
        ++counters_.rfWrite8;
        uint32_t shift = 8 * o.slice;
        regs_[o.reg] =
            (regs_[o.reg] & ~(0xffu << shift)) |
            ((value & 0xff) << shift);
        return;
      }
      default:
        panic("writeOpnd: bad destination");
    }
}

uint32_t
Core::loadData(uint32_t addr, unsigned bytes)
{
    // 64-bit sum: addr + bytes wraps in 32 bits near UINT32_MAX and
    // would slip past the check (same bug class as the interpreter's
    // old loadMem/storeMem).
    if (static_cast<uint64_t>(addr) + bytes > dataMem_.size())
        fatal(strFormat("machine load out of bounds at 0x%x", addr));
    uint32_t v = 0;
    for (unsigned b = 0; b < bytes; ++b)
        v |= static_cast<uint32_t>(dataMem_[addr + b]) << (8 * b);
    return v;
}

void
Core::storeData(uint32_t addr, uint32_t value, unsigned bytes)
{
    if (static_cast<uint64_t>(addr) + bytes > dataMem_.size())
        fatal(strFormat("machine store out of bounds at 0x%x", addr));
    for (unsigned b = 0; b < bytes; ++b)
        dataMem_[addr + b] = static_cast<uint8_t>(value >> (8 * b));
}

uint32_t
Core::run(const std::vector<uint32_t> &args)
{
    trace::Span span("core.run", "execute");
    bsAssert(args.size() <= 4, "run: more than 4 arguments");
    for (size_t i = 0; i < args.size(); ++i)
        regs_[i] = args[i];
    regs_[kRegLR] = MachProgram::kHaltAddr;

    uint64_t cycle = 0;
    uint32_t idx = 0; // Flat instruction index (PC / 4 - base).
    uint64_t executed = 0;

    // Fetch-path state hoisted out of the per-instruction loop: the
    // instruction array (size/base pointer are loop-invariant) and a
    // dense per-tag counter array replacing the provenance switch.
    // Tag counts fold into counters_ at the clean-exit points only,
    // like cycles; an out-of-fuel/out-of-range throw leaves the
    // provenance counters unfinalized.
    const MachInst *flat = prog_.flat.data();
    const uint32_t flat_size =
        static_cast<uint32_t>(prog_.flat.size());
    // Observer pointers hoisted out of the loop: three loop-invariant
    // member loads per retire become register-resident locals.
    AttributionSink *const attr = attr_;
    BlockProfilerSink *const prof = prof_;
    CounterTrackEmitter *const tracks = tracks_;
    uint64_t tag_counts[kNumInstTags] = {};
    auto finish = [&](uint64_t final_cycle) {
        counters_.cycles = final_cycle;
        counters_.dynSpillLoads +=
            tag_counts[static_cast<size_t>(InstTag::SpillLoad)];
        counters_.dynSpillStores +=
            tag_counts[static_cast<size_t>(InstTag::SpillStore)];
        counters_.dynCopies +=
            tag_counts[static_cast<size_t>(InstTag::Copy)];
    };

    auto reg_ready = [&](const MOpnd &o) -> uint64_t {
        if (o.isReg() || o.isSlice())
            return readyAt_[o.reg];
        return 0;
    };

    for (;;) {
        if (idx >= flat_size)
            fatal(strFormat("PC out of code range: index %u", idx));
        if (++executed > fuel_)
            fatal("machine execution out of fuel (infinite loop?)");

        const MachInst &inst = flat[idx];
        uint32_t pc_addr =
            MachProgram::kCodeBase + idx * kInstBytes;
        const uint64_t cycle_at_fetch = cycle;

        // Fetch.
        cycle += 1 + mem_.fetch(pc_addr);
        ++counters_.instructions;
        ++tag_counts[static_cast<size_t>(inst.tag)];

        // Operand readiness (in-order issue stall).
        uint64_t ready = std::max(
            {reg_ready(inst.dst), reg_ready(inst.a),
             reg_ready(inst.b)});
        if (ready > cycle)
            cycle = ready;

        uint32_t next = idx + 1;
        bool wrote = false;
        uint64_t dst_ready = cycle + 1;

        auto misspeculate = [&]() {
            ++counters_.misspeculations;
            if (attr)
                attr->onMisspec(idx);
            if (prof)
                prof->onMisspec(idx);
            next = idx + delta_ / kInstBytes;
            cycle += kMisspecPenalty;
        };

        auto set_flags_sub = [&](uint64_t a, uint64_t b,
                                 unsigned bits) {
            uint64_t mask = lowMask(bits);
            uint64_t r = (a - b) & mask;
            flags_.z = r == 0;
            flags_.n = (r >> (bits - 1)) & 1;
            flags_.c = a >= b;
            bool sa = (a >> (bits - 1)) & 1;
            bool sb = (b >> (bits - 1)) & 1;
            bool sr = (r >> (bits - 1)) & 1;
            flags_.v = (sa != sb) && (sr != sa);
        };

        switch (inst.op) {
          case MOp::ADD: case MOp::SUB: case MOp::AND:
          case MOp::ORR: case MOp::EOR: case MOp::LSL:
          case MOp::LSR: case MOp::ASR: {
            ++counters_.alu32;
            uint32_t a = readOpnd(inst.a);
            uint32_t b = readOpnd(inst.b);
            uint32_t r = 0;
            switch (inst.op) {
              case MOp::ADD: r = a + b; break;
              case MOp::SUB: r = a - b; break;
              case MOp::AND: r = a & b; break;
              case MOp::ORR: r = a | b; break;
              case MOp::EOR: r = a ^ b; break;
              case MOp::LSL: r = b >= 32 ? 0 : a << b; break;
              case MOp::LSR: r = b >= 32 ? 0 : a >> b; break;
              case MOp::ASR:
                r = b >= 32
                        ? (static_cast<int32_t>(a) < 0 ? ~0u : 0)
                        : static_cast<uint32_t>(
                              static_cast<int32_t>(a) >>
                              b);
                break;
              default: break;
            }
            writeOpnd(inst.dst, r);
            wrote = true;
            break;
          }
          case MOp::MUL: {
            ++counters_.mulDiv;
            writeOpnd(inst.dst, readOpnd(inst.a) * readOpnd(inst.b));
            wrote = true;
            dst_ready = cycle + kMulLatency;
            break;
          }
          case MOp::UDIV: case MOp::SDIV: {
            ++counters_.mulDiv;
            uint32_t a = readOpnd(inst.a);
            uint32_t b = readOpnd(inst.b);
            if (b == 0)
                fatal("machine division by zero");
            uint32_t r =
                inst.op == MOp::UDIV
                    ? a / b
                    : static_cast<uint32_t>(
                          static_cast<int32_t>(a) /
                          static_cast<int32_t>(b));
            writeOpnd(inst.dst, r);
            wrote = true;
            dst_ready = cycle + kDivLatency;
            break;
          }
          case MOp::MOV: case MOp::MOV8: {
            ++(inst.op == MOp::MOV ? counters_.alu32 : counters_.alu8);
            if (condHolds(inst.cond)) {
                writeOpnd(inst.dst, readOpnd(inst.a));
                wrote = true;
            }
            break;
          }
          case MOp::MVN: {
            ++counters_.alu32;
            writeOpnd(inst.dst, ~readOpnd(inst.a));
            wrote = true;
            break;
          }
          case MOp::MOVW: {
            ++counters_.alu32;
            writeOpnd(inst.dst,
                      static_cast<uint32_t>(inst.a.imm) & 0xffff);
            wrote = true;
            break;
          }
          case MOp::MOVT: {
            ++counters_.alu32;
            uint32_t lo = regs_[inst.dst.reg] & 0xffff;
            ++counters_.rfRead32;
            writeOpnd(inst.dst,
                      (static_cast<uint32_t>(inst.a.imm) << 16) | lo);
            wrote = true;
            break;
          }
          case MOp::CMP: {
            ++counters_.alu32;
            set_flags_sub(readOpnd(inst.a), readOpnd(inst.b), 32);
            break;
          }
          case MOp::CMP8: {
            ++counters_.alu8;
            set_flags_sub(readOpnd(inst.a) & 0xff,
                          readOpnd(inst.b) & 0xff, 8);
            break;
          }
          case MOp::SETCC: {
            ++counters_.alu32;
            writeOpnd(inst.dst, condHolds(inst.cond) ? 1 : 0);
            wrote = true;
            break;
          }
          case MOp::SXTH: {
            ++counters_.alu32;
            writeOpnd(inst.dst, static_cast<uint32_t>(
                sextFrom(readOpnd(inst.a), 16)));
            wrote = true;
            break;
          }
          case MOp::UXTH: {
            ++counters_.alu32;
            writeOpnd(inst.dst, readOpnd(inst.a) & 0xffff);
            wrote = true;
            break;
          }
          case MOp::LDR: case MOp::LDRH: case MOp::LDRB: {
            ++counters_.loads;
            uint32_t addr = readOpnd(inst.a) +
                            static_cast<uint32_t>(inst.b.isImm()
                                                      ? inst.b.imm
                                                      : readOpnd(inst.b));
            unsigned bytes = inst.op == MOp::LDR ? 4
                             : inst.op == MOp::LDRH ? 2 : 1;
            uint32_t stall = mem_.data(addr, false);
            writeOpnd(inst.dst, loadData(addr, bytes));
            wrote = true;
            dst_ready = cycle + kLoadLatency + stall;
            break;
          }
          case MOp::LDRB8: {
            ++counters_.loads;
            uint32_t addr = readOpnd(inst.a) +
                            static_cast<uint32_t>(inst.b.isImm()
                                                      ? inst.b.imm
                                                      : readOpnd(inst.b));
            uint32_t stall = mem_.data(addr, false);
            writeOpnd(inst.dst, loadData(addr, 1));
            wrote = true;
            dst_ready = cycle + kLoadLatency + stall;
            break;
          }
          case MOp::LDRS8: {
            // Speculative load: reads the full-width location and
            // misspeculates when the value exceeds the slice.
            ++counters_.loads;
            uint32_t addr = readOpnd(inst.a) +
                            static_cast<uint32_t>(inst.b.isImm()
                                                      ? inst.b.imm
                                                      : readOpnd(inst.b));
            uint32_t stall = mem_.data(addr, false);
            unsigned bytes = inst.origBits == 16 ? 2 : 4;
            uint32_t v = loadData(addr, bytes);
            if (v > 0xff || shouldForce()) {
                cycle += stall;
                misspeculate();
                break;
            }
            writeOpnd(inst.dst, v);
            wrote = true;
            dst_ready = cycle + kLoadLatency + stall;
            break;
          }
          case MOp::STR: case MOp::STRH: case MOp::STRB:
          case MOp::STRB8: {
            ++counters_.stores;
            uint32_t addr = readOpnd(inst.a) +
                            static_cast<uint32_t>(inst.b.isImm()
                                                      ? inst.b.imm
                                                      : readOpnd(inst.b));
            unsigned bytes = inst.op == MOp::STR ? 4
                             : inst.op == MOp::STRH ? 2 : 1;
            cycle += mem_.data(addr, true);
            storeData(addr, readOpnd(inst.dst), bytes);
            break;
          }
          case MOp::ADD8: case MOp::SUB8: {
            ++counters_.alu8;
            uint32_t a = readOpnd(inst.a) & 0xff;
            uint32_t b = readOpnd(inst.b) & 0xff;
            if (inst.op == MOp::ADD8) {
                uint32_t full = a + b;
                if (inst.speculative && (full > 0xff || shouldForce())) {
                    misspeculate();
                    break;
                }
                writeOpnd(inst.dst, full & 0xff);
            } else {
                if (inst.speculative && (a < b || shouldForce())) {
                    misspeculate();
                    break;
                }
                writeOpnd(inst.dst, (a - b) & 0xff);
            }
            wrote = true;
            break;
          }
          case MOp::AND8: case MOp::ORR8: case MOp::EOR8: {
            ++counters_.alu8;
            uint32_t a = readOpnd(inst.a) & 0xff;
            uint32_t b = readOpnd(inst.b) & 0xff;
            uint32_t r = inst.op == MOp::AND8 ? (a & b)
                         : inst.op == MOp::ORR8 ? (a | b) : (a ^ b);
            writeOpnd(inst.dst, r);
            wrote = true;
            break;
          }
          case MOp::UXT8: {
            ++counters_.alu8;
            writeOpnd(inst.dst, readOpnd(inst.a) & 0xff);
            wrote = true;
            break;
          }
          case MOp::SXT8: {
            ++counters_.alu8;
            writeOpnd(inst.dst, static_cast<uint32_t>(
                sextFrom(readOpnd(inst.a) & 0xff, 8)));
            wrote = true;
            break;
          }
          case MOp::TRN8: {
            ++counters_.alu8;
            uint32_t v = readOpnd(inst.a);
            if (inst.speculative && (v > 0xff || shouldForce())) {
                misspeculate();
                break;
            }
            writeOpnd(inst.dst, v & 0xff);
            wrote = true;
            break;
          }
          case MOp::B: {
            ++counters_.branches;
            if (condHolds(inst.cond)) {
                ++counters_.takenBranches;
                next = static_cast<uint32_t>(inst.target);
                cycle += kBranchPenalty;
            }
            break;
          }
          case MOp::BL: {
            ++counters_.calls;
            regs_[kRegLR] = prog_.addrOf(idx + 1);
            next = static_cast<uint32_t>(inst.target);
            cycle += kBranchPenalty;
            break;
          }
          case MOp::BXLR: {
            ++counters_.branches;
            ++counters_.takenBranches;
            uint32_t lr = regs_[kRegLR];
            cycle += kBranchPenalty;
            if (lr == MachProgram::kHaltAddr) {
                if (attr)
                    attr->onInst(idx, cycle - cycle_at_fetch);
                if (prof)
                    prof->onInst(idx, cycle - cycle_at_fetch);
                finish(cycle);
                if (tracks)
                    tracks->finish(counters_, mem_, cycle);
                return regs_[0];
            }
            next = prog_.indexOf(lr);
            break;
          }
          case MOp::OUT: {
            uint64_t v = readOpnd(inst.a);
            output_.push_back(v);
            for (unsigned b = 0; b < 8; ++b) {
                outputHash_ ^= (v >> (8 * b)) & 0xff;
                outputHash_ *= kFnvPrime;
            }
            ++counters_.outputs;
            break;
          }
          case MOp::SETDELTA:
            delta_ = static_cast<uint32_t>(inst.a.imm);
            break;
          case MOp::MODE:
            classicMode_ = inst.a.imm == 0;
            break;
          case MOp::NOP:
            break;
          case MOp::HALT:
            if (attr)
                attr->onInst(idx, cycle - cycle_at_fetch);
            if (prof)
                prof->onInst(idx, cycle - cycle_at_fetch);
            finish(cycle);
            if (tracks)
                tracks->finish(counters_, mem_, cycle);
            return regs_[0];
        }

        if (wrote && (inst.dst.isReg() || inst.dst.isSlice()))
            readyAt_[inst.dst.reg] = dst_ready;

        if (attr)
            attr->onInst(idx, cycle - cycle_at_fetch);
        if (prof)
            prof->onInst(idx, cycle - cycle_at_fetch);
        if (tracks)
            tracks->onRetire(counters_, mem_, cycle);
        idx = next;
    }
}

} // namespace bitspec
