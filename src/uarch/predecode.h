/**
 * @file
 * Pre-decoded EMB32 program: the linked MachProgram flattened into a
 * dispatch-friendly form the fast core engine executes directly
 * (paper §4.1 infrastructure; same decode-once playbook as
 * interp/decode.h, one layer down).
 *
 * Each MachInst becomes one PInst: a dense handler kind replacing the
 * nested opcode/operand switches, operands pre-resolved to
 * (reg, shift, mask) triples so reads and writes are branch-free, a
 * pre-computed scoreboard-readiness register mask, the destination
 * latency, and a CounterContrib holding every ActivityCounters bump
 * the instruction makes unconditionally — the per-instruction
 * energy/latency contribution, ready to be summed per block.
 *
 * The table is immutable once built and independent of run state, so
 * one PredecodedProgram is shared by every run of a System, as is the
 * FastCore memo table built on it.
 */

#ifndef BITSPEC_UARCH_PREDECODE_H_
#define BITSPEC_UARCH_PREDECODE_H_

#include <cstdint>
#include <vector>

#include "backend/mir.h"

namespace bitspec
{

/** Handler index of one pre-decoded instruction. One kind per
 *  distinct execute behaviour; operand-width variants collapse into
 *  the operand descriptors (Load covers LDR/LDRH/LDRB/LDRB8). */
enum class PKind : uint8_t
{
    AluAdd, AluSub, AluAnd, AluOrr, AluEor, AluLsl, AluLsr, AluAsr,
    Mul,
    Div,      ///< aux = 1 for SDIV.
    Mov,      ///< Unconditional MOV/MOV8 (cond == AL).
    MovCond,  ///< Conditional MOV/MOV8: rf events depend on flags.
    Mvn,
    Movw, Movt,
    Cmp, Cmp8,
    Setcc,
    Sxth, Uxth, Uxt8, Sxt8,
    Load,     ///< LDR/LDRH/LDRB/LDRB8; aux = bytes.
    LoadSpec, ///< LDRS8; aux = checked memory width in bytes.
    Store,    ///< STR/STRH/STRB/STRB8; aux = bytes.
    Add8,     ///< aux = 1 speculative (misspec on carry out).
    Sub8,     ///< aux = 1 speculative (misspec on borrow).
    Logic8And, Logic8Orr, Logic8Eor,
    Trn8,     ///< aux = 1 speculative (misspec when rn > 255).
    Branch, Call, Ret,
    Out, SetDelta, Mode, Nop, Halt,
    Bad,      ///< Unallocated operand; executes as the legacy panic.
};

/** Branch/Call/Ret/Halt: the kinds that end a straight-line run. */
inline bool
isTerminator(PKind k)
{
    return k == PKind::Branch || k == PKind::Call ||
           k == PKind::Ret || k == PKind::Halt;
}

/** Pre-resolved operand: read = isImm ? imm : (regs[reg]>>shift)&mask,
 *  write = merge of (value & mask) << shift into regs[reg]. Reg
 *  operands get mask 0xffffffff/shift 0, slices mask 0xff/shift 8*i,
 *  so both paths are branch-free. */
struct POpnd
{
    uint32_t mask = 0xffffffffu;
    uint32_t imm = 0;
    uint8_t reg = 0;
    uint8_t shift = 0;
    bool isImm = false;
};

/** Unconditional ActivityCounters bumps of one instruction: ALU
 *  class, rf *reads*, memory/branch/output events and provenance-tag
 *  counts. Destination rf writes are NOT here (PInst::dstWrite) —
 *  speculative forms skip the write on misspeculation, and
 *  conditional moves skip it on a false condition, so write events
 *  commit separately. */
struct CounterContrib
{
    uint8_t alu32 = 0, alu8 = 0, mulDiv = 0;
    uint8_t rfRead32 = 0, rfRead8 = 0;
    uint8_t loads = 0, stores = 0;
    uint8_t branches = 0, takenBranches = 0, calls = 0;
    uint8_t outputs = 0;
    uint8_t dynSpillLoads = 0, dynSpillStores = 0, dynCopies = 0;
};

/** One pre-decoded instruction. */
struct PInst
{
    PKind kind = PKind::Nop;
    uint8_t aux = 0;          ///< Kind-specific (bytes / signed / spec).
    Cond cond = Cond::AL;
    /** Destination rf event on a committed write: 0 none,
     *  1 rfWrite32, 2 rfWrite8. MovCond keeps 0 and accounts its own
     *  conditional events. */
    uint8_t dstWrite = 0;
    /** Cycles until the destination value is ready (scoreboard);
     *  loads add their dynamic miss stall on top. */
    uint8_t latency = 1;
    /** Registers whose readiness the in-order issue consults (dst, a,
     *  b when Reg/Slice) — bit r for register r. */
    uint16_t readyMask = 0;
    POpnd dst, a, b;
    uint32_t target = 0;      ///< Branch/Call flat target index.
    CounterContrib contrib;
};

/** The whole linked program, decoded once. */
class PredecodedProgram
{
  public:
    /** @p prog must outlive the table (operands alias nothing, but
     *  FastMachine still links/halts through the MachProgram). */
    explicit PredecodedProgram(const MachProgram &prog);

    const std::vector<PInst> &insts() const { return insts_; }
    const MachProgram &prog() const { return prog_; }
    size_t size() const { return insts_.size(); }

    /** End of the straight-line run through @p idx: the index of the
     *  first terminator at or after it, or size() when the code ends
     *  first. */
    uint32_t runEnd(uint32_t idx) const { return runEnd_[idx]; }

  private:
    const MachProgram &prog_;
    std::vector<PInst> insts_;
    std::vector<uint32_t> runEnd_;
};

} // namespace bitspec

#endif // BITSPEC_UARCH_PREDECODE_H_
