#include <gtest/gtest.h>

#include "backend/compiler.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "obs/profiler.h"
#include "profile/bitwidth_profile.h"
#include "support/error.h"
#include "support/str.h"
#include "transform/squeezer.h"
#include "uarch/core.h"
#include "uarch/fast_core.h"
#include "uarch/predecode.h"

namespace bitspec
{
namespace
{

/** The skeleton-layout invariant (paper §3.3.4): for every
 *  instruction in a function's speculative area at flat index p, the
 *  slot at p + Δ/4 holds a skeleton branch; and for instructions that
 *  can actually misspeculate, that branch targets a handler block of
 *  the right region. */
TEST(Layout, SkeletonInvariantHolds)
{
    const char *src = R"(
        u8 data[64] = "skeletons for every speculative instruction";
        u32 main(u32 n) {
            u32 h = 0;
            for (u32 i = 0; i < n; i++)
                h = (h + data[i % 44]) % 199;
            return h;
        }
    )";
    auto mod = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*mod, "main", {44});
    SqueezeOptions opts;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);

    const auto &flat = cp.program.flat;
    unsigned checked = 0;
    for (uint32_t i = 0; i < flat.size(); ++i) {
        if (!mayMisspeculate(flat[i]))
            continue;
        // Find this function's delta.
        uint32_t func = cp.program.funcOfIndex[i];
        uint32_t delta = 0;
        for (const auto &mf : cp.program.funcs)
            if (static_cast<uint32_t>(mf.id) == func)
                delta = mf.delta;
        ASSERT_GT(delta, 0u) << "speculative op with no delta";
        uint32_t slot = i + delta / kInstBytes;
        ASSERT_LT(slot, flat.size());
        EXPECT_EQ(flat[slot].op, MOp::B) << "index " << i;
        EXPECT_EQ(flat[slot].tag, InstTag::Skeleton) << "index " << i;
        EXPECT_EQ(flat[slot].cond, Cond::AL);
        ++checked;
    }
    EXPECT_GT(checked, 0u) << "no speculative instructions emitted";
}

TEST(Core, SliceWritesAliasFullRegister)
{
    // Squeezed code interleaves slice and word accesses to the same
    // architectural registers; this kernel fails unless slice writes
    // land in the right byte of the full register and vice versa.
    const char *src = R"(
        u8 bytes[16] = "aliasing check!";
        u32 main() {
            u32 acc = 0;
            for (u32 i = 0; i < 15; i++) {
                u32 lo = bytes[i];           // Slice-held value.
                u32 wide = lo * 0x01010101;  // Word compute from it.
                acc ^= wide;
                acc = (acc >> 8) | ((acc & 0xff) << 24);
            }
            return acc;
        }
    )";
    auto ref = compileSource(src);
    Interpreter in(*ref);
    uint64_t want = truncTo(in.run("main"), 32);

    auto mod = compileSource(src);
    BitwidthProfile profile;
    profile.profileRun(*mod);
    SqueezeOptions opts;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);
    Core core(cp.program, *mod);
    EXPECT_EQ(core.run(), want);
    EXPECT_GT(core.counters().rfWrite8, 0u);
}

TEST(Core, FuelGuardsAgainstRunaway)
{
    const char *src = "u32 main() { u32 x = 1; while (x) { x = 1; } "
                      "return x; }";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    Core core(cp.program, *mod);
    core.setFuel(5000);
    EXPECT_THROW(core.run(), FatalError);
}

TEST(Core, ResetRestoresGlobalsAndCounters)
{
    const char *src = R"(
        u32 state;
        u32 main() { state = state + 7; return state; }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    Core core(cp.program, *mod);
    EXPECT_EQ(core.run(), 7u);
    core.reset();
    EXPECT_EQ(core.run(), 7u); // Not 14: memory reloaded.
    EXPECT_GT(core.counters().instructions, 0u);
}

TEST(Core, CyclesExceedInstructionsWithMemoryTraffic)
{
    const char *src = R"(
        u32 buf[512];
        u32 main() {
            u32 s = 0;
            for (u32 i = 0; i < 512; i++) buf[i] = i;
            for (u32 i = 0; i < 512; i++) s += buf[i] * 3;
            return s;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    Core core(cp.program, *mod);
    core.run();
    const ActivityCounters &c = core.counters();
    EXPECT_GT(c.cycles, c.instructions); // Stalls exist.
    EXPECT_GT(c.loads, 500u);
    EXPECT_GT(c.stores, 500u);
    EXPECT_GT(core.memory().l1d().misses, 0u);
}

TEST(Core, ThumbExecutesMoreInstructions)
{
    const char *src = R"(
        u32 main(u32 n) {
            u32 a = 1; u32 b = 2; u32 c = 3;
            for (u32 i = 0; i < n; i++) {
                u32 t = a + b;
                a = b ^ c;
                b = c + t;
                c = t;
            }
            return a + b + c;
        }
    )";
    auto m1 = compileSource(src);
    CompiledProgram base = compileModule(*m1, TargetISA::Baseline);
    auto m2 = compileSource(src);
    CompiledProgram thumb = compileModule(*m2, TargetISA::Thumb);

    Core cb(base.program, *m1);
    Core ct(thumb.program, *m2);
    EXPECT_EQ(cb.run({100}), ct.run({100}));
    EXPECT_GT(ct.counters().instructions,
              cb.counters().instructions);
}

/** Hand-build a program running one memory op against @p addr, then
 *  HALT. Address arrives via an immediate base operand. */
MachProgram
memProbeProgram(MOp op, uint32_t addr)
{
    MachProgram prog;
    MachInst m;
    m.op = op;
    m.dst = MOpnd::makeReg(1);
    m.a = MOpnd::makeImm(static_cast<int64_t>(addr));
    m.b = MOpnd::makeImm(0);
    prog.flat.push_back(m);
    MachInst halt;
    halt.op = MOp::HALT;
    prog.flat.push_back(halt);
    return prog;
}

/** Hand-build a loop running one memory op per pass at r0, stepping
 *  r0 by r1 and counting r2 passes down, then HALT. Run with
 *  {0, addr, 2}: the first pass touches address 0 and warms the
 *  loop's I-line, so FastCore under the Hardware policy replays the
 *  second pass, which touches @c addr. The data operand is r3, or
 *  its byte 1 for the slice forms LDRB8/STRB8. */
MachProgram
memLoopProgram(MOp op)
{
    auto inst = [](MOp o, MOpnd dst, MOpnd a, MOpnd b) {
        MachInst m;
        m.op = o;
        m.dst = dst;
        m.a = a;
        m.b = b;
        return m;
    };
    const MOpnd r0 = MOpnd::makeReg(0), r1 = MOpnd::makeReg(1),
                r2 = MOpnd::makeReg(2), r3 = MOpnd::makeReg(3);
    const MOpnd data = op == MOp::LDRB8 || op == MOp::STRB8
                           ? MOpnd::makeSlice(3, 1)
                           : r3;
    MachProgram prog;
    prog.flat.push_back(inst(op, data, r0, MOpnd::makeImm(0)));
    prog.flat.push_back(inst(MOp::ADD, r0, r0, r1));
    prog.flat.push_back(inst(MOp::SUB, r2, r2, MOpnd::makeImm(1)));
    prog.flat.push_back(inst(MOp::CMP, MOpnd{}, r2, MOpnd::makeImm(0)));
    MachInst back;
    back.op = MOp::B;
    back.cond = Cond::NE;
    back.target = 0;
    prog.flat.push_back(back);
    MachInst halt;
    halt.op = MOp::HALT;
    prog.flat.push_back(halt);
    return prog;
}

/** what() of the FatalError @p run throws; "" when it returns. */
template <typename Run>
std::string
fatalWhat(Run &&run)
{
    try {
        run();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** Run @p prog with @p args on the legacy Core and on FastCore: under
 *  Hardware, ForceFirst and Random (each must replay memos once the
 *  code is resident), and under Hardware with a counter-track
 *  emitter attached (slow path only). Each FastCore leg must raise
 *  the fatal of the legacy Core under the same policy, or return the
 *  same r0, and every policy must end like Hardware. Returns the
 *  legacy Hardware fatal message. */
std::string
expectSameFatal(const MachProgram &prog, const Module &mod,
                const std::vector<uint32_t> &args)
{
    struct Leg
    {
        MisspecPolicy policy;
        bool tracked;
    };
    uint32_t want_ret = 0;
    std::string want;
    PredecodedProgram pre(prog);
    for (Leg leg : {Leg{MisspecPolicy::Hardware, false},
                    Leg{MisspecPolicy::ForceFirst, false},
                    Leg{MisspecPolicy::Random, false},
                    Leg{MisspecPolicy::Hardware, true}}) {
        SCOPED_TRACE(std::string(misspecPolicyName(leg.policy)) +
                     (leg.tracked ? " with counter tracks" : ""));
        Core legacy(prog, mod);
        legacy.setMisspecPolicy(leg.policy);
        uint32_t legacy_ret = 0;
        const std::string legacy_fatal =
            fatalWhat([&] { legacy_ret = legacy.run(args); });
        if (leg.policy == MisspecPolicy::Hardware && !leg.tracked) {
            want = legacy_fatal;
            want_ret = legacy_ret;
        }
        EXPECT_EQ(legacy_fatal, want);

        FastCore code(pre);
        FastMachine fast;
        CounterTrackEmitter tracks;
        fast.bind(code, mod);
        fast.setMisspecPolicy(leg.policy);
        if (leg.tracked)
            fast.setCounterTracks(&tracks);
        uint32_t ret = 0;
        EXPECT_EQ(fatalWhat([&] { ret = fast.run(args); }), legacy_fatal);
        if (legacy_fatal.empty()) {
            EXPECT_EQ(ret, legacy_ret);
            EXPECT_EQ(legacy_ret, want_ret);
        }
        if (leg.tracked) {
            EXPECT_EQ(fast.replayedRuns(), 0u);
            EXPECT_EQ(code.memoCount(), 0u);
        } else {
            EXPECT_GT(fast.replayedRuns(), 0u);
        }
    }
    return want;
}

TEST(Core, LoadBoundsCheckDoesNotWrapNearAddressMax)
{
    // addr + bytes overflows uint32_t (0xFFFFFFFD + 4 == 1), so a
    // 32-bit comparison would accept the access and read far out of
    // bounds. The check must be performed in 64 bits.
    auto mod = compileSource("u32 main() { return 0; }");
    MachProgram prog = memProbeProgram(MOp::LDR, 0xFFFFFFFDu);
    Core core(prog, *mod);
    EXPECT_THROW(core.run(), FatalError);

    // FastCore raises the same fatal on its slow and replay paths.
    EXPECT_EQ(expectSameFatal(memLoopProgram(MOp::LDR), *mod,
                              {0, 0xFFFFFFFDu, 2}),
              "fatal: machine load out of bounds at 0xfffffffd");
}

TEST(Core, StoreBoundsCheckDoesNotWrapNearAddressMax)
{
    auto mod = compileSource("u32 main() { return 0; }");
    MachProgram prog = memProbeProgram(MOp::STR, 0xFFFFFFFEu);
    Core core(prog, *mod);
    EXPECT_THROW(core.run(), FatalError);

    EXPECT_EQ(expectSameFatal(memLoopProgram(MOp::STR), *mod,
                              {0, 0xFFFFFFFEu, 2}),
              "fatal: machine store out of bounds at 0xfffffffe");
}

TEST(Core, StraddlingAccessAtMemoryEndIsRejected)
{
    // Non-wrapping case: a 4-byte access whose last byte falls one
    // past the data memory must also fault.
    auto mod = compileSource("u32 main() { return 0; }");
    uint32_t end = static_cast<uint32_t>(Core::kMemBytes);
    MachProgram prog = memProbeProgram(MOp::LDR, end - 3);
    Core core(prog, *mod);
    EXPECT_THROW(core.run(), FatalError);

    // The last fully in-bounds word is fine.
    MachProgram ok = memProbeProgram(MOp::LDR, end - 4);
    Core core2(ok, *mod);
    EXPECT_EQ(core2.run(), 0u);

    MachProgram loop = memLoopProgram(MOp::LDR);
    EXPECT_EQ(expectSameFatal(loop, *mod, {0, end - 3, 2}),
              strFormat("fatal: machine load out of bounds at 0x%x",
                        end - 3));
    EXPECT_EQ(expectSameFatal(loop, *mod, {0, end - 4, 2}), "");

    // The word-store micro-op checks the same way.
    MachProgram store = memLoopProgram(MOp::STR);
    EXPECT_EQ(expectSameFatal(store, *mod, {0, end - 3, 2}),
              strFormat("fatal: machine store out of bounds at 0x%x",
                        end - 3));
    EXPECT_EQ(expectSameFatal(store, *mod, {0, end - 4, 2}), "");
}

TEST(Core, ByteAccessPastMemoryEndIsRejected)
{
    // A byte store from a register (a generic replay op) and a byte
    // load into a slice (a replay micro-op): the first byte past the
    // data memory faults, the last one inside it does not.
    auto mod = compileSource("u32 main() { return 0; }");
    uint32_t end = static_cast<uint32_t>(Core::kMemBytes);
    for (MOp op : {MOp::STRB, MOp::LDRB8}) {
        const char *access = op == MOp::STRB ? "store" : "load";
        SCOPED_TRACE(access);
        MachProgram loop = memLoopProgram(op);
        EXPECT_EQ(expectSameFatal(loop, *mod, {0, end, 2}),
                  strFormat("fatal: machine %s out of bounds at 0x%x",
                            access, end));
        EXPECT_EQ(expectSameFatal(loop, *mod, {0, end - 1, 2}), "");
        EXPECT_EQ(expectSameFatal(loop, *mod, {0, 0xFFFFFFFFu, 2}),
                  strFormat("fatal: machine %s out of bounds at 0x%x",
                            access, 0xFFFFFFFFu));
    }
}

TEST(Core, DivisionByZeroFatalMatchesOnEveryEngine)
{
    // The divisor reaches zero only after the loop block has gone hot,
    // so FastCore under Hardware traps inside a replayed run.
    auto mod = compileSource(R"(
        u32 main(u32 n) {
            u32 h = 0;
            for (u32 i = 0; i < 300; i++)
                h = h + 1000 / (n - i);
            return h;
        }
    )");
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    EXPECT_EQ(expectSameFatal(cp.program, *mod, {100}),
              "fatal: machine division by zero");
    // Control: a divisor that never reaches zero runs to completion.
    EXPECT_EQ(expectSameFatal(cp.program, *mod, {1000}), "");
}

} // namespace
} // namespace bitspec
