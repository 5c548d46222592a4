/**
 * @file
 * Targeted unit tests of the fast core engine: memo-guard divergence
 * (hot block -> cache miss or misspeculation -> hot again), memo
 * persistence across rebinds, one memo table shared by machines on
 * several threads, no memos for runs that cannot replay, fuel
 * accounting under replay, and the BITSPEC_CORE_ENGINE knob on
 * System.
 *
 * Whole-workload equivalence lives in core_engine_diff_test.cc; these
 * tests construct small kernels where the divergence paths are
 * guaranteed to fire and assert them via replayedRuns()/slowInsts().
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "backend/compiler.h"
#include "core/system.h"
#include "frontend/irgen.h"
#include "obs/profiler.h"
#include "profile/bitwidth_profile.h"
#include "support/error.h"
#include "support/str.h"
#include "transform/squeezer.h"
#include "uarch/core.h"
#include "uarch/fast_core.h"
#include "uarch/predecode.h"
#include "uarch/telemetry.h"

namespace bitspec
{
namespace
{

template <typename Engine>
RunTelemetry
telemetryOf(const Engine &core)
{
    const MemoryHierarchy &m = core.memory();
    return {core.counters(), m.l1i(), m.l1d(), m.l2(), m.dram()};
}

void
expectSameObservables(const Core &legacy, const FastMachine &fast)
{
    EXPECT_EQ(firstTelemetryDiff(telemetryOf(legacy), telemetryOf(fast)),
              "");
    EXPECT_EQ(legacy.outputChecksum(), fast.outputChecksum());
}

/** FastCore's counters and L1D stats, for kernel-specific checks. */
struct FastRun
{
    ActivityCounters counters;
    CacheStats l1d;
};

/** Run @p prog with @p args on both engines: same return value and
 *  observables, and FastCore took both the replay and the slow path
 *  (so at least one replayed run diverged or failed its guards). */
FastRun
expectBothPathsExact(const MachProgram &prog, const Module &mod,
                     const std::vector<uint32_t> &args)
{
    Core legacy(prog, mod);
    uint32_t want = legacy.run(args);

    PredecodedProgram pre(prog);
    FastCore code(pre);
    FastMachine fast;
    fast.bind(code, mod);
    EXPECT_EQ(fast.run(args), want);
    expectSameObservables(legacy, fast);
    EXPECT_GT(fast.replayedRuns(), 0u);
    EXPECT_GT(fast.slowInsts(), 0u);
    return {fast.counters(), fast.memory().l1d()};
}

TEST(FastCore, HotMissHotStreamingLoadsStayExact)
{
    // 16 KiB arrays vs the 8 KiB L1D: every pass re-misses each line,
    // so the inner-loop block cycles hot -> D-miss divergence -> hot
    // again continuously. The memo must replay the hit iterations and
    // fall out exactly at each miss. Word elements load through the
    // replay micro-op, u16/u8 elements through the generic sub-word
    // Load; the store kernel takes the other miss shape, a store
    // stall that delays the pipeline rather than a destination.
    struct Kernel
    {
        const char *elem;
        unsigned count;
        const char *stmt;
    };
    const char *load = "h = h * 31 + data[i];";
    for (Kernel k : {Kernel{"u32", 4096, load}, Kernel{"u16", 8192, load},
                     Kernel{"u8", 16384, load},
                     Kernel{"u32", 4096, "data[i] = i ^ p;"}}) {
        SCOPED_TRACE(std::string(k.elem) + " " + k.stmt);
        const std::string src = strFormat(R"(
            %s data[%u];
            u32 main(u32 passes) {
                u32 h = 0;
                for (u32 p = 0; p < passes; p++)
                    for (u32 i = 0; i < %u; i++)
                        %s
                return h + data[7];
            }
        )", k.elem, k.count, k.count, k.stmt);
        auto mod = compileSource(src);
        CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
        FastRun t = expectBothPathsExact(cp.program, *mod, {3});
        // Streaming re-misses across passes: well beyond one pass'
        // worth of cold misses (16 KiB / 32-byte lines = 512).
        EXPECT_GT(t.l1d.misses, 1000u);
    }
}

TEST(FastCore, HotMisspecHotStaysExact)
{
    // Trained on a short run, the accumulator squeezes to 8 bits;
    // the long run overflows it repeatedly, so the hot loop block
    // cycles replay -> misspeculation divergence -> replay.
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
    profile.profileRun(*mod, "main", {4});
    SqueezeOptions opts;
    squeezeModule(*mod, profile, opts);
    CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);
    FastRun t = expectBothPathsExact(cp.program, *mod, {44});
    EXPECT_GT(t.counters.misspeculations, 0u);

    // The squeezer never narrows a load whose address needs more than
    // 8 bits (every global lives above 64 KiB), so the speculative
    // load is hand-built: a loop over 256 words with LDRS8, whose
    // misspeculation redirect (Delta = 8 slots) skips the load's
    // result. Words 100 and 200 are wide and misspeculate inside the
    // hot, replayed loop; every eighth word also D-misses.
    auto data_mod = compileSource("u32 data[256]; u32 main() { return 0; }");
    Global &data = *data_mod->globals()[0];
    for (size_t i = 0; i < data.elemCount(); ++i)
        data.setElem(i, i == 100 || i == 200 ? 1000 : i & 0x7f);
    auto inst = [](MOp op, MOpnd dst, MOpnd a, MOpnd b) {
        MachInst m;
        m.op = op;
        m.dst = dst;
        m.a = a;
        m.b = b;
        return m;
    };
    const MOpnd r0 = MOpnd::makeReg(0), r2 = MOpnd::makeReg(2),
                imm0 = MOpnd::makeImm(0);
    MachProgram prog;
    prog.flat.push_back(
        inst(MOp::SETDELTA, MOpnd{}, MOpnd::makeImm(8 * kInstBytes), {}));
    MachInst ld = inst(MOp::LDRS8, MOpnd::makeSlice(1, 0), r0, imm0);
    ld.speculative = true;
    ld.origBits = 32;
    prog.flat.push_back(ld);                                    // 1
    prog.flat.push_back(inst(MOp::ADD, r0, r0, MOpnd::makeImm(4)));
    prog.flat.push_back(inst(MOp::SUB, r2, r2, MOpnd::makeImm(1)));
    prog.flat.push_back(inst(MOp::CMP, MOpnd{}, r2, imm0));
    MachInst back = inst(MOp::B, {}, {}, {});
    back.cond = Cond::NE;
    back.target = 1;
    prog.flat.push_back(back);                                  // 5
    prog.flat.push_back(inst(MOp::HALT, {}, {}, {}));
    prog.flat.push_back(inst(MOp::NOP, {}, {}, {}));
    prog.flat.push_back(inst(MOp::NOP, {}, {}, {}));
    MachInst redirect = inst(MOp::B, {}, {}, {});
    redirect.target = 2;
    prog.flat.push_back(redirect);                              // 1 + 8
    FastRun spec = expectBothPathsExact(
        prog, *data_mod, {data.address(), 0, 256});
    EXPECT_EQ(spec.counters.misspeculations, 2u);
    EXPECT_GT(spec.l1d.misses, 0u);
}

TEST(FastCore, ResetPreservesMemosAndStaysDeterministic)
{
    const char *src = R"(
        u32 data[256];
        u32 main(u32 n) {
            u32 h = 0;
            for (u32 r = 0; r < n; r++)
                for (u32 i = 0; i < 256; i++)
                    h = h * 31 + (data[i] ^ (h >> 5));
            return h;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore code(pre);
    FastMachine fast;
    fast.bind(code, *mod);

    uint32_t first = fast.run({8});
    ActivityCounters cold = fast.counters();
    size_t memos = code.memoCount();
    uint64_t replays = code.replayedRuns();
    EXPECT_GT(memos, 0u);
    EXPECT_GT(replays, 0u);
    EXPECT_EQ(replays, fast.replayedRuns());

    // Rebinding reloads globals/counters; the memo table belongs to
    // the FastCore (geometry-only) and survives. The warm run must be
    // bit-identical, and the FastCore's counts are cumulative.
    fast.bind(code, *mod);
    EXPECT_EQ(fast.run({8}), first);
    EXPECT_EQ(fast.counters().instructions, cold.instructions);
    EXPECT_EQ(fast.counters().cycles, cold.cycles);
    EXPECT_EQ(code.memoCount(), memos);
    EXPECT_EQ(code.replayedRuns(), replays + fast.replayedRuns());
}

/** Copies of the observables of one finished machine run. */
struct MachineRun
{
    uint32_t ret = 0;
    uint64_t checksum = 0;
    ActivityCounters counters;
    CacheStats l1i, l1d, l2;
    DramStats dram;

    RunTelemetry telemetry() const { return {counters, l1i, l1d, l2, dram}; }
};

MachineRun
machineRun(const FastMachine &m, uint32_t ret)
{
    const MemoryHierarchy &mem = m.memory();
    return {ret,       m.outputChecksum(), m.counters(), mem.l1i(),
            mem.l1d(), mem.l2(),           mem.dram()};
}

TEST(FastCore, MachinesShareOneMemoTableAcrossThreads)
{
    // Four threads, each with its own machine, run one FastCore at
    // once, starting cold so that they race to build and publish the
    // same memos. Every run must match the serial one exactly, and
    // the table must hold exactly the memos one serial run builds.
    const char *src = R"(
        u32 data[2048];
        u32 main(u32 n) {
            u32 h = 0;
            for (u32 r = 0; r < n; r++)
                for (u32 i = 0; i < 2048; i++) {
                    if (data[i] & 1)
                        h = h * 31 + data[i];
                    else
                        h = h ^ (h >> 3);
                    data[i] = h + i;
                }
            return h;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);

    FastCore serial_code(pre);
    FastMachine serial;
    serial.bind(serial_code, *mod);
    const MachineRun want = machineRun(serial, serial.run({6}));

    // A fresh table per round: each round races the cold start again.
    constexpr unsigned kRounds = 8, kThreads = 4, kRuns = 3;
    for (unsigned round = 0; round < kRounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        FastCore code(pre);
        std::vector<std::vector<MachineRun>> got(kThreads);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                FastMachine m;
                for (unsigned r = 0; r < kRuns; ++r) {
                    m.bind(code, *mod);
                    const uint32_t ret = m.run({6});
                    got[t].push_back(machineRun(m, ret));
                }
            });
        for (std::thread &th : threads)
            th.join();

        for (unsigned t = 0; t < kThreads; ++t)
            for (const MachineRun &r : got[t]) {
                EXPECT_EQ(r.ret, want.ret);
                EXPECT_EQ(r.checksum, want.checksum);
                EXPECT_EQ(
                    firstTelemetryDiff(r.telemetry(), want.telemetry()),
                    "");
            }
        EXPECT_EQ(code.memoCount(), serial_code.memoCount());
        EXPECT_EQ(code.replayedRuns(),
                  serial_code.replayedRuns() * kThreads * kRuns);
    }
}

TEST(FastCore, RunsThatCannotReplayBuildNoMemos)
{
    // Memos bake in the Hardware policy and bulk accounting, so runs
    // under another policy or with counter tracks attached must leave
    // the table empty; a Hardware run then builds and replays it.
    const char *src = R"(
        u32 state;
        u32 main(u32 n) {
            for (u32 i = 0; i < n; i++)
                state = state * 3 + 1;
            return state;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore code(pre);
    FastMachine fast;

    for (MisspecPolicy p :
         {MisspecPolicy::ForceFirst, MisspecPolicy::Random}) {
        fast.bind(code, *mod);
        fast.setMisspecPolicy(p);
        fast.run({32});
    }
    CounterTrackEmitter tracks;
    fast.bind(code, *mod);
    fast.setCounterTracks(&tracks);
    fast.run({32});
    EXPECT_EQ(code.memoCount(), 0u);
    EXPECT_EQ(code.replayedRuns(), 0u);
    EXPECT_GT(code.slowInsts(), 0u);

    fast.bind(code, *mod);
    fast.run({32});
    EXPECT_GT(code.memoCount(), 0u);
    EXPECT_GT(code.replayedRuns(), 0u);
}

TEST(FastCore, FuelGuardsAgainstRunawayUnderReplay)
{
    const char *src = "u32 main() { u32 x = 1; while (x) { x = 1; } "
                      "return x; }";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore code(pre);
    FastMachine fast;
    fast.bind(code, *mod);
    fast.setFuel(5000);
    EXPECT_THROW(fast.run(), FatalError);
}

/** Restores BITSPEC_CORE_ENGINE around each knob test. */
class CoreEngineKnob : public ::testing::Test
{
  protected:
    void TearDown() override { ::unsetenv("BITSPEC_CORE_ENGINE"); }

    static System makeSystem()
    {
        return System("u32 main() { return 7; }",
                      SystemConfig::baseline());
    }
};

TEST_F(CoreEngineKnob, DefaultsToFast)
{
    ::unsetenv("BITSPEC_CORE_ENGINE");
    EXPECT_EQ(makeSystem().coreEngine(), CoreEngine::Fast);
}

TEST_F(CoreEngineKnob, SelectsLegacy)
{
    ::setenv("BITSPEC_CORE_ENGINE", "legacy", 1);
    EXPECT_EQ(makeSystem().coreEngine(), CoreEngine::Legacy);
}

TEST_F(CoreEngineKnob, SelectsFastExplicitly)
{
    ::setenv("BITSPEC_CORE_ENGINE", "fast", 1);
    EXPECT_EQ(makeSystem().coreEngine(), CoreEngine::Fast);
}

TEST_F(CoreEngineKnob, RejectsUnknownValue)
{
    ::setenv("BITSPEC_CORE_ENGINE", "warp9", 1);
    EXPECT_THROW(makeSystem(), FatalError);
}

TEST_F(CoreEngineKnob, SwitchingEnginesKeepsFastState)
{
    // The memo table depends only on the immutable compiled program,
    // so switching engines (or running Legacy) leaves it intact.
    ::unsetenv("BITSPEC_CORE_ENGINE");
    System sys = makeSystem();
    RunResult fast = sys.run();
    ASSERT_NE(sys.fastCore(), nullptr);
    const size_t memos = sys.fastCore()->memoCount();
    EXPECT_GT(memos, 0u);
    sys.setCoreEngine(CoreEngine::Legacy);
    RunResult legacy = sys.run();
    EXPECT_EQ(legacy.returnValue, 7u);
    EXPECT_EQ(firstTelemetryDiff(legacy.telemetry(), fast.telemetry()),
              "");
    EXPECT_EQ(sys.fastCore()->memoCount(), memos);
    EXPECT_EQ(sys.coreEngine(), CoreEngine::Legacy);
}

} // namespace
} // namespace bitspec
