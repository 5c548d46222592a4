/**
 * @file
 * Targeted unit tests of the fast core engine: memo-guard divergence
 * (hot block -> cache miss or misspeculation -> hot again), memo
 * invalidation, persistence across reset(), fuel accounting under
 * replay, and the BITSPEC_CORE_ENGINE knob on System.
 *
 * Whole-workload equivalence lives in core_engine_diff_test.cc; these
 * tests construct small kernels where the divergence paths are
 * guaranteed to fire and assert them via replayedRuns()/slowInsts().
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "backend/compiler.h"
#include "core/system.h"
#include "frontend/irgen.h"
#include "profile/bitwidth_profile.h"
#include "support/error.h"
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
expectSameObservables(const Core &legacy, const FastCore &fast)
{
    EXPECT_EQ(firstTelemetryDiff(telemetryOf(legacy), telemetryOf(fast)),
              "");
    EXPECT_EQ(legacy.outputChecksum(), fast.outputChecksum());
}

TEST(FastCore, HotMissHotStreamingLoadsStayExact)
{
    // 16 KiB array vs the 8 KiB L1D: every pass re-misses each line,
    // so the inner-loop block cycles hot -> D-miss divergence -> hot
    // again continuously. The memo must replay the hit iterations and
    // fall out exactly at each miss.
    const char *src = R"(
        u32 data[4096];
        u32 main(u32 passes) {
            u32 h = 0;
            for (u32 p = 0; p < passes; p++)
                for (u32 i = 0; i < 4096; i++)
                    h = h * 31 + data[i];
            return h;
        }
    )";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);

    Core legacy(cp.program, *mod);
    uint32_t want = legacy.run({3});

    PredecodedProgram pre(cp.program);
    FastCore fast(pre, *mod);
    EXPECT_EQ(fast.run({3}), want);
    expectSameObservables(legacy, fast);

    // Both engine paths must actually have fired.
    EXPECT_GT(fast.replayedRuns(), 0u);
    EXPECT_GT(fast.slowInsts(), 0u);
    // Streaming re-misses across passes: well beyond one pass' worth
    // of cold misses (4096 u32 / 8 per line = 512).
    EXPECT_GT(fast.memory().l1d().misses, 1000u);
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

    Core legacy(cp.program, *mod);
    uint32_t want = legacy.run({44});

    PredecodedProgram pre(cp.program);
    FastCore fast(pre, *mod);
    EXPECT_EQ(fast.run({44}), want);
    expectSameObservables(legacy, fast);

    EXPECT_GT(fast.counters().misspeculations, 0u);
    EXPECT_GT(fast.replayedRuns(), 0u);
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
    FastCore fast(pre, *mod);

    uint32_t first = fast.run({8});
    ActivityCounters cold = fast.counters();
    size_t memos = fast.memoCount();
    uint64_t replays = fast.replayedRuns();
    EXPECT_GT(memos, 0u);
    EXPECT_GT(replays, 0u);

    // reset() reloads globals/counters but keeps the memo table
    // (geometry-only); the warm run must be bit-identical.
    fast.reset();
    EXPECT_EQ(fast.run({8}), first);
    EXPECT_EQ(fast.counters().instructions, cold.instructions);
    EXPECT_EQ(fast.counters().cycles, cold.cycles);
    EXPECT_EQ(fast.memoCount(), memos);
    EXPECT_GT(fast.replayedRuns(), replays);
}

TEST(FastCore, InvalidateMemosDropsAndRebuilds)
{
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
    FastCore fast(pre, *mod);

    uint32_t first = fast.run({32});
    uint64_t cycles = fast.counters().cycles;
    EXPECT_GT(fast.memoCount(), 0u);

    // The analogue of Interpreter::invalidate(): stale memos must be
    // droppable, and rebuilding them must not change any observable.
    fast.invalidateMemos();
    EXPECT_EQ(fast.memoCount(), 0u);
    fast.reset();
    EXPECT_EQ(fast.run({32}), first);
    EXPECT_EQ(fast.counters().cycles, cycles);
    EXPECT_GT(fast.memoCount(), 0u);
}

TEST(FastCore, FuelGuardsAgainstRunawayUnderReplay)
{
    const char *src = "u32 main() { u32 x = 1; while (x) { x = 1; } "
                      "return x; }";
    auto mod = compileSource(src);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    PredecodedProgram pre(cp.program);
    FastCore fast(pre, *mod);
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

TEST_F(CoreEngineKnob, SwitchingEnginesDropsFastState)
{
    ::unsetenv("BITSPEC_CORE_ENGINE");
    System sys = makeSystem();
    sys.run();
    ASSERT_NE(sys.fastCore(), nullptr);
    sys.setCoreEngine(CoreEngine::Legacy);
    EXPECT_EQ(sys.fastCore(), nullptr);
    RunResult r = sys.run();
    EXPECT_EQ(r.returnValue, 7u);
    EXPECT_EQ(sys.fastCore(), nullptr); // Legacy runs never build it.
}

} // namespace
} // namespace bitspec
