/**
 * @file
 * Differential test between the two uarch core engines (the Core
 * analogue of interp/engine_diff_test.cc).
 *
 * For every registered workload under three system configurations
 * (baseline compiler, full bitwidth speculation, squeeze without
 * speculation — the three misspeculation regimes the core model
 * sees), the fast pre-decoded engine must be observationally
 * identical to the legacy cycle-accurate Core: same return value and
 * output checksum, same ActivityCounters field by field, same cache
 * hierarchy statistics down to per-level access/miss/writeback counts
 * and DRAM traffic, and the same attribution and per-block profiler
 * activity vectors. The fast engine runs twice — once with cold block
 * memos and once warm — so memo replay itself is covered, not just
 * the slow path.
 */

#include <gtest/gtest.h>

#include "core/system.h"
#include "obs/attribution.h"
#include "obs/profiler.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

struct CoreRun
{
    RunResult r;
    std::vector<RegionActivity> attr;
    uint64_t unattributedMisspecs = 0;
    std::vector<BlockActivity> blocks;
    uint64_t blocksUnattributed = 0;
};

CoreRun
runOnce(System &sys, const AttributionMap &amap, const BlockMap &bmap)
{
    AttributionSink attr(amap);
    BlockProfilerSink blocks(bmap);
    RunObservers obs;
    obs.attribution = &attr;
    obs.blocks = &blocks;
    CoreRun out;
    out.r = sys.run({}, {}, obs);
    out.attr = attr.activity();
    out.unattributedMisspecs = attr.unattributedMisspecs();
    out.blocks = blocks.activity();
    out.blocksUnattributed = blocks.unattributed();
    return out;
}

void
expectSameRun(const CoreRun &legacy, const CoreRun &fast,
              const std::string &what)
{
    EXPECT_EQ(legacy.r.returnValue, fast.r.returnValue) << what;
    EXPECT_EQ(legacy.r.outputChecksum, fast.r.outputChecksum) << what;
    EXPECT_EQ(firstTelemetryDiff(legacy.r.telemetry(),
                                 fast.r.telemetry()),
              "")
        << what;

    ASSERT_EQ(legacy.attr.size(), fast.attr.size()) << what;
    for (size_t i = 0; i < legacy.attr.size(); ++i) {
        const RegionActivity &ra = legacy.attr[i];
        const RegionActivity &rb = fast.attr[i];
        const std::string where =
            what + "/region" + std::to_string(i);
        EXPECT_EQ(ra.entries, rb.entries) << where;
        EXPECT_EQ(ra.misspecs, rb.misspecs) << where;
        EXPECT_EQ(ra.specInsts, rb.specInsts) << where;
        EXPECT_EQ(ra.specCycles, rb.specCycles) << where;
        EXPECT_EQ(ra.skeletonInsts, rb.skeletonInsts) << where;
        EXPECT_EQ(ra.handlerInsts, rb.handlerInsts) << where;
        EXPECT_EQ(ra.handlerCycles, rb.handlerCycles) << where;
    }
    EXPECT_EQ(legacy.unattributedMisspecs, fast.unattributedMisspecs)
        << what;

    ASSERT_EQ(legacy.blocks.size(), fast.blocks.size()) << what;
    for (size_t i = 0; i < legacy.blocks.size(); ++i) {
        const BlockActivity &ba = legacy.blocks[i];
        const BlockActivity &bb = fast.blocks[i];
        const std::string where =
            what + "/block" + std::to_string(i);
        EXPECT_EQ(ba.entries, bb.entries) << where;
        EXPECT_EQ(ba.insts, bb.insts) << where;
        EXPECT_EQ(ba.cycles, bb.cycles) << where;
        EXPECT_EQ(ba.misspecs, bb.misspecs) << where;
    }
    EXPECT_EQ(legacy.blocksUnattributed, fast.blocksUnattributed)
        << what;
}

class CoreEngineDiff : public ::testing::TestWithParam<std::string>
{};

void
diffUnderConfig(const Workload &w, const SystemConfig &cfg,
                const std::string &what)
{
    System sys(w.source, cfg,
               [&](Module &m) { w.setInput(m, 0); });
    AttributionMap amap(sys.program());
    BlockMap bmap(sys.program());

    sys.setCoreEngine(CoreEngine::Legacy);
    CoreRun legacy = runOnce(sys, amap, bmap);

    sys.setCoreEngine(CoreEngine::Fast);
    CoreRun fast_cold = runOnce(sys, amap, bmap);
    expectSameRun(legacy, fast_cold, what + "/cold");

    // Second fast run reuses the block memos built by the first.
    CoreRun fast_warm = runOnce(sys, amap, bmap);
    expectSameRun(legacy, fast_warm, what + "/warm");

    ASSERT_NE(sys.fastCore(), nullptr);
    EXPECT_GT(sys.fastCore()->memoCount(), 0u) << what;
    // Every workload loops, so the fast engine must actually have
    // replayed blocks — this diff is meaningless if the guards always
    // fell back to the slow path.
    EXPECT_GT(sys.fastCore()->replayedRuns(), 0u) << what;
}

TEST_P(CoreEngineDiff, BaselineConfigMatches)
{
    const Workload &w = getWorkload(GetParam());
    diffUnderConfig(w, SystemConfig::baseline(), w.name + "/baseline");
}

TEST_P(CoreEngineDiff, BitspecConfigMatches)
{
    const Workload &w = getWorkload(GetParam());
    diffUnderConfig(w, SystemConfig::bitspec(), w.name + "/bitspec");
}

TEST_P(CoreEngineDiff, NoSpeculationConfigMatches)
{
    const Workload &w = getWorkload(GetParam());
    diffUnderConfig(w, SystemConfig::noSpeculation(),
                    w.name + "/nospec");
}

/**
 * The same legacy-vs-fast equivalence under the non-Hardware
 * misspeculation policies (forced and seeded-random redirects). The
 * fast engine replays memos under these policies too, with forced
 * checks leaving replay like natural ones, so both of its paths must
 * keep the RNG draw order aligned with legacy Core — any drift shows
 * up as a counter or attribution diff here. Theorems 3.1/3.2
 * additionally make every policy's committed outputs equal to
 * Hardware's, which pins the checksum across all six runs.
 */
class CorePolicyDiff : public ::testing::TestWithParam<std::string>
{};

TEST_P(CorePolicyDiff, PoliciesMatchAcrossEngines)
{
    const Workload &w = getWorkload(GetParam());
    SystemConfig cfg = SystemConfig::bitspec();
    System sys(w.source, cfg, [&](Module &m) { w.setInput(m, 0); });
    AttributionMap amap(sys.program());
    BlockMap bmap(sys.program());

    sys.setCoreEngine(CoreEngine::Legacy);
    CoreRun hw = runOnce(sys, amap, bmap);

    for (MisspecPolicy p :
         {MisspecPolicy::ForceFirst, MisspecPolicy::Random}) {
        const std::string what =
            w.name + "/" + misspecPolicyName(p);
        sys.setMisspecPolicy(p, 0xfeed);

        sys.setCoreEngine(CoreEngine::Legacy);
        CoreRun legacy = runOnce(sys, amap, bmap);

        sys.setCoreEngine(CoreEngine::Fast);
        ASSERT_NE(sys.fastCore(), nullptr);
        const uint64_t replayed = sys.fastCore()->replayedRuns();
        CoreRun fast = runOnce(sys, amap, bmap);
        expectSameRun(legacy, fast, what);
        // The diff covers replay under this policy, not just the
        // slow path.
        EXPECT_GT(sys.fastCore()->replayedRuns(), replayed) << what;

        // Semantics preservation: committed outputs are
        // policy-independent even though the paths differ.
        EXPECT_EQ(legacy.r.returnValue, hw.r.returnValue) << what;
        EXPECT_EQ(legacy.r.outputChecksum, hw.r.outputChecksum)
            << what;
        if (p == MisspecPolicy::ForceFirst) {
            EXPECT_GE(legacy.r.counters.misspeculations,
                      hw.r.counters.misspeculations)
                << what;
        }
        sys.setMisspecPolicy(MisspecPolicy::Hardware);
    }
}

const auto kWorkloads = ::testing::Values(
    "CRC32", "FFT", "basicmath", "bitcount", "blowfish", "dijkstra",
    "patricia", "qsort", "rijndael", "sha", "stringsearch", "susan-edges",
    "susan-corners", "susan-smoothing");

std::string
workloadTestName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string name = info.param;
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(Mibench, CorePolicyDiff, kWorkloads,
                         workloadTestName);
INSTANTIATE_TEST_SUITE_P(Mibench, CoreEngineDiff, kWorkloads,
                         workloadTestName);

} // namespace
} // namespace bitspec
