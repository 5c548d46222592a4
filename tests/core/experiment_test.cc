#include <gtest/gtest.h>

#include <vector>

#include "artifact/store.h"
#include "core/experiment.h"
#include "support/error.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

/** Field-by-field equality over everything the benches print. */
void
expectSameResult(const RunResult &a, const RunResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.returnValue, b.returnValue) << what;
    EXPECT_EQ(a.outputChecksum, b.outputChecksum) << what;
    EXPECT_EQ(a.counters.instructions, b.counters.instructions) << what;
    EXPECT_EQ(a.counters.cycles, b.counters.cycles) << what;
    EXPECT_EQ(a.counters.loads, b.counters.loads) << what;
    EXPECT_EQ(a.counters.stores, b.counters.stores) << what;
    EXPECT_EQ(a.counters.misspeculations, b.counters.misspeculations)
        << what;
    EXPECT_EQ(a.counters.rfRead8, b.counters.rfRead8) << what;
    EXPECT_EQ(a.counters.rfWrite8, b.counters.rfWrite8) << what;
    EXPECT_EQ(a.totalEnergy, b.totalEnergy) << what;
    EXPECT_EQ(a.epi, b.epi) << what;
    EXPECT_EQ(a.meanVoltage, b.meanVoltage) << what;
}

/** Uncached serial reference: fresh System per cell. */
RunResult
serialReference(const ExperimentCell &c)
{
    const Workload &w = *c.workload;
    uint64_t pseed = c.profileSeed;
    System sys(w.source, c.config,
               [&w, pseed](Module &m) { w.setInput(m, pseed); });
    uint64_t rseed = c.runSeed;
    return sys.run([&w, rseed](Module &m) { w.setInput(m, rseed); });
}

std::vector<ExperimentCell>
smallMatrix()
{
    std::vector<ExperimentCell> cells;
    for (const char *name : {"CRC32", "dijkstra"}) {
        const Workload &w = getWorkload(name);
        for (uint64_t run_seed : {0ull, 1ull}) {
            cells.push_back(
                {&w, SystemConfig::baseline(), 0, run_seed});
            cells.push_back(
                {&w, SystemConfig::bitspec(), 0, run_seed});
        }
    }
    return cells;
}

TEST(ExperimentRunner, BitIdenticalToSerialAcrossThreadCounts)
{
    std::vector<ExperimentCell> cells = smallMatrix();

    std::vector<RunResult> ref;
    ref.reserve(cells.size());
    for (const ExperimentCell &c : cells)
        ref.push_back(serialReference(c));

    for (unsigned threads : {1u, 4u}) {
        ExperimentRunner runner(threads);
        std::vector<RunResult> got = runner.run(cells);
        ASSERT_EQ(got.size(), cells.size());
        for (size_t i = 0; i < cells.size(); ++i)
            expectSameResult(
                ref[i], got[i],
                "cell " + std::to_string(i) + " with " +
                    std::to_string(threads) + " threads");
    }
}

TEST(ExperimentRunner, CachesSystemAcrossRunSeeds)
{
    const Workload &w = getWorkload("CRC32");
    std::vector<ExperimentCell> cells;
    for (uint64_t run_seed = 0; run_seed < 5; ++run_seed)
        cells.push_back({&w, SystemConfig::bitspec(), 0, run_seed});

    ExperimentRunner runner(2);
    runner.run(cells);
    EXPECT_EQ(runner.stats().cells, 5u);
    EXPECT_EQ(runner.stats().systemsBuilt, 1u);
    // Six requests: run()'s front-half build plus the five cells.
    EXPECT_EQ(runner.stats().cacheHits, 5u);
    EXPECT_EQ(runner.stats().trainsBuilt, 1u);

    // A different profile seed is a different System.
    runner.evaluate(w, SystemConfig::bitspec(), /*profile_seed=*/1);
    EXPECT_EQ(runner.stats().systemsBuilt, 2u);

    // A different config is a different System even for the same
    // seeds.
    runner.evaluate(w, SystemConfig::baseline());
    EXPECT_EQ(runner.stats().systemsBuilt, 3u);

    runner.clearCache();
    runner.evaluate(w, SystemConfig::bitspec());
    EXPECT_EQ(runner.stats().systemsBuilt, 4u);
}

TEST(ExperimentRunner, CachedRunsAreOrderIndependent)
{
    // Run seeds out of order against one cached System; every result
    // must equal a fresh build's (the global-data snapshot restore).
    const Workload &w = getWorkload("sha");
    ExperimentRunner runner(1);
    for (uint64_t run_seed : {2ull, 0ull, 2ull, 1ull, 0ull}) {
        RunResult got =
            runner.evaluate(w, SystemConfig::bitspec(), 0, run_seed);
        RunResult ref = serialReference(
            {&w, SystemConfig::bitspec(), 0, run_seed});
        expectSameResult(ref, got,
                         "run seed " + std::to_string(run_seed));
    }
    EXPECT_EQ(runner.stats().systemsBuilt, 1u);
}

TEST(ExperimentRunner, OneSystemRunsOnFourWorkersAtOnce)
{
    // Every cell below shares one System, so four workers run it at
    // once: both engines under all three policies, several run seeds.
    // Each cell must equal the one-worker run in every telemetry
    // field, checksum and energy, and the racing first runs must
    // publish exactly the memos the serial runs build.
    const Workload &w = getWorkload("qsort");
    const SystemConfig cfg = SystemConfig::bitspec(Heuristic::Avg);
    std::vector<ExperimentCell> cells;
    for (uint64_t run_seed : {0ull, 1ull, 2ull, 3ull})
        for (CoreEngine engine : {CoreEngine::Legacy, CoreEngine::Fast})
            for (MisspecPolicy policy :
                 {MisspecPolicy::Hardware, MisspecPolicy::Random,
                  MisspecPolicy::ForceFirst}) {
                ExperimentCell c(&w, cfg, 0, run_seed);
                c.engine = engine;
                c.policy = policy;
                c.policySeed = 0xfeed + run_seed;
                cells.push_back(c);
            }

    auto memosOf = [&](ExperimentRunner &runner) {
        size_t memos = 0;
        runner.withSystem(w, cfg, 0, [&](System &sys) {
            memos = sys.fastCore()->memoCount();
        });
        return memos;
    };
    ExperimentRunner serial(1);
    const std::vector<RunResult> want = serial.run(cells);
    ExperimentRunner parallel(4);
    const std::vector<RunResult> got = parallel.run(cells);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(parallel.stats().systemsBuilt, 1u);
    for (size_t i = 0; i < cells.size(); ++i) {
        const std::string what = "cell " + std::to_string(i);
        EXPECT_EQ(got[i].returnValue, want[i].returnValue) << what;
        EXPECT_EQ(got[i].outputChecksum, want[i].outputChecksum) << what;
        EXPECT_EQ(firstTelemetryDiff(got[i].telemetry(),
                                     want[i].telemetry()),
                  "")
            << what;
        EXPECT_EQ(got[i].energy.total(), want[i].energy.total()) << what;
        EXPECT_EQ(got[i].totalEnergy, want[i].totalEnergy) << what;
        EXPECT_EQ(got[i].epi, want[i].epi) << what;
    }
    // Random and ForceFirst must actually have diverged from Hardware,
    // or the policies were not applied per cell.
    EXPECT_GT(want[2].counters.misspeculations,
              want[0].counters.misspeculations);
    EXPECT_GT(memosOf(serial), 0u);
    EXPECT_EQ(memosOf(parallel), memosOf(serial));
}

TEST(ExperimentRunner, SystemKeySeparatesConfigs)
{
    const Workload &w = getWorkload("CRC32");
    std::string base =
        ExperimentRunner::systemKey(w, SystemConfig::baseline(), 0);
    std::string spec =
        ExperimentRunner::systemKey(w, SystemConfig::bitspec(), 0);
    EXPECT_NE(base, spec);
    EXPECT_EQ(base, ExperimentRunner::systemKey(
                        w, SystemConfig::baseline(), 0));
    EXPECT_NE(base, ExperimentRunner::systemKey(
                        w, SystemConfig::baseline(), 1));

    SystemConfig tweaked = SystemConfig::baseline();
    tweaked.energy.rfRead32 += 0.125;
    EXPECT_NE(base,
              ExperimentRunner::systemKey(w, tweaked, 0));
}

TEST(ExperimentRunner, SystemKeyHashMirrorsCanonicalKey)
{
    // The 128-bit hash (cache key, artifact file name) must separate
    // and equate exactly as the canonical string key does.
    const Workload &w = getWorkload("CRC32");
    const Workload &w2 = getWorkload("dijkstra");
    Hash128 base = ExperimentRunner::systemKeyHash(
        w, SystemConfig::baseline(), 0);
    EXPECT_EQ(base, ExperimentRunner::systemKeyHash(
                        w, SystemConfig::baseline(), 0));

    std::vector<Hash128> keys = {base};
    auto expectFresh = [&keys](Hash128 k) {
        for (const Hash128 &seen : keys)
            EXPECT_FALSE(k == seen) << k.hex();
        keys.push_back(k);
    };
    expectFresh(
        ExperimentRunner::systemKeyHash(w, SystemConfig::bitspec(), 0));
    expectFresh(ExperimentRunner::systemKeyHash(
        w, SystemConfig::baseline(), 1));
    expectFresh(ExperimentRunner::systemKeyHash(
        w2, SystemConfig::baseline(), 0));
    SystemConfig tweaked = SystemConfig::baseline();
    tweaked.energy.rfRead32 += 0.125;
    expectFresh(ExperimentRunner::systemKeyHash(w, tweaked, 0));
    SystemConfig nospec = SystemConfig::noSpeculation();
    expectFresh(ExperimentRunner::systemKeyHash(w, nospec, 0));
}

TEST(ExperimentRunner, KeysAreByteStable)
{
    // Artifact file names and ledger joins depend on these bytes: a
    // refactor of the key code must not move them. (The src= field
    // moves only when the workload's source text does.)
    ExperimentCell c(&getWorkload("qsort"),
                     SystemConfig::dtsPlusBitspec(Heuristic::Avg), 3, 7);
    c.config.expander.unrollFactor = 2;
    c.policy = MisspecPolicy::Random;
    const std::string fields =
        "qsort;src=16153988558331033996;isa=1;squeeze=1;heuristic=1;"
        "speculate=1;cmpElim=1;bitmask=1;staticKb=1;unroll=2;maxFn=2000;"
        "maxLoop=60;expand=1;dts=1;vNom=1.2;vTh=0.34999999999999998;"
        "alpha=1.3;vMin=0.69999999999999996;fLogic=0.62;"
        "fAddSub=0.78000000000000003;fMulDiv=1;fMem=0.94999999999999996;"
        "fBranch=0.69999999999999996;widthAware=0;"
        "fAddSub8=0.55000000000000004;fLogic8=0.5;errRate=0.0001;recE=60;"
        "eAlu32=3;eAlu8=0.75;eMulDiv=9;eRfR32=1.2;eRfW32=1.8;"
        "eRfR8=0.29999999999999999;eRfW8=0.45000000000000001;eIc=6;eDc=8;"
        "eL2=30;eDram=1500;ePipe=5;eMisspec=20;pseed=3";
    EXPECT_EQ(ExperimentRunner::cellKey(c),
              fields + ";rseed=7;engine=default;policy=random;"
                       "polseed=24301");
    EXPECT_EQ(ExperimentRunner::systemKey(*c.workload, c.config, 3),
              fields + ";flavour=" + artifact::buildFlavour());
}

TEST(ExperimentRunner, WorkerExceptionPropagatesAndRunnerSurvives)
{
    Workload bad;
    bad.name = "bad-source";
    bad.source = "u32 main( { this does not parse";
    bad.setInput = [](Module &, uint64_t) {};

    const Workload &good = getWorkload("CRC32");
    ExperimentRunner runner(2);
    std::vector<ExperimentCell> cells = {
        {&good, SystemConfig::baseline(), 0, 0},
        {&bad, SystemConfig::baseline(), 0, 0},
        {&good, SystemConfig::bitspec(), 0, 0},
    };
    EXPECT_THROW(runner.run(cells), FatalError);

    // The failed build must not poison the runner or the cache.
    RunResult after = runner.evaluate(good, SystemConfig::baseline());
    RunResult ref =
        serialReference({&good, SystemConfig::baseline(), 0, 0});
    expectSameResult(ref, after, "post-exception evaluate");
}

} // namespace
} // namespace bitspec
