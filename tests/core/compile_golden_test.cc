/**
 * @file
 * Bit-identity guard for the compile layers: every workload is built
 * under the five configurations the cold-suite benchmark compiles
 * (baseline, bitspec MAX/AVG/MIN, squeeze without speculation) at
 * profile seed 0, and the encoded snapshot of each System is hashed.
 *
 * The hash covers every snapshot byte after the 16-byte header
 * (format version, schema hash, empty key): the linked program with
 * its block metadata, the backend/squeeze/expand stats, the profiled
 * IR step count and the post-profiling global images. A compile-time
 * optimisation of the frontend, expander, squeezer or backend must
 * leave all of it unchanged, so the constants below only move when
 * the generated code is meant to change.
 *
 * Both build paths are pinned: the System source constructor, and a
 * 4-thread ExperimentRunner that trains each program once and builds
 * its five Systems from the shared front half (plus a second runner
 * that restores all of them from an artifact store).
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "artifact/snapshot.h"
#include "core/experiment.h"
#include "core/system.h"
#include "support/hash.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

struct Golden
{
    const char *workload;
    /** Baseline, bitspec MAX, AVG, MIN, no-speculation. */
    const char *hash[5];
};

const Golden kGolden[] = {
    {"CRC32",
     {"8be664fe062c98dd50241d2abdc40b33",
      "9b6526de8bcfdcdb615f61df799360ee",
      "411dee307bf668396000d86c78cf8f72",
      "c9d3e6a004782ccc304c23ced4dc1d00",
      "9f3b4b1f5f009dbfed6ecb0d820e38fe"}},
    {"FFT",
     {"98b2027b2ba251319c826bfdf4cd8377",
      "1588902b585ed0db7e66c7da007d7850",
      "1588902b585ed0db7e66c7da007d7850",
      "b8f3fbbd411b3607a367956c51d1b822",
      "73383f4b14e837e987731dce5e045b20"}},
    {"basicmath",
     {"b6453b541d1137f3a73005c1c7a88540",
      "68047bcd191e4032e87671143293ef02",
      "203582f4eda285993dedc707077de08f",
      "ed45f44735b17add80312978befeb608",
      "b6453b541d1137f3a73005c1c7a88540"}},
    {"bitcount",
     {"9e2b5e93465041b744a749141b5c0d8b",
      "38363b2fdafca1a9be89183a0a4dacd8",
      "38a34b99afc8af214a09953fefddfef0",
      "a9be77ac3a6d648fbc52b71b083df817",
      "f886805608853e431d24509b6ce7892b"}},
    {"blowfish",
     {"55643b10f6566021343c066b3b9fdabd",
      "7d5b543655df91a6929ac91d7e923f82",
      "7d5b543655df91a6929ac91d7e923f82",
      "7d5b543655df91a6929ac91d7e923f82",
      "9b909afbdaf23a507d6d14395ad768cd"}},
    {"dijkstra",
     {"72a1a352879661b399b54b4b848f62ef",
      "35b69e0f36d0b76649cdbb7d8ae0cfcd",
      "914cdb9e44481b3263db325bc19f9a9b",
      "cc4ad341ec102ac236acd83461e5e212",
      "b021e72d9d50eb3f7e1c4be18d2771e3"}},
    {"patricia",
     {"9ea51ff2c9428813fabc87cfc7953ce9",
      "6836905ae11798e32bffb5589e4b2cb7",
      "59f071631ea42f06ce859a8b982aba65",
      "985a0f9276f82f70179c42c609c1df99",
      "d8326a6f31bd61c9f08fd49e7106271e"}},
    {"qsort",
     {"9b2590198bfbeda103d65a9f7db9fd3e",
      "95ce8f1fe37b34f4f722ed21dd2894a1",
      "c485f9be0f4db0be5c8b233c4ad3b30d",
      "bad1acfd6a0172a8525678e1f22e9bef",
      "c552fd7a19a614b3c0c7c8ca67c17983"}},
    {"rijndael",
     {"97a32dc627e3a39123067fa1517e5df6",
      "6eac42fc3726b38d60db2769e2a8c678",
      "e1152bec6bad5295dc8957904b07ffcf",
      "67b385cfad8082b5867d3874c6cd26b4",
      "69719be76cdcc01376ce5be02439fbb4"}},
    {"sha",
     {"baeca4abd52803122c8ce6427bad7d50",
      "9f13280768a32aa93cb9bfd0055d179f",
      "9f13280768a32aa93cb9bfd0055d179f",
      "0318ea97751c63ed7a9dad7f56147745",
      "cdd15cacb62ecf644808226884f6ddbc"}},
    {"stringsearch",
     {"9e4e2a8d36724f54e43b10d1596f40a6",
      "a9ee6be6aa773d5c350bfdbc24ca6ff2",
      "fec09bea16baf50fa4f23e50c1487d3b",
      "01f15d75cb06d624ee6790d88804a072",
      "102c598bbc8149112e33e3ad443adf08"}},
    {"susan-edges",
     {"c191fa1061284e6cee79369fc34ee21f",
      "456ec6c8cb1e3c4d5f709fd5f98a029f",
      "c8795f542bce885984f25ad10e1ee9f7",
      "74f3eb15b8ffb2500b46ac536292e4c2",
      "3a4d27047dc2e8667a4e3408c322c6bf"}},
    {"susan-corners",
     {"5d18ba92ee845051dfa010394938143e",
      "b3af7a33d2d3fff3fcce5ddba0d55acd",
      "9db67fd5f56326816dc357a40cc38941",
      "9f37c8a980ae44ab55f42d58c635d11a",
      "696559ede492a30784e4f60d9a0451ed"}},
    {"susan-smoothing",
     {"c8bca00172e01d5a83faf423cf2b7b0d",
      "4e8f9d64db5a1cf06266e4caa64a007b",
      "d2bf13309a564bdcf7508994cbb4e1d0",
      "75ebf9fd9d2d26db250fd3cf85dcd3b2",
      "41129527a0034562fbbd10f32170af31"}},
};

/** The cold-suite configurations, in kGolden column order. */
std::vector<std::pair<std::string, SystemConfig>>
configs()
{
    return {{"baseline", SystemConfig::baseline()},
            {"bitspec-MAX", SystemConfig::bitspec(Heuristic::Max)},
            {"bitspec-AVG", SystemConfig::bitspec(Heuristic::Avg)},
            {"bitspec-MIN", SystemConfig::bitspec(Heuristic::Min)},
            {"no-spec", SystemConfig::noSpeculation()}};
}

std::string
snapshotHash(const System &sys)
{
    const std::vector<uint8_t> bytes =
        artifact::encodeSnapshot(sys.makeSnapshot(""));
    // Header: u32 format version, u64 schema hash, u32 key length.
    constexpr size_t kHeader = 4 + 8 + 4;
    EXPECT_GT(bytes.size(), kHeader);
    Hash128Builder h;
    h.update(bytes.data() + kHeader, bytes.size() - kHeader);
    return h.digest().hex();
}

std::string
snapshotHash(const Workload &w, const SystemConfig &cfg)
{
    return snapshotHash(
        System(w.source, cfg, [&w](Module &m) { w.setInput(m, 0); }));
}

const Golden *
goldenFor(const std::string &name)
{
    for (const Golden &g : kGolden)
        if (name == g.workload)
            return &g;
    return nullptr;
}

class CompileGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(CompileGolden, SnapshotBytesMatch)
{
    const Workload &w = getWorkload(GetParam());
    const Golden *g = goldenFor(w.name);
    ASSERT_NE(g, nullptr) << "no golden row for " << w.name;
    const auto cfgs = configs();
    for (size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_EQ(snapshotHash(w, cfgs[i].second), g->hash[i])
            << w.name << " / " << cfgs[i].first;
}

/** Every (workload, config) cell of kGolden, row-major. */
std::vector<ExperimentCell>
goldenMatrix()
{
    std::vector<ExperimentCell> cells;
    for (const Golden &g : kGolden)
        for (const auto &[name, cfg] : configs())
            cells.emplace_back(&getWorkload(g.workload), cfg);
    return cells;
}

/** Checks every System of @p cells on @p runner against kGolden. */
void
expectRunnerMatchesGolden(ExperimentRunner &runner,
                          const std::vector<ExperimentCell> &cells)
{
    const size_t ncfg = configs().size();
    for (size_t i = 0; i < cells.size(); ++i) {
        const ExperimentCell &c = cells[i];
        runner.withSystem(*c.workload, c.config, c.profileSeed,
                          [&](System &sys) {
                              EXPECT_EQ(snapshotHash(sys),
                                        kGolden[i / ncfg].hash[i % ncfg])
                                  << c.workload->name << " / "
                                  << configs()[i % ncfg].first;
                          });
    }
}

TEST(CompileGoldenRunner, SharedFrontHalvesMatchGolden)
{
    const std::vector<ExperimentCell> cells = goldenMatrix();
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("bitspec_golden_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    ExperimentRunner cold(4);
    cold.enableArtifactStore(dir, 256ull << 20);
    cold.run(cells);
    expectRunnerMatchesGolden(cold, cells);
    ExperimentStats s = cold.stats();
    EXPECT_EQ(s.systemsBuilt, cells.size());
    EXPECT_EQ(s.trainsBuilt, std::size(kGolden)); // One per program.
    EXPECT_EQ(s.trainHits, cells.size() - std::size(kGolden));
    EXPECT_EQ(s.diskWrites, cells.size());

    // A runner that restores every System from disk never trains.
    ExperimentRunner warm(4);
    warm.enableArtifactStore(dir, 256ull << 20);
    warm.run(cells);
    expectRunnerMatchesGolden(warm, cells);
    s = warm.stats();
    EXPECT_EQ(s.diskHits, cells.size());
    EXPECT_EQ(s.trainsBuilt, 0u);
    EXPECT_EQ(s.trainHits, 0u);

    std::filesystem::remove_all(dir);
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> out;
    for (const Workload &w : mibenchSuite())
        out.push_back(w.name);
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, CompileGolden, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string id = info.param;
        for (char &c : id)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return id;
    });

} // namespace
} // namespace bitspec
