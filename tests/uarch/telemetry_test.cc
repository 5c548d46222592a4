/**
 * @file
 * The telemetry field tables and the shared first-differing-field
 * oracle (uarch/telemetry.h) that the fuzz differential, the engine
 * diff and the artifact diff all use: every table lists its struct's
 * members in declaration order, and the oracle names each field of a
 * RunResult's counters, caches and DRAM when it alone differs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>

#include "core/system.h"

namespace bitspec
{
namespace
{

template <typename T>
void
expectDeclarationOrder(const char *what)
{
    const T obj{};
    const char *base = reinterpret_cast<const char *>(&obj);
    size_t i = 0;
    for (const auto &f : fieldsOf<T>()) {
        const char *at = reinterpret_cast<const char *>(&(obj.*f.member));
        EXPECT_EQ(static_cast<size_t>(at - base),
                  i * sizeof(obj.*f.member))
            << what << "." << f.name;
        ++i;
    }
    EXPECT_EQ(i * sizeof(obj.*fieldsOf<T>()[0].member), sizeof(T))
        << what;
}

TEST(FieldTables, ListEveryMemberInDeclarationOrder)
{
    expectDeclarationOrder<ActivityCounters>("ActivityCounters");
    expectDeclarationOrder<CacheStats>("CacheStats");
    expectDeclarationOrder<DramStats>("DramStats");
    expectDeclarationOrder<SqueezeStats>("SqueezeStats");
    expectDeclarationOrder<BackendStats>("BackendStats");
    expectDeclarationOrder<ExpandStats>("ExpandStats");
}

TEST(FieldTables, AddFieldsSumsEveryField)
{
    SqueezeStats a, b;
    unsigned v = 1;
    for (const auto &f : fieldsOf<SqueezeStats>()) {
        a.*f.member = v;
        b.*f.member = 100 * v++;
    }
    a += b;
    v = 1;
    for (const auto &f : fieldsOf<SqueezeStats>()) {
        EXPECT_EQ(a.*f.member, 101 * v) << f.name;
        ++v;
    }
}

/** The ledger name of every hardware telemetry field of a RunResult,
 *  in section and declaration order. Written out by hand rather than
 *  read from the tables, so a table that drops, renames or reorders a
 *  field fails here. */
const char *const kTelemetryNames[] = {
    "counters.instructions",
    "counters.cycles",
    "counters.alu32",
    "counters.alu8",
    "counters.mul_div",
    "counters.rf_read32",
    "counters.rf_write32",
    "counters.rf_read8",
    "counters.rf_write8",
    "counters.loads",
    "counters.stores",
    "counters.branches",
    "counters.taken_branches",
    "counters.calls",
    "counters.misspeculations",
    "counters.dyn_spill_loads",
    "counters.dyn_spill_stores",
    "counters.dyn_copies",
    "counters.outputs",
    "cache.l1i.accesses",
    "cache.l1i.misses",
    "cache.l1i.writebacks",
    "cache.l1d.accesses",
    "cache.l1d.misses",
    "cache.l1d.writebacks",
    "cache.l2.accesses",
    "cache.l2.misses",
    "cache.l2.writebacks",
    "dram.reads",
    "dram.writes",
};

TEST(Telemetry, DiffNamesEveryPerturbedField)
{
    size_t k = 0;
    // Perturb one raw 64-bit word of one section at a time: every
    // section is a plain array of uint64_t counters, so this reaches
    // each member without going through any field list.
    auto perturbEachWord = [&k](auto RunResult::*section) {
        using S = std::remove_reference_t<decltype(RunResult{}.*section)>;
        for (size_t off = 0; off < sizeof(S); off += sizeof(uint64_t)) {
            RunResult a, b;
            char *raw = reinterpret_cast<char *>(&(b.*section)) + off;
            uint64_t v;
            std::memcpy(&v, raw, sizeof v);
            ++v;
            std::memcpy(raw, &v, sizeof v);
            ASSERT_LT(k, std::size(kTelemetryNames));
            EXPECT_EQ(firstTelemetryDiff(a.telemetry(), b.telemetry()),
                      std::string(kTelemetryNames[k]) + " 0 != 1");
            EXPECT_EQ(firstTelemetryDiff(a.telemetry(), a.telemetry()),
                      "");
            ++k;
        }
    };
    perturbEachWord(&RunResult::counters);
    perturbEachWord(&RunResult::l1i);
    perturbEachWord(&RunResult::l1d);
    perturbEachWord(&RunResult::l2);
    perturbEachWord(&RunResult::dram);
    EXPECT_EQ(k, std::size(kTelemetryNames));
}

} // namespace
} // namespace bitspec
