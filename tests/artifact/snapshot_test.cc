/**
 * @file
 * Snapshot (de)serialization unit tests: byte-exact roundtrip of a
 * real compiled System, schema-hash stability, and rejection of every
 * malformed-input class decodeSnapshot guards against.
 */

#include <gtest/gtest.h>

#include <vector>

#include "artifact/snapshot.h"
#include "core/system.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

artifact::SystemSnapshot
compileSnapshot(const std::string &workload,
                const SystemConfig &cfg = SystemConfig::bitspec())
{
    const Workload &w = getWorkload(workload);
    System sys(w.source, cfg, [&](Module &m) { w.setInput(m, 0); });
    return sys.makeSnapshot("key:" + workload);
}

void
expectSameOpnd(const MOpnd &x, const MOpnd &y, const char *what,
               size_t i)
{
    EXPECT_EQ(x.kind, y.kind) << what << " opnd of flat inst " << i;
    EXPECT_EQ(x.reg, y.reg) << what << " opnd of flat inst " << i;
    EXPECT_EQ(x.slice, y.slice) << what << " opnd of flat inst " << i;
    EXPECT_EQ(x.imm, y.imm) << what << " opnd of flat inst " << i;
    EXPECT_EQ(x.vreg, y.vreg) << what << " opnd of flat inst " << i;
    EXPECT_EQ(x.vregIsSlice, y.vregIsSlice)
        << what << " opnd of flat inst " << i;
}

void
expectSameProgram(const MachProgram &a, const MachProgram &b)
{
    ASSERT_EQ(a.flat.size(), b.flat.size());
    for (size_t i = 0; i < a.flat.size(); ++i) {
        const MachInst &x = a.flat[i];
        const MachInst &y = b.flat[i];
        EXPECT_EQ(x.op, y.op) << "flat inst " << i;
        EXPECT_EQ(x.cond, y.cond) << "flat inst " << i;
        EXPECT_EQ(x.speculative, y.speculative) << "flat inst " << i;
        EXPECT_EQ(x.origBits, y.origBits) << "flat inst " << i;
        EXPECT_EQ(x.tag, y.tag) << "flat inst " << i;
        EXPECT_EQ(x.target, y.target) << "flat inst " << i;
        expectSameOpnd(x.dst, y.dst, "dst", i);
        expectSameOpnd(x.a, y.a, "a", i);
        expectSameOpnd(x.b, y.b, "b", i);
    }
    ASSERT_EQ(a.funcs.size(), b.funcs.size());
    for (size_t f = 0; f < a.funcs.size(); ++f) {
        const MachFunction &x = a.funcs[f];
        const MachFunction &y = b.funcs[f];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.baseAddr, y.baseAddr);
        EXPECT_EQ(x.delta, y.delta);
        EXPECT_EQ(x.entryIndex, y.entryIndex);
        EXPECT_EQ(x.code.size(), y.code.size());
        EXPECT_EQ(x.blockIndex, y.blockIndex);
        ASSERT_EQ(x.blocks.size(), y.blocks.size());
        for (size_t bi = 0; bi < x.blocks.size(); ++bi) {
            EXPECT_EQ(x.blocks[bi].id, y.blocks[bi].id);
            EXPECT_EQ(x.blocks[bi].handlerBlock,
                      y.blocks[bi].handlerBlock);
            EXPECT_EQ(x.blocks[bi].isHandler, y.blocks[bi].isHandler);
            EXPECT_EQ(x.blocks[bi].regionId, y.blocks[bi].regionId);
            EXPECT_EQ(x.blocks[bi].regionSrcLine,
                      y.blocks[bi].regionSrcLine);
        }
    }
    EXPECT_EQ(a.entryFunc, b.entryFunc);
    EXPECT_EQ(a.funcOfIndex, b.funcOfIndex);
}

TEST(Snapshot, RoundTripsCompiledSystem)
{
    artifact::SystemSnapshot snap = compileSnapshot("CRC32");
    std::vector<uint8_t> bytes = artifact::encodeSnapshot(snap);
    artifact::SystemSnapshot back =
        artifact::decodeSnapshot(bytes.data(), bytes.size());

    EXPECT_EQ(back.key, snap.key);
    expectSameProgram(snap.program, back.program);
    EXPECT_EQ(back.profiledIrSteps, snap.profiledIrSteps);
    EXPECT_EQ(back.squeezeStats.narrowed, snap.squeezeStats.narrowed);
    EXPECT_EQ(back.squeezeStats.regions, snap.squeezeStats.regions);
    EXPECT_EQ(back.expandStats.unrolledLoops,
              snap.expandStats.unrolledLoops);
    EXPECT_EQ(back.backendStats.staticInsts,
              snap.backendStats.staticInsts);
    EXPECT_EQ(back.backendStats.skeletonInsts,
              snap.backendStats.skeletonInsts);
    ASSERT_EQ(back.globals.size(), snap.globals.size());
    for (size_t i = 0; i < snap.globals.size(); ++i) {
        EXPECT_EQ(back.globals[i].name, snap.globals[i].name);
        EXPECT_EQ(back.globals[i].elemBits, snap.globals[i].elemBits);
        EXPECT_EQ(back.globals[i].elemCount,
                  snap.globals[i].elemCount);
        EXPECT_EQ(back.globals[i].address, snap.globals[i].address);
        EXPECT_EQ(back.globals[i].data, snap.globals[i].data);
    }

    // Deterministic encoding: same snapshot, same bytes.
    EXPECT_EQ(bytes, artifact::encodeSnapshot(back));
}

/** Lower-case hex of @p n bytes at @p p. */
std::string
hexBytes(const uint8_t *p, size_t n)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (size_t i = 0; i < n; ++i) {
        out += kDigits[p[i] >> 4];
        out += kDigits[p[i] & 0xf];
    }
    return out;
}

TEST(Snapshot, StatsSectionBytesArePinned)
{
    // Every compile-stats field gets a distinct value, set by name
    // rather than through the field tables, so a reordered or
    // shortened table changes the bytes below.
    artifact::SystemSnapshot snap;
    snap.key = "k";
    BackendStats &be = snap.backendStats;
    be.staticSpillLoads = 0x11;
    be.staticSpillStores = 0x12;
    be.staticCopies = 0x13;
    be.spilledVRegs = 0x14;
    be.staticInsts = 0x15;
    be.skeletonInsts = 0x16;
    SqueezeStats &sq = snap.squeezeStats;
    sq.narrowed = 0x21;
    sq.regions = 0x22;
    sq.specTruncs = 0x23;
    sq.comparesEliminated = 0x24;
    sq.bitmasksElided = 0x25;
    sq.staticNarrowed = 0x26;
    sq.checksDropped = 0x27;
    sq.regionsElided = 0x28;
    sq.lintProvenSafe = 0x29;
    sq.lintProvenUnsafe = 0x2a;
    sq.lintSpeculative = 0x2b;
    sq.lintSpecLeaks = 0x2c;
    sq.lintLeaksDischarged = 0x2d;
    snap.expandStats.inlinedCalls = 0x31;
    snap.expandStats.unrolledLoops = 0x32;
    snap.profiledIrSteps = 0x0102030405060708ull;

    std::vector<uint8_t> bytes = artifact::encodeSnapshot(snap);
    // Tail of an encoding with no globals: 21 u32 stats (backend,
    // squeeze, expand, each in declaration order), the u64 profiled
    // step count and the u32 global count.
    constexpr size_t kTail = 21 * 4 + 8 + 4;
    ASSERT_GE(bytes.size(), kTail);
    EXPECT_EQ(hexBytes(bytes.data() + bytes.size() - kTail, kTail),
              "11000000120000001300000014000000150000001600000"
              "02100000022000000230000002400000025000000260000"
              "002700000028000000290000002a0000002b0000002c000"
              "0002d00000031000000320000000807060504030201"
              "00000000");

    artifact::SystemSnapshot back =
        artifact::decodeSnapshot(bytes.data(), bytes.size());
    EXPECT_EQ(bytes, artifact::encodeSnapshot(back));
}

TEST(Snapshot, SchemaHashIsStableWithinBuild)
{
    const uint64_t h = artifact::snapshotSchemaHash();
    EXPECT_NE(h, 0u);
    EXPECT_EQ(h, artifact::snapshotSchemaHash());
}

TEST(Snapshot, RejectsTruncationAtEveryPrefix)
{
    artifact::SystemSnapshot snap = compileSnapshot("bitcount");
    std::vector<uint8_t> bytes = artifact::encodeSnapshot(snap);
    // Every strict prefix must throw, never crash. Stride keeps the
    // test fast; the first and last few bytes are covered exactly.
    for (size_t n = 0; n < bytes.size();
         n += (n < 64 || n + 64 > bytes.size()) ? 1 : 97) {
        EXPECT_THROW(artifact::decodeSnapshot(bytes.data(), n),
                     artifact::SnapshotError)
            << "prefix " << n;
    }
}

TEST(Snapshot, RejectsTrailingGarbage)
{
    std::vector<uint8_t> bytes =
        artifact::encodeSnapshot(compileSnapshot("bitcount"));
    bytes.push_back(0xee);
    EXPECT_THROW(artifact::decodeSnapshot(bytes.data(), bytes.size()),
                 artifact::SnapshotError);
}

TEST(Snapshot, RejectsSchemaMismatch)
{
    std::vector<uint8_t> bytes =
        artifact::encodeSnapshot(compileSnapshot("bitcount"));
    // The embedded schema hash is the first field of the payload;
    // flipping any bit of it must be rejected up front.
    bytes[0] ^= 0x01;
    EXPECT_THROW(artifact::decodeSnapshot(bytes.data(), bytes.size()),
                 artifact::SnapshotError);
}

TEST(Snapshot, RejectsCorruptInterior)
{
    std::vector<uint8_t> bytes =
        artifact::encodeSnapshot(compileSnapshot("bitcount"));
    // Flip one byte at a spread of interior offsets. Decode must
    // either throw SnapshotError or produce *some* snapshot (a flip
    // inside e.g. global data is not detectable at this layer — the
    // store's CRC covers it); it must never crash.
    for (size_t off = 8; off < bytes.size(); off += 211) {
        std::vector<uint8_t> bad = bytes;
        bad[off] ^= 0x40;
        try {
            (void)artifact::decodeSnapshot(bad.data(), bad.size());
        } catch (const artifact::SnapshotError &) {
            // Expected for most offsets.
        }
    }
}

} // namespace
} // namespace bitspec
