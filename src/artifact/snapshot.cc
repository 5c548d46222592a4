#include "artifact/snapshot.h"

#include <cstring>

#include "support/hash.h"
#include "support/str.h"

namespace bitspec::artifact
{

namespace
{

/** Guard against absurd element counts from corrupt length fields:
 *  nothing in this codebase compiles to programs or globals anywhere
 *  near this size, and every variable-length read is additionally
 *  bounds-checked against the remaining payload. */
constexpr uint64_t kMaxElems = 1u << 26;

class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    i32(int32_t v)
    {
        u32(static_cast<uint32_t>(v));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void
    bytes(const std::vector<uint8_t> &b)
    {
        u64(b.size());
        buf_.insert(buf_.end(), b.begin(), b.end());
    }

    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

class Reader
{
  public:
    Reader(const uint8_t *data, size_t size)
        : p_(data), end_(data + size)
    {}

    uint8_t
    u8()
    {
        need(1);
        return *p_++;
    }

    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(p_[i]) << (8 * i);
        p_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(p_[i]) << (8 * i);
        p_ += 8;
        return v;
    }

    int32_t
    i32()
    {
        return static_cast<int32_t>(u32());
    }

    std::string
    str()
    {
        uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(p_), n);
        p_ += n;
        return s;
    }

    std::vector<uint8_t>
    bytes()
    {
        uint64_t n = u64();
        need(n);
        std::vector<uint8_t> b(p_, p_ + n);
        p_ += n;
        return b;
    }

    /** Element count for a sequence whose elements occupy at least
     *  @p min_elem_bytes each; rejects counts the remaining payload
     *  cannot possibly hold, before any allocation happens. */
    uint32_t
    count(size_t min_elem_bytes)
    {
        uint32_t n = u32();
        if (n > kMaxElems ||
            static_cast<uint64_t>(n) * min_elem_bytes >
                static_cast<uint64_t>(end_ - p_))
            throw SnapshotError(
                strFormat("implausible element count %u", n));
        return n;
    }

    bool atEnd() const { return p_ == end_; }

  private:
    void
    need(uint64_t n)
    {
        if (static_cast<uint64_t>(end_ - p_) < n)
            throw SnapshotError("truncated payload");
    }

    const uint8_t *p_;
    const uint8_t *end_;
};

void
putOpnd(Writer &w, const MOpnd &o)
{
    w.u8(static_cast<uint8_t>(o.kind));
    w.u8(o.reg);
    w.u8(o.slice);
    w.u8(o.vregIsSlice ? 1 : 0);
    w.u64(static_cast<uint64_t>(o.imm));
    w.u32(o.vreg);
}

MOpnd
getOpnd(Reader &r)
{
    MOpnd o;
    uint8_t kind = r.u8();
    if (kind > static_cast<uint8_t>(MOpndKind::VReg))
        throw SnapshotError("bad operand kind");
    o.kind = static_cast<MOpndKind>(kind);
    o.reg = r.u8();
    o.slice = r.u8();
    o.vregIsSlice = r.u8() != 0;
    o.imm = static_cast<int64_t>(r.u64());
    o.vreg = r.u32();
    return o;
}

void
putInst(Writer &w, const MachInst &inst)
{
    w.u8(static_cast<uint8_t>(inst.op));
    w.u8(static_cast<uint8_t>(inst.cond));
    w.u8(inst.speculative ? 1 : 0);
    w.u8(inst.origBits);
    w.u8(static_cast<uint8_t>(inst.tag));
    w.i32(inst.target);
    putOpnd(w, inst.dst);
    putOpnd(w, inst.a);
    putOpnd(w, inst.b);
}

MachInst
getInst(Reader &r)
{
    MachInst inst;
    uint8_t op = r.u8();
    if (op > static_cast<uint8_t>(MOp::MODE))
        throw SnapshotError("bad opcode");
    inst.op = static_cast<MOp>(op);
    uint8_t cond = r.u8();
    if (cond > static_cast<uint8_t>(Cond::GE))
        throw SnapshotError("bad condition code");
    inst.cond = static_cast<Cond>(cond);
    inst.speculative = r.u8() != 0;
    inst.origBits = r.u8();
    uint8_t tag = r.u8();
    if (tag > static_cast<uint8_t>(InstTag::FrameSetup))
        throw SnapshotError("bad instruction tag");
    inst.tag = static_cast<InstTag>(tag);
    inst.target = r.i32();
    inst.dst = getOpnd(r);
    inst.a = getOpnd(r);
    inst.b = getOpnd(r);
    return inst;
}

/** Serialized MachInst size (count() plausibility floor). */
constexpr size_t kInstBytesOnDisk = 5 + 4 + 3 * (4 + 8 + 4);

void
putFunction(Writer &w, const MachFunction &mf)
{
    w.str(mf.name);
    w.i32(mf.id);
    w.u32(mf.numVRegs);
    w.u32(static_cast<uint32_t>(mf.vregIsSlice.size()));
    for (bool b : mf.vregIsSlice)
        w.u8(b ? 1 : 0);
    w.u32(mf.spillSlots);
    w.u32(static_cast<uint32_t>(mf.usedCalleeSaved.size()));
    for (unsigned reg : mf.usedCalleeSaved)
        w.u32(reg);
    w.u8(mf.hasCalls ? 1 : 0);
    w.u32(mf.lastAllocReg);
    w.u8(mf.twoAddress ? 1 : 0);
    w.u32(mf.delta);
    w.u32(mf.baseAddr);
    w.u32(mf.entryIndex);

    // Block metadata only; insts are a pre-layout artefact (see
    // header comment).
    w.u32(static_cast<uint32_t>(mf.blocks.size()));
    for (const MachBlock &mb : mf.blocks) {
        w.str(mb.name);
        w.i32(mb.id);
        w.i32(mb.handlerBlock);
        w.u8(mb.isHandler ? 1 : 0);
        w.i32(mb.regionId);
        w.i32(mb.regionSrcLine);
        w.i32(mb.regionLeakSites);
        w.i32(mb.regionLeaksDischarged);
    }

    w.u32(static_cast<uint32_t>(mf.blockIndex.size()));
    for (const auto &[block_id, code_index] : mf.blockIndex) {
        w.i32(block_id);
        w.u32(code_index);
    }

    w.u32(static_cast<uint32_t>(mf.code.size()));
    for (const MachInst &inst : mf.code)
        putInst(w, inst);
}

MachFunction
getFunction(Reader &r)
{
    MachFunction mf;
    mf.name = r.str();
    mf.id = r.i32();
    mf.numVRegs = r.u32();
    uint32_t n_slices = r.count(1);
    mf.vregIsSlice.reserve(n_slices);
    for (uint32_t i = 0; i < n_slices; ++i)
        mf.vregIsSlice.push_back(r.u8() != 0);
    mf.spillSlots = r.u32();
    uint32_t n_saved = r.count(4);
    mf.usedCalleeSaved.reserve(n_saved);
    for (uint32_t i = 0; i < n_saved; ++i)
        mf.usedCalleeSaved.push_back(r.u32());
    mf.hasCalls = r.u8() != 0;
    mf.lastAllocReg = r.u32();
    mf.twoAddress = r.u8() != 0;
    mf.delta = r.u32();
    mf.baseAddr = r.u32();
    mf.entryIndex = r.u32();

    uint32_t n_blocks = r.count(4 * 6 + 1 + 4);
    mf.blocks.reserve(n_blocks);
    for (uint32_t i = 0; i < n_blocks; ++i) {
        MachBlock mb;
        mb.name = r.str();
        mb.id = r.i32();
        mb.handlerBlock = r.i32();
        mb.isHandler = r.u8() != 0;
        mb.regionId = r.i32();
        mb.regionSrcLine = r.i32();
        mb.regionLeakSites = r.i32();
        mb.regionLeaksDischarged = r.i32();
        mf.blocks.push_back(std::move(mb));
    }

    uint32_t n_index = r.count(8);
    for (uint32_t i = 0; i < n_index; ++i) {
        int32_t block_id = r.i32();
        mf.blockIndex[block_id] = r.u32();
    }

    uint32_t n_code = r.count(kInstBytesOnDisk);
    mf.code.reserve(n_code);
    for (uint32_t i = 0; i < n_code; ++i)
        mf.code.push_back(getInst(r));
    return mf;
}

/** The compile stats section: every backend, squeeze and expand
 *  field as a u32, each struct in field-table order. */
template <typename Snapshot, typename Fn>
void
forEachStat(Snapshot &snap, Fn &&fn)
{
    for (const auto &f : fieldsOf<BackendStats>())
        fn(snap.backendStats.*f.member);
    for (const auto &f : fieldsOf<SqueezeStats>())
        fn(snap.squeezeStats.*f.member);
    for (const auto &f : fieldsOf<ExpandStats>())
        fn(snap.expandStats.*f.member);
}

} // namespace

uint64_t
snapshotSchemaHash()
{
    Hash128Builder h;
    h.updateU64(kSnapshotFormatVersion);
    // Struct layouts: a new/removed field changes the sizeof even
    // when the explicit encoder has not caught up yet, so the store
    // fails closed (recompile) rather than serving misdecoded data.
    h.updateU64(sizeof(MOpnd));
    h.updateU64(sizeof(MachInst));
    h.updateU64(sizeof(MachBlock));
    h.updateU64(sizeof(MachFunction));
    h.updateU64(sizeof(MachProgram));
    h.updateU64(sizeof(BackendStats));
    h.updateU64(sizeof(SqueezeStats));
    h.updateU64(sizeof(ExpandStats));
    // Enum surfaces: appending an opcode/tag keeps sizeof stable but
    // must still invalidate (old files could now decode to wrong
    // semantics on a renumber).
    h.updateU64(static_cast<uint64_t>(MOp::MODE));
    h.updateU64(static_cast<uint64_t>(Cond::GE));
    h.updateU64(static_cast<uint64_t>(MOpndKind::VReg));
    h.updateU64(static_cast<uint64_t>(InstTag::FrameSetup));
    return h.digest().hi ^ h.digest().lo;
}

std::vector<uint8_t>
encodeSnapshot(const SystemSnapshot &snap)
{
    Writer w;
    w.u32(kSnapshotFormatVersion);
    w.u64(snapshotSchemaHash());
    w.str(snap.key);

    const MachProgram &prog = snap.program;
    w.u32(static_cast<uint32_t>(prog.funcs.size()));
    for (const MachFunction &mf : prog.funcs)
        putFunction(w, mf);
    w.i32(prog.entryFunc);
    w.u32(static_cast<uint32_t>(prog.flat.size()));
    for (const MachInst &inst : prog.flat)
        putInst(w, inst);
    w.u32(static_cast<uint32_t>(prog.funcOfIndex.size()));
    for (uint32_t f : prog.funcOfIndex)
        w.u32(f);

    forEachStat(snap, [&w](unsigned v) { w.u32(v); });
    w.u64(snap.profiledIrSteps);

    w.u32(static_cast<uint32_t>(snap.globals.size()));
    for (const SystemSnapshot::GlobalImage &g : snap.globals) {
        w.str(g.name);
        w.u32(g.elemBits);
        w.u64(g.elemCount);
        w.u32(g.address);
        w.bytes(g.data);
    }
    return w.take();
}

SystemSnapshot
decodeSnapshot(const uint8_t *data, size_t size)
{
    Reader r(data, size);
    uint32_t version = r.u32();
    if (version != kSnapshotFormatVersion)
        throw SnapshotError(
            strFormat("format version %u, expected %u", version,
                      kSnapshotFormatVersion));
    uint64_t schema = r.u64();
    if (schema != snapshotSchemaHash())
        throw SnapshotError("schema hash mismatch (stale artifact)");

    SystemSnapshot snap;
    snap.key = r.str();

    uint32_t n_funcs = r.count(16);
    snap.program.funcs.reserve(n_funcs);
    for (uint32_t i = 0; i < n_funcs; ++i)
        snap.program.funcs.push_back(getFunction(r));
    snap.program.entryFunc = r.i32();
    uint32_t n_flat = r.count(kInstBytesOnDisk);
    snap.program.flat.reserve(n_flat);
    for (uint32_t i = 0; i < n_flat; ++i)
        snap.program.flat.push_back(getInst(r));
    uint32_t n_foi = r.count(4);
    snap.program.funcOfIndex.reserve(n_foi);
    for (uint32_t i = 0; i < n_foi; ++i)
        snap.program.funcOfIndex.push_back(r.u32());

    forEachStat(snap, [&r](unsigned &v) { v = r.u32(); });
    snap.profiledIrSteps = r.u64();

    uint32_t n_globals = r.count(4 + 4 + 8 + 4 + 8);
    snap.globals.reserve(n_globals);
    for (uint32_t i = 0; i < n_globals; ++i) {
        SystemSnapshot::GlobalImage g;
        g.name = r.str();
        g.elemBits = r.u32();
        if (g.elemBits != 8 && g.elemBits != 16 && g.elemBits != 32 &&
            g.elemBits != 64)
            throw SnapshotError("bad global element width");
        g.elemCount = r.u64();
        g.address = r.u32();
        g.data = r.bytes();
        if (g.elemCount > kMaxElems ||
            g.data.size() != g.elemCount * (g.elemBits / 8))
            throw SnapshotError("global image size mismatch");
        snap.globals.push_back(std::move(g));
    }
    if (!r.atEnd())
        throw SnapshotError("trailing bytes after snapshot");
    return snap;
}

} // namespace bitspec::artifact
