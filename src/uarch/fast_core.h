/**
 * @file
 * The fast core engine: executes a PredecodedProgram with the exact
 * observable behaviour of the legacy Core (ActivityCounters, cache
 * stats, output checksum, attribution and per-block profiler feeds —
 * bit-identical, ctest-enforced), an order of magnitude faster on the
 * no-miss hot path.
 *
 * Two execution paths over one body per behaviour:
 *
 *  - Slow path: one pre-decoded instruction at a time, cycle-accurate,
 *    a direct port of the legacy Core loop: fetch and issue stall,
 *    then execute() (the functional work of every non-terminator
 *    kind) and retire() (timing and accounting from its Outcome), or
 *    terminate() for Branch/Call/Ret/Halt.
 *
 *  - Block replay: straight-line runs (block bodies up to their
 *    terminator) get a RunMemo — a statically computed schedule of the
 *    run under the no-miss/no-misspec assumptions: total cycles,
 *    summed counter deltas, per-instruction cycle costs and
 *    scoreboard effects. When the entry guards hold (operands the
 *    schedule assumed ready are ready, fuel suffices, every I-line is
 *    resident), the run replays in one sweep: ROp micro-ops or the
 *    same execute() do only the functional work, and timing/accounting
 *    commit from the memo. D-cache accesses are still performed for
 *    real, so hierarchy state stays exact; the first dynamic
 *    divergence (D-miss, store stall, misspeculation) goes through
 *    diverge(): commit the prefix from the memo, retire the diverging
 *    instruction cycle-accurately, and drop back to the slow path. A
 *    clean body ends in the same terminate() and may chain straight
 *    into the successor's memo.
 *
 * The engine is split in two. A FastCore is one program's immutable
 * side: the pre-decoded code and its memo table, which depends only
 * on code geometry, so every run of the program shares it. A
 * FastMachine is the state of one run (memory, registers, caches,
 * counters) and is bound to a FastCore per run; concurrent runs of
 * one program each use their own machine and need no lock.
 */

#ifndef BITSPEC_UARCH_FAST_CORE_H_
#define BITSPEC_UARCH_FAST_CORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "ir/module.h"
#include "support/zeroed_pages.h"
#include "uarch/cache.h"
#include "uarch/core.h"
#include "uarch/counters.h"
#include "uarch/predecode.h"

namespace bitspec
{

class AttributionSink;
class BlockProfilerSink;
class CounterTrackEmitter;

/**
 * The fast engine of one program: its pre-decoded code and the memo
 * table every run of it shares, plus cumulative counts. Memos are
 * built lazily, on the first visit to a site whose whole run is
 * L1I-resident (the first visit where it could replay), and published
 * once; after publication a RunMemo never changes, so any number of
 * FastMachines (one per thread) may run the same FastCore at once.
 */
class FastCore
{
  public:
    /** Longest straight-line run one memo covers; longer runs fall
     *  back to the slow path (never seen in practice). */
    static constexpr uint32_t kMaxRunLen = 4096;

    /** Dump slot past the architectural registers: replay scoreboard
     *  stores index it for instructions with no scoreboard write, so
     *  the store is unconditional. Never read. */
    static constexpr uint32_t kScratchReg = 16;

    /** @p pre (and the MachProgram it wraps) must outlive the core. */
    explicit FastCore(const PredecodedProgram &pre);

    const PredecodedProgram &predecoded() const { return pre_; }

    /** Memos published so far (observability/tests). */
    size_t memoCount() const
    {
        return memoCount_.load(std::memory_order_acquire);
    }
    /** Replayed runs / slow-path instructions over every run that
     *  reached its halt (observability/tests). */
    uint64_t replayedRuns() const
    {
        return replayedRuns_.load(std::memory_order_relaxed);
    }
    uint64_t slowInsts() const
    {
        return slowInsts_.load(std::memory_order_relaxed);
    }

  private:
    friend class FastMachine;

    /** Statically scheduled straight-line run starting at one flat
     *  index: the block-site body up to (excluding) its terminator.
     *  Immutable once published; per-run state (deferred replay
     *  counts, fetch pins) lives in the machine, indexed by id. */
    struct RunMemo
    {
        bool eligible = false;
        uint32_t id = 0;           ///< Dense, in publication order.
        uint32_t start = 0;
        uint32_t len = 0;          ///< Body instructions.
        uint64_t bodyCycles = 0;   ///< Cycle offset at terminator fetch.
        uint32_t maxReadyOff = 0;  ///< Max scoreboard offset written.
        uint16_t entryReadyMask = 0; ///< Regs assumed ready at entry.
        uint64_t fuelCost = 0;     ///< Retirements incl. terminator.
        uint32_t fetchFirst = 0;   ///< PC of start.
        uint32_t fetchLast = 0;    ///< PC of the terminator.
        /** Body counter sums plus the terminator's static contrib
         *  (cycles unused; a conditional terminator's takenBranches
         *  is counted live). */
        ActivityCounters delta;
        /** Compact replay micro-op, one per body instruction:
         *  full-width register/flag operations are pre-resolved to
         *  direct register-file ops; anything that can diverge, touch
         *  memory or write a sub-register slice stays Generic and
         *  runs execute(). */
        struct ROp
        {
            enum K : uint8_t
            {
                kGeneric = 0,
                kAddRR, kAddRI, kSubRR, kSubRI, kSubIR,
                kAndRR, kAndRI, kOrrRR, kOrrRI, kEorRR, kEorRI,
                kLslRR, kLslRI, kLsrRR, kLsrRI, kAsrRR, kAsrRI,
                kMulRR, kMulRI, kMovR, kMovI, kMvnR, kMovtI,
                kCmpRR, kCmpRI, kCmpIR,
                kSetcc, kSxth, kUxth, kUxt8, kSxt8,
                kLoadWRR, kLoadWRI,
            };
            uint8_t op = kGeneric;
            uint8_t dst = 0, a = 0, b = 0;
            /** Immediate (Cond for Setcc; for Generic, the issue
             *  offset execute() times a conditional move from). */
            uint32_t imm = 0;
            uint16_t readyOff = 0;  ///< PerInst::readyOff, compact.
            uint8_t writeReg = kScratchReg; ///< PerInst::writeReg.
        };

        struct PerInst
        {
            uint32_t cycBefore = 0; ///< Cycle offset at fetch.
            uint32_t issueOff = 0;  ///< Cycle offset after issue stall.
            uint32_t readyOff = 0;  ///< Scoreboard offset on write.
            uint8_t cost = 0;       ///< Cycles charged to the sinks.
            /** Scoreboard slot written on retire: a register index,
             *  or the scratch slot (16) for no-write/conditional
             *  instructions — the replay store is branchless. */
            uint8_t writeReg = kScratchReg;
        };
        std::vector<PerInst> per;
        std::vector<ROp> ops; ///< One per body instruction.
    };

    /** The published memo at flat index @p idx, or nullptr. */
    const RunMemo *
    memoIfBuilt(uint32_t idx) const
    {
        return bySite_[idx].load(std::memory_order_acquire);
    }
    /** Build the memo at @p idx and publish it: built outside the
     *  lock, the first publisher wins. Returns the published memo. */
    const RunMemo &buildMemoAt(uint32_t idx);
    /** Published memo @p id (< memoCount() as seen by the caller). */
    const RunMemo &
    memoById(uint32_t id) const
    {
        return *byId_[id].load(std::memory_order_acquire);
    }
    RunMemo buildMemo(uint32_t start) const;
    /** Pre-resolve one body instruction into its replay micro-op. */
    static RunMemo::ROp translateOp(const PInst &p,
                                    const RunMemo::PerInst &pi);

    const PredecodedProgram &pre_;
    /** One slot per flat index and one per id, null until published;
     *  at most one memo per index, so ids stay below size(). */
    std::vector<std::atomic<const RunMemo *>> bySite_, byId_;
    std::mutex publishMu_; ///< Serializes publication into memos_.
    std::deque<RunMemo> memos_; ///< Stable addresses.
    std::atomic<size_t> memoCount_{0};
    std::atomic<uint64_t> replayedRuns_{0};
    std::atomic<uint64_t> slowInsts_{0};
};

/**
 * Machine state of one run: 4 MiB of data memory, registers,
 * scoreboard, the memory hierarchy, counters, output, and the per-run
 * side of every memo (deferred replay counts, fetch pins). bind() ties
 * it to a FastCore and a global image; a machine serves one run at a
 * time, so callers keep one per thread. Same observable contract as
 * Core (the differential oracle — see tests/uarch/
 * core_engine_diff_test.cc).
 */
class FastMachine
{
  public:
    FastMachine();

    /** Start over on @p code: load @p globals' images into zeroed
     *  memory and reset registers, caches, counters, output, fuel,
     *  observers and the misspeculation policy. @p code and
     *  @p globals must outlive the runs. */
    void bind(FastCore &code, const Module &globals);

    /** Run from _start with up to four @p args in r0..r3; returns r0
     *  at HALT. A halting run folds its replay counts into the
     *  FastCore. */
    uint32_t run(const std::vector<uint32_t> &args = {});

    /** Valid after run() returns. After run() raises a FatalError
     *  (division by zero, out-of-bounds access, bad PC, fuel) the
     *  counters, memory stats and output are undefined until bind():
     *  a trap leaves deferred replay counts unfolded, and nothing
     *  reads the counters of a trapped run. */
    const ActivityCounters &counters() const { return counters_; }
    const MemoryHierarchy &memory() const { return mem_; }
    const std::vector<uint64_t> &output() const { return output_; }

    /** FNV-1a over the output stream; matches Core's. */
    uint64_t outputChecksum() const { return outputHash_; }

    void setFuel(uint64_t fuel) { fuel_ = fuel; }

    /** Same observer contract as Core::setAttribution /
     *  setBlockProfiler / setCounterTracks: replayed blocks feed the
     *  sinks their exact per-instruction counts from the memo. */
    void setAttribution(AttributionSink *sink) { attr_ = sink; }
    void setBlockProfiler(BlockProfilerSink *sink) { prof_ = sink; }
    void setCounterTracks(CounterTrackEmitter *tracks)
    {
        tracks_ = tracks;
    }

    /** Same semantics as Core::setMisspecPolicy. Both paths
     *  evaluate shouldForce in execute(), in program order and in the
     *  same operand order as Core, so the Random stream stays aligned
     *  and legacy-vs-fast counter equality holds under every policy;
     *  a forced check leaves replay through diverge() like a natural
     *  one. */
    void
    setMisspecPolicy(MisspecPolicy p, uint64_t seed = 0x5eed)
    {
        policy_ = p;
        rng_ = Rng(seed);
    }
    MisspecPolicy misspecPolicy() const { return policy_; }

    /** Replayed runs / slow-path instructions since bind(). */
    uint64_t replayedRuns() const { return replayedRuns_; }
    uint64_t slowInsts() const { return slowInsts_; }

  private:
    using RunMemo = FastCore::RunMemo;
    static constexpr uint32_t kScratchReg = FastCore::kScratchReg;

    struct Flags
    {
        bool n = false, z = false, c = false, v = false;
    };

    /** This run's side of one memo, indexed by RunMemo::id. */
    struct MemoState
    {
        /** Clean replays not yet folded into counters_: the memo's
         *  delta is committed as delta * pendingReplays at finish()
         *  instead of per replay (the hot path's biggest accounting
         *  cost). */
        uint64_t pendingReplays = 0;
        /** Pinned L1I footprint (slots + per-line fetch counts).
         *  While the L1I fill generation matches, the residency guard
         *  is one compare and the fetch commit a direct stat bump. */
        MemoryHierarchy::FetchPin pin;
    };

    bool condHolds(Cond c) const;
    uint32_t loadData(uint32_t addr, unsigned bytes);
    void storeData(uint32_t addr, uint32_t value, unsigned bytes);
    void setFlagsSub(uint64_t a, uint64_t b, unsigned bits);
    void emitOut(uint64_t v);

    bool entryReady(const RunMemo &m) const;

    /** What execute() did beyond the functional work. */
    struct Outcome
    {
        uint32_t stall = 0;   ///< D-cache stall of its access.
        bool wrote = false;   ///< Wrote dst; retire() times it.
        bool misspec = false; ///< A speculative check fired.

        /** The memo schedule still holds. */
        bool clean() const { return !stall && !misspec; }
    };

    /** Functional work of one non-terminator instruction issued at
     *  cycle @p issue — the one execute body of both paths. A
     *  conditional move's write is outside the memo schedule, so it
     *  times its own scoreboard entry from @p issue. Speculative
     *  checks consult policy_; only Generic micro-ops reach them. */
    Outcome execute(const PInst &p, uint64_t issue);
    /** Timing and accounting of the non-terminator at @p idx from its
     *  Outcome, with cycle_ at its issue; returns the next index. */
    uint32_t retire(uint32_t idx, const PInst &p, Outcome o,
                    uint64_t cycle_at_fetch);
    /** Branch/Call/Ret/Halt @p p at @p idx, fetched at
     *  @p cycle_at_fetch and counted by the caller; returns the next
     *  index, or sets halted_. */
    uint32_t terminate(uint32_t idx, const PInst &p,
                       uint64_t cycle_at_fetch);

    /** Replay the memoized run at cycle_, chaining into successor
     *  memos while their guards hold; returns the next flat index
     *  (or sets halted_). */
    uint32_t replay(const RunMemo &m);
    /** Leave a replay at body instruction @p i (cycle_ still at the
     *  run's entry): commit the first @p i instructions from the memo
     *  (fetches, counters, sinks, fuel), then retire the diverging
     *  one cycle-accurately. */
    uint32_t diverge(const RunMemo &m, uint32_t i, Outcome o);
    /** Replay residency guard: valid pin (one compare) or probe and
     *  re-pin. False when some I-line is not resident. Sizes
     *  memoState_ to cover @p m, so replay may index it directly. */
    bool fetchGuard(const RunMemo &m);
    /** Commit one fetch traversal of the memo's range, via the pin
     *  when valid. */
    void commitFetches(const RunMemo &m, const MemoState &s);
    /** One cycle-accurate slow-path instruction; returns next idx. */
    uint32_t slowStep(uint32_t idx);

    void applyContrib(const CounterContrib &c);
    void applyDstWrite(uint8_t dst_write);
    void finish(uint64_t final_cycle);

    FastCore *code_ = nullptr;
    const PredecodedProgram *pre_ = nullptr;
    const MachProgram *prog_ = nullptr;
    ZeroedPages dataMem_;
    uint32_t regs_[16] = {};
    Flags flags_;
    uint32_t delta_ = 0;
    bool classicMode_ = false;

    MemoryHierarchy mem_;
    ActivityCounters counters_;
    std::vector<uint64_t> output_;
    uint64_t outputHash_ = Core::kFnvOffset;
    uint64_t fuel_ = Core::kDefaultFuel;
    AttributionSink *attr_ = nullptr;
    BlockProfilerSink *prof_ = nullptr;
    CounterTrackEmitter *tracks_ = nullptr;
    MisspecPolicy policy_ = MisspecPolicy::Hardware;
    Rng rng_{0x5eed};

    /** Overlay policy_ for one check site; mirrors Core::shouldForce
     *  (same draw order keeps the Random streams aligned). */
    bool
    shouldForce()
    {
        if (policy_ == MisspecPolicy::ForceFirst)
            return true;
        if (policy_ == MisspecPolicy::Random)
            return rng_.next() % 8 == 0;
        return false;
    }

    /** Scoreboard: cycle when each register's value is ready; slot
     *  kScratchReg is the write-only dump for branchless replay
     *  stores. */
    uint64_t readyAt_[17] = {};
    /** Upper bound on max(readyAt_): when <= cycle_, the whole
     *  scoreboard is quiescent and replay entry needs no per-register
     *  check. */
    uint64_t maxReady_ = 0;

    /** Per-run state (members so the replay/slow helpers share it). */
    uint64_t cycle_ = 0;
    uint64_t executed_ = 0;
    bool halted_ = false;
    uint32_t retVal_ = 0;

    std::vector<MemoState> memoState_;

    uint64_t replayedRuns_ = 0;
    uint64_t slowInsts_ = 0;
};

} // namespace bitspec

#endif // BITSPEC_UARCH_FAST_CORE_H_
