/**
 * @file
 * The core model: a 32-bit, single-issue, in-order, 6-stage pipeline
 * with the BitSpec µarchitectural extensions (paper §3.5/§4.1):
 * byte-enable register-slice access, a segmented ALU that reports
 * misspeculation from slice-boundary carries, and the PC += Δ
 * redirect into skeleton blocks.
 *
 * Timing is modelled with an in-order scoreboard: one instruction per
 * cycle, plus operand-readiness stalls (load-use, multiply/divide
 * latency), taken-branch flushes, cache misses and misspeculation
 * redirects. Functional state is exact, so machine runs are checked
 * bit-for-bit against the IR interpreter.
 */

#ifndef BITSPEC_UARCH_CORE_H_
#define BITSPEC_UARCH_CORE_H_

#include <cstdint>
#include <vector>

#include "backend/mir.h"
#include "ir/module.h"
#include "support/misspec.h"
#include "support/rng.h"
#include "uarch/cache.h"
#include "uarch/counters.h"

namespace bitspec
{

class AttributionSink;
class BlockProfilerSink;
class CounterTrackEmitter;

/** Executes linked EMB32 programs. */
class Core
{
  public:
    static constexpr size_t kMemBytes = 1 << 22;
    static constexpr uint64_t kDefaultFuel = 600'000'000;
    static constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
    static constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
    /** One past the largest InstTag value (dense counter array). */
    static constexpr size_t kNumInstTags =
        static_cast<size_t>(InstTag::FrameSetup) + 1;

    /** @param program Linked program. @param m Module providing the
     *  global-data image (copied at reset). */
    Core(const MachProgram &program, const Module &m);

    /** Reload globals, clear state and counters. */
    void reset();

    /** Run from _start with up to four @p args in r0..r3; returns r0
     *  at HALT. */
    uint32_t run(const std::vector<uint32_t> &args = {});

    const ActivityCounters &counters() const { return counters_; }
    const MemoryHierarchy &memory() const { return mem_; }
    const std::vector<uint64_t> &output() const { return output_; }

    /** FNV-1a over the output stream; matches Interpreter's. */
    uint64_t outputChecksum() const;

    void setFuel(uint64_t fuel) { fuel_ = fuel; }

    /** Attach (or detach with nullptr) a misspeculation-attribution
     *  recorder for subsequent runs. The run loop pays one null test
     *  per retired instruction when no sink is attached; @p sink must
     *  outlive the runs it observes. */
    void setAttribution(AttributionSink *sink) { attr_ = sink; }

    /** Attach (or detach with nullptr) a per-block heat profiler for
     *  subsequent runs; same hot-path contract as setAttribution. */
    void setBlockProfiler(BlockProfilerSink *sink) { prof_ = sink; }

    /** Attach (or detach with nullptr) a windowed counter-track
     *  emitter (IPC / misspec rate / cache hit rate samples into the
     *  trace stream); same hot-path contract as setAttribution. */
    void setCounterTracks(CounterTrackEmitter *tracks)
    {
        tracks_ = tracks;
    }

    /** Select how the four speculative check sites (LDRS8/ADD8/SUB8/
     *  TRN8) behave on subsequent runs. ForceFirst redirects at every
     *  check; Random redirects with probability 1/8 (seeded, so runs
     *  are reproducible). Either way a check that Hardware semantics
     *  require to fire still fires — Theorems 3.1/3.2 make the
     *  committed outputs policy-independent, which the differential
     *  fuzzer exercises. */
    void
    setMisspecPolicy(MisspecPolicy p, uint64_t seed = 0x5eed)
    {
        policy_ = p;
        rng_ = Rng(seed);
    }
    MisspecPolicy misspecPolicy() const { return policy_; }

  private:
    /** Policy overlay for one check site: true forces a redirect even
     *  though the value fits. Keep call sites short-circuited after
     *  the architectural condition so Random consumes one RNG draw
     *  per non-firing check — FastMachine::slowStep mirrors the same
     *  order, keeping the two streams aligned for counter equality. */
    bool
    shouldForce()
    {
        if (policy_ == MisspecPolicy::ForceFirst)
            return true;
        if (policy_ == MisspecPolicy::Random)
            return rng_.next() % 8 == 0;
        return false;
    }
    struct Flags
    {
        bool n = false, z = false, c = false, v = false;
    };

    bool condHolds(Cond c) const;
    uint32_t readOpnd(const MOpnd &o);
    void writeOpnd(const MOpnd &o, uint32_t value);
    uint32_t loadData(uint32_t addr, unsigned bytes);
    void storeData(uint32_t addr, uint32_t value, unsigned bytes);

    const MachProgram &prog_;
    const Module &module_;
    std::vector<uint8_t> dataMem_;
    uint32_t regs_[16] = {};
    Flags flags_;
    uint32_t delta_ = 0;
    bool classicMode_ = false;

    MemoryHierarchy mem_;
    ActivityCounters counters_;
    std::vector<uint64_t> output_;
    /** FNV-1a over output_, maintained incrementally by OUT. */
    uint64_t outputHash_ = kFnvOffset;
    uint64_t fuel_ = kDefaultFuel;
    AttributionSink *attr_ = nullptr;
    BlockProfilerSink *prof_ = nullptr;
    CounterTrackEmitter *tracks_ = nullptr;
    MisspecPolicy policy_ = MisspecPolicy::Hardware;
    Rng rng_{0x5eed};

    /** Scoreboard: cycle when each register's value is ready. */
    uint64_t readyAt_[16] = {};
};

} // namespace bitspec

#endif // BITSPEC_UARCH_CORE_H_
