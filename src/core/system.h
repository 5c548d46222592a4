/**
 * @file
 * End-to-end BitSpec system facade: source -> expander -> profiler ->
 * squeezer -> backend -> core model -> energy, mirroring the paper's
 * experiment configurations (§A.7): architecture (baseline/bitspec),
 * compiler (baseline / bitwidth_speculation / no-speculation),
 * middle-end heuristic (2cfg-{max,avg,min}), expander on/off, and
 * DTS voltage scaling.
 */

#ifndef BITSPEC_CORE_SYSTEM_H_
#define BITSPEC_CORE_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>

#include "artifact/snapshot.h"
#include "backend/compiler.h"
#include "core/trained_program.h"
#include "energy/dts.h"
#include "energy/model.h"
#include "transform/expander.h"
#include "transform/squeezer.h"
#include "uarch/core.h"
#include "uarch/fast_core.h"
#include "uarch/predecode.h"
#include "uarch/telemetry.h"

namespace bitspec
{

class BlockProfilerSink;
class CounterTrackEmitter;

/** Which uarch execution engine System::run drives. Both produce
 *  bit-identical observables (ctest-enforced by
 *  tests/uarch/core_engine_diff_test.cc); Fast is an order of
 *  magnitude quicker on the no-miss hot path. Selected by the
 *  BITSPEC_CORE_ENGINE env knob ("fast" default, "legacy"),
 *  programmatically via System::setCoreEngine, or per run through
 *  RunKnobs. */
enum class CoreEngine
{
    Legacy, ///< Cycle-accurate reference Core (the oracle).
    Fast,   ///< Pre-decoded, block-memoized FastCore.
};

/** Observers a run attaches to the core; all optional, all must
 *  outlive the run. When `tracks` is null but BITSPEC_TRACE is
 *  active, System attaches a transient CounterTrackEmitter so every
 *  traced run gets IPC / misspec-rate / cache-hit counter tracks for
 *  free. */
struct RunObservers
{
    AttributionSink *attribution = nullptr;
    BlockProfilerSink *blocks = nullptr;
    CounterTrackEmitter *tracks = nullptr;
};

/** How one run executes: the engine and the misspeculation overlay
 *  (see Core::setMisspecPolicy; the seed re-seeds the core's RNG, so
 *  Random runs are independent of run ordering). Passed per run, so
 *  concurrent runs of one System may differ. */
struct RunKnobs
{
    CoreEngine engine = CoreEngine::Fast;
    MisspecPolicy policy = MisspecPolicy::Hardware;
    uint64_t policySeed = 0x5eed;
};

/** One experiment configuration (paper §A.7 YAML equivalent). */
struct SystemConfig
{
    /** Architecture / ISA. */
    TargetISA isa = TargetISA::BitSpec;
    /** Apply the squeezer at all (false = baseline compiler). */
    bool squeeze = true;
    /** Squeezer options (speculate=false is the RQ2 variant). */
    SqueezeOptions squeezeOpts;
    /** Expander options (enabled=false is the RQ4 ablation). */
    ExpanderOptions expander;
    /** Apply the DTS voltage-scaling model (RQ8). */
    bool dts = false;
    DtsParams dtsParams;
    /** Energy model parameters. */
    EnergyParams energy;

    /** Canonical configurations. */
    static SystemConfig baseline();
    static SystemConfig bitspec(Heuristic h = Heuristic::Max);
    static SystemConfig noSpeculation();
    static SystemConfig dtsOnly();
    static SystemConfig dtsPlusBitspec(Heuristic h = Heuristic::Max);
};

/** All measurements from one compiled-and-simulated run. */
struct RunResult
{
    uint32_t returnValue = 0;
    uint64_t outputChecksum = 0;

    ActivityCounters counters;
    CacheStats l1i, l1d, l2;
    DramStats dram;

    EnergyBreakdown energy;
    double totalEnergy = 0;   ///< pJ; DTS-scaled when dts is on.
    double epi = 0;           ///< pJ per instruction.
    double meanVoltage = 0;   ///< Volts (1.2 without DTS).

    SqueezeStats squeezeStats;
    ExpandStats expandStats;
    BackendStats backendStats;

    RunTelemetry telemetry() const { return {counters, l1i, l1d, l2, dram}; }
};

/**
 * A compiled system instance, reusable across inputs: an immutable
 * image (linked program, pre-decoded code with its shared memo table,
 * pristine global images, compile stats). run() is const and keeps
 * all machine state per calling thread, so any number of threads may
 * run one System at once; only the setters below need a single owner.
 */
class System
{
  public:
    /**
     * Build from C-subset source: TrainedProgram::build, then the
     * constructor below. @p train_input (optional) mutates module
     * globals before the profiling run; profiling executes "main"
     * with @p train_args.
     */
    System(const std::string &source, const SystemConfig &config,
           const std::function<void(Module &)> &train_input = {},
           const std::vector<uint64_t> &train_args = {});

    /**
     * Build from a shared front half: clone its module, re-key its
     * profile onto the clone, then squeeze (when config.squeeze) and
     * compile. @p trained is never mutated and must have been built
     * with config.expander.
     */
    System(std::shared_ptr<const TrainedProgram> trained,
           const SystemConfig &config);

    /**
     * Warm-start from an artifact-store snapshot: no frontend,
     * profiling, squeeze or codegen — the linked program, stats and
     * post-profiling global images come straight from @p snap.
     * @p config must be the configuration the snapshot was compiled
     * under (the store's content-addressed key guarantees this).
     *
     * The restored Module carries globals only (run inputs mutate
     * globals by name; nothing downstream of the backend reads IR
     * functions), so run()s are bit-identical to a fresh compile —
     * ctest-enforced by tests/artifact/artifact_diff_test.cc.
     */
    System(const artifact::SystemSnapshot &snap,
           const SystemConfig &config);

    /** The pre-decode table refers to compiled_, so a System stays
     *  where it was built. */
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Capture this System for the artifact store. @p key is the
     *  canonical systemKey embedded for collision detection. */
    artifact::SystemSnapshot makeSnapshot(const std::string &key) const;

    /**
     * Run with fresh input under the System's default knobs: a
     * globals-only Module is built from the post-profiling global
     * images (so runs are independent — required for the experiment
     * engine's compile-once/run-many reuse), @p run_input mutates it,
     * and the core executes from _start on the calling thread's
     * machine.
     */
    RunResult run(const std::function<void(Module &)> &run_input = {},
                  const std::vector<uint32_t> &args = {}) const;

    /** As above, with a misspeculation-attribution recorder attached
     *  to the core for this run (nullptr = no attribution). */
    RunResult run(const std::function<void(Module &)> &run_input,
                  const std::vector<uint32_t> &args,
                  AttributionSink *attr) const;

    /** As above, with any combination of observers attached to the
     *  core for this run. */
    RunResult run(const std::function<void(Module &)> &run_input,
                  const std::vector<uint32_t> &args,
                  const RunObservers &observers) const;

    /** As above, under @p knobs instead of the System's defaults. */
    RunResult run(const std::function<void(Module &)> &run_input,
                  const std::vector<uint32_t> &args,
                  const RunObservers &observers,
                  const RunKnobs &knobs) const;

    /** The squeezed IR (globals only for a System restored from a
     *  snapshot). Runs never read it. */
    Module &module() { return *module_; }
    const MachProgram &program() const { return compiled_.program; }
    const SystemConfig &config() const { return config_; }
    const SqueezeStats &squeezeStats() const { return squeezeStats_; }

    /** @name Default knobs
     * What run() uses when no RunKnobs are passed. Set by a single
     * owner between runs, never while another thread runs the System.
     */
    /// @{
    /** Override the BITSPEC_CORE_ENGINE selection for later runs. */
    void setCoreEngine(CoreEngine engine) { knobs_.engine = engine; }
    CoreEngine coreEngine() const { return knobs_.engine; }

    /** Misspeculation policy of later runs. Machine cores only; the
     *  training run always trains under Hardware semantics. */
    void
    setMisspecPolicy(MisspecPolicy p, uint64_t seed = 0x5eed)
    {
        knobs_.policy = p;
        knobs_.policySeed = seed;
    }
    MisspecPolicy misspecPolicy() const { return knobs_.policy; }
    const RunKnobs &knobs() const { return knobs_; }
    /// @}

    /** The fast engine's shared side (observability/tests): memo
     *  count, and replay stats summed over every halted fast run. */
    const FastCore *fastCore() const { return fastCore_.get(); }

    /** Dynamic IR instructions of the training run (Fig. 3's
     *  IR-level series). */
    uint64_t profiledIrInstructions() const { return trainIrSteps_; }

  private:
    /** Pre-decode the linked program and create its memo table:
     *  the last step of every constructor. */
    void finishImage();

    SystemConfig config_;
    /** This System's own copy of the trained module, squeezed. */
    std::unique_ptr<Module> module_;
    CompiledProgram compiled_;
    SqueezeStats squeezeStats_;
    ExpandStats expandStats_;
    uint64_t trainIrSteps_ = 0;
    RunKnobs knobs_;
    /** The compiled program never changes after construction, so its
     *  pre-decode table and the memos built on it serve every run. */
    std::unique_ptr<PredecodedProgram> predecoded_;
    std::unique_ptr<FastCore> fastCore_;
    /** Post-profiling global images: every run starts from a
     *  globals-only Module built from them, so run N cannot leak state
     *  (e.g. longer previous inputs) into run N+1. */
    std::vector<artifact::SystemSnapshot::GlobalImage> globalSnapshot_;
};

} // namespace bitspec

#endif // BITSPEC_CORE_SYSTEM_H_
