#include "core/system.h"

#include "analysis/pipeline.h"
#include "analysis/verifier.h"
#include "ir/clone.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "support/env.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

CoreEngine
engineFromEnv()
{
    const std::string v =
        env::getString("BITSPEC_CORE_ENGINE", "fast");
    if (v == "fast")
        return CoreEngine::Fast;
    if (v == "legacy")
        return CoreEngine::Legacy;
    fatal("BITSPEC_CORE_ENGINE must be \"fast\" or \"legacy\", got "
          "\"" + v + "\"");
}

/** A globals-only Module holding @p images. */
std::unique_ptr<Module>
globalsModule(
    const std::vector<artifact::SystemSnapshot::GlobalImage> &images)
{
    auto m = std::make_unique<Module>();
    for (const artifact::SystemSnapshot::GlobalImage &g : images) {
        Global *ng = m->addGlobal(g.name, g.elemBits,
                                  static_cast<size_t>(g.elemCount));
        ng->setAddress(g.address);
        ng->setData(g.data);
    }
    return m;
}

} // namespace

SystemConfig
SystemConfig::baseline()
{
    SystemConfig c;
    c.isa = TargetISA::Baseline;
    c.squeeze = false;
    return c;
}

SystemConfig
SystemConfig::bitspec(Heuristic h)
{
    SystemConfig c;
    c.isa = TargetISA::BitSpec;
    c.squeeze = true;
    c.squeezeOpts.heuristic = h;
    return c;
}

SystemConfig
SystemConfig::noSpeculation()
{
    SystemConfig c;
    c.isa = TargetISA::BitSpec;
    c.squeeze = true;
    c.squeezeOpts.speculate = false;
    return c;
}

SystemConfig
SystemConfig::dtsOnly()
{
    SystemConfig c = baseline();
    c.dts = true;
    return c;
}

SystemConfig
SystemConfig::dtsPlusBitspec(Heuristic h)
{
    SystemConfig c = bitspec(h);
    c.dts = true;
    return c;
}

System::System(const std::string &source, const SystemConfig &config,
               const std::function<void(Module &)> &train_input,
               const std::vector<uint64_t> &train_args)
    : System(TrainedProgram::build(source, config.expander, train_input,
                                   train_args),
             config)
{}

System::System(std::shared_ptr<const TrainedProgram> trained,
               const SystemConfig &config)
    : config_(config)
{
    knobs_.engine = engineFromEnv();
    trace::Span span("system.build", "compile");
    if (!trained->workload().empty())
        span.arg("workload", trained->workload());
    span.arg("squeeze", config_.squeeze ? "1" : "0");
    span.arg("isa", config_.isa == TargetISA::BitSpec ? "bitspec"
                                                      : "baseline");
    bsAssert(trained->expanderOptions() == config_.expander,
             "System: front half expanded under other options");
    CloneMap map;
    module_ = cloneModule(trained->module(), &map);
    pipelineCheckpoint(*module_, "ir:clone");
    expandStats_ = trained->expandStats();
    trainIrSteps_ = trained->irSteps();

    if (config_.squeeze) {
        squeezeStats_ = squeezeModule(*module_,
                                      trained->profile().remapped(map),
                                      config_.squeezeOpts);
        pipelineCheckpoint(*module_, "transform:squeezer");
    }

    compiled_ = compileModule(*module_, config_.isa);

    globalSnapshot_.reserve(module_->globals().size());
    for (const auto &g : module_->globals()) {
        artifact::SystemSnapshot::GlobalImage img;
        img.name = g->name();
        img.elemBits = g->elemBits();
        img.elemCount = g->elemCount();
        img.address = g->address();
        img.data = g->data();
        globalSnapshot_.push_back(std::move(img));
    }
    finishImage();
}

System::System(const artifact::SystemSnapshot &snap,
               const SystemConfig &config)
    : config_(config), globalSnapshot_(snap.globals)
{
    knobs_.engine = engineFromEnv();
    trace::Span span("system.restore", "compile");
    module_ = globalsModule(globalSnapshot_);
    compiled_.program = snap.program;
    compiled_.stats = snap.backendStats;
    squeezeStats_ = snap.squeezeStats;
    expandStats_ = snap.expandStats;
    trainIrSteps_ = snap.profiledIrSteps;
    finishImage();
}

void
System::finishImage()
{
    predecoded_ = std::make_unique<PredecodedProgram>(compiled_.program);
    fastCore_ = std::make_unique<FastCore>(*predecoded_);
}

artifact::SystemSnapshot
System::makeSnapshot(const std::string &key) const
{
    artifact::SystemSnapshot snap;
    snap.key = key;
    snap.program = compiled_.program;
    snap.backendStats = compiled_.stats;
    snap.squeezeStats = squeezeStats_;
    snap.expandStats = expandStats_;
    snap.profiledIrSteps = trainIrSteps_;
    snap.globals = globalSnapshot_;
    return snap;
}

RunResult
System::run(const std::function<void(Module &)> &run_input,
            const std::vector<uint32_t> &args) const
{
    return run(run_input, args, nullptr);
}

RunResult
System::run(const std::function<void(Module &)> &run_input,
            const std::vector<uint32_t> &args,
            AttributionSink *attr) const
{
    RunObservers obs;
    obs.attribution = attr;
    return run(run_input, args, obs);
}

RunResult
System::run(const std::function<void(Module &)> &run_input,
            const std::vector<uint32_t> &args,
            const RunObservers &observers) const
{
    return run(run_input, args, observers, knobs_);
}

RunResult
System::run(const std::function<void(Module &)> &run_input,
            const std::vector<uint32_t> &args,
            const RunObservers &observers, const RunKnobs &knobs) const
{
    trace::Span span("system.run", "execute");
    const std::unique_ptr<Module> globals = globalsModule(globalSnapshot_);
    if (run_input)
        run_input(*globals);

    // Any traced run gets counter tracks alongside its spans unless
    // the caller brought its own emitter.
    CounterTrackEmitter traced_tracks;
    CounterTrackEmitter *tracks = observers.tracks;
    if (!tracks && trace::enabled())
        tracks = &traced_tracks;

    RunResult out;
    // Both engines model the same hardware and expose the same
    // observer and telemetry surface.
    auto run_on = [&](auto &core) {
        core.setAttribution(observers.attribution);
        core.setBlockProfiler(observers.blocks);
        core.setCounterTracks(tracks);
        core.setMisspecPolicy(knobs.policy, knobs.policySeed);
        out.returnValue = core.run(args);
        out.outputChecksum = core.outputChecksum();
        out.counters = core.counters();
        const MemoryHierarchy &mem = core.memory();
        out.l1i = mem.l1i();
        out.l1d = mem.l1d();
        out.l2 = mem.l2();
        out.dram = mem.dram();
        out.energy = computeEnergy(out.counters, mem, config_.energy);
    };
    if (knobs.engine == CoreEngine::Fast) {
        // One machine per thread, rebound to this System every run:
        // the memos live in the shared FastCore, so a warm machine
        // brings nothing of its previous program along.
        static thread_local FastMachine machine;
        machine.bind(*fastCore_, *globals);
        run_on(machine);
    } else {
        Core core(compiled_.program, *globals);
        run_on(core);
    }
    if (config_.dts) {
        DtsResult d =
            applyDts(out.energy, out.counters, config_.dtsParams);
        out.totalEnergy = d.scaledEnergy;
        out.meanVoltage = d.meanVoltage;
    } else {
        out.totalEnergy = out.energy.total();
        out.meanVoltage = config_.dtsParams.vNominal;
    }
    out.epi = out.counters.instructions
                  ? out.totalEnergy /
                        static_cast<double>(out.counters.instructions)
                  : 0.0;

    out.squeezeStats = squeezeStats_;
    out.expandStats = expandStats_;
    out.backendStats = compiled_.stats;
    return out;
}

} // namespace bitspec
