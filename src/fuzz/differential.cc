#include "fuzz/differential.h"

#include "frontend/irgen.h"
#include "fuzz/gen.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "support/error.h"
#include "support/str.h"
#include "transform/expander.h"
#include "transform/squeezer.h"

namespace bitspec
{

namespace
{

constexpr MisspecPolicy kPolicies[] = {
    MisspecPolicy::Hardware,
    MisspecPolicy::ForceFirst,
    MisspecPolicy::Random,
};

void
setFuzzInputs(Module &m, uint64_t seed)
{
    for (unsigned n = 0; n < 2; ++n) {
        Global *g = m.getGlobal("in" + std::to_string(n));
        bsAssert(g != nullptr, "fuzz program lost its input global");
        g->setElem(0, fuzzInputValue(seed, n));
    }
}

} // namespace

Workload
makeFuzzWorkload(const FuzzProgram &p)
{
    Workload w;
    w.name = "fuzz-" + std::to_string(p.seed);
    w.source = p.render();
    w.setInput = [](Module &m, uint64_t seed) {
        setFuzzInputs(m, seed);
    };
    return w;
}

FuzzDiffResult
runFuzzDifferential(const FuzzProgram &p, ExperimentRunner &runner,
                    const FuzzDiffOptions &opts)
{
    FuzzDiffResult out;
    const Workload w = makeFuzzWorkload(p);
    SystemConfig cfg = SystemConfig::bitspec(opts.heuristic);
    cfg.expander.unrollFactor = opts.unrollFactor;

    auto diverge = [&](std::string detail) {
        out.status = FuzzDiffStatus::Diverged;
        if (out.detail.empty())
            out.detail = std::move(detail);
    };

    // ---- Reference: the unsqueezed decoded interpreter. ----
    uint64_t want = 0;
    uint64_t want_sum = 0;
    try {
        auto ref_mod = compileSource(w.source);
        setFuzzInputs(*ref_mod, opts.runSeed);
        Interpreter ref(*ref_mod);
        ref.setFuel(opts.fuel);
        want = truncTo(ref.run("main"), 32);
        want_sum = ref.outputChecksum();
    } catch (const FatalError &e) {
        out.status = FuzzDiffStatus::Skipped;
        out.detail = std::string("reference: ") + e.what();
        return out;
    }
    out.refReturn = want;
    out.refChecksum = want_sum;

    // ---- Decoded interpreter on the squeezed IR, all policies. ----
    // Runs on a clone of the System's module (built once by the
    // runner and shared with the machine cells below, which may be
    // running it meanwhile), so the squeeze pipeline executes once per
    // program. A System restored from the disk artifact tier has no
    // IR; fall back to rebuilding the squeezed module locally
    // (identical passes, same train/run protocol).
    auto interpSweep = [&](Module &mod) {
        setFuzzInputs(mod, opts.runSeed);
        Interpreter it(mod);
        it.setFuel(opts.fuel);
        for (MisspecPolicy policy : kPolicies) {
            it.reset(); // Re-copy globals, clear outputs/stats.
            it.setMisspecPolicy(policy);
            it.setRandomSeed(opts.policySeed);
            uint64_t got = truncTo(it.run("main"), 32);
            ++out.runsExecuted;
            if (got != want)
                diverge(strFormat(
                    "interp/%s: return %llu != ref %llu",
                    misspecPolicyName(policy),
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(want)));
            if (it.outputChecksum() != want_sum)
                diverge(strFormat(
                    "interp/%s: checksum %016llx != ref %016llx",
                    misspecPolicyName(policy),
                    static_cast<unsigned long long>(
                        it.outputChecksum()),
                    static_cast<unsigned long long>(want_sum)));
        }
    };
    try {
        std::unique_ptr<Module> squeezed;
        runner.withSystem(w, cfg, opts.profileSeed, [&](System &sys) {
            if (sys.module().getFunction("main") != nullptr)
                squeezed = cloneModule(sys.module());
        });
        if (squeezed) {
            interpSweep(*squeezed);
        } else {
            auto mod = compileSource(w.source);
            setFuzzInputs(*mod, opts.profileSeed);
            expandModule(*mod, cfg.expander);
            BitwidthProfile profile;
            profile.profileRun(*mod);
            squeezeModule(*mod, profile, cfg.squeezeOpts);
            interpSweep(*mod);
        }
    } catch (const FatalError &e) {
        out.status = FuzzDiffStatus::Skipped;
        out.detail = std::string("interp pipeline: ") + e.what();
        return out;
    }

    // ---- Machine engines via the experiment engine: one compiled
    // System serves all six engine x policy cells. ----
    std::vector<ExperimentCell> cells;
    for (CoreEngine engine : {CoreEngine::Legacy, CoreEngine::Fast}) {
        for (MisspecPolicy policy : kPolicies) {
            ExperimentCell cell;
            cell.workload = &w;
            cell.config = cfg;
            cell.profileSeed = opts.profileSeed;
            cell.runSeed = opts.runSeed;
            cell.engine = engine;
            cell.policy = policy;
            cell.policySeed = opts.policySeed;
            cells.push_back(std::move(cell));
        }
    }
    std::vector<RunResult> results;
    try {
        results = runner.run(cells);
    } catch (const FatalError &e) {
        out.status = FuzzDiffStatus::Skipped;
        out.detail = std::string("machine pipeline: ") + e.what();
        return out;
    }
    out.runsExecuted += static_cast<unsigned>(results.size());

    auto engine_name = [](size_t i) {
        return i < 3 ? "core" : "fast-core";
    };
    for (size_t i = 0; i < results.size(); ++i) {
        const char *policy =
            misspecPolicyName(kPolicies[i % 3]);
        if (results[i].returnValue != want)
            diverge(strFormat(
                "%s/%s: return %llu != ref %llu", engine_name(i),
                policy,
                static_cast<unsigned long long>(
                    results[i].returnValue),
                static_cast<unsigned long long>(want)));
        if (results[i].outputChecksum != want_sum)
            diverge(strFormat(
                "%s/%s: checksum %016llx != ref %016llx",
                engine_name(i), policy,
                static_cast<unsigned long long>(
                    results[i].outputChecksum),
                static_cast<unsigned long long>(want_sum)));
    }
    // Legacy cell i and fast cell i+3 ran the same policy and model
    // identical hardware: counters, caches and DRAM must agree field
    // for field.
    for (size_t i = 0; i < 3 && i + 3 < results.size(); ++i) {
        std::string diff = firstTelemetryDiff(
            results[i].telemetry(), results[i + 3].telemetry());
        if (!diff.empty())
            diverge(strFormat("core-vs-fast/%s: %s",
                              misspecPolicyName(kPolicies[i]),
                              diff.c_str()));
    }
    return out;
}

} // namespace bitspec
