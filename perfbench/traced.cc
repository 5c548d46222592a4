#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "artifact/snapshot.h"
#include "artifact/store.h"
#include "backend/isel.h"
#include "backend/layout.h"
#include "backend/mir_verifier.h"
#include "backend/regalloc.h"
#include "core/system.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "profile/bitwidth_profile.h"
#include "support/error.h"
#include "support/stats.h"
#include "support/str.h"
#include "transform/expander.h"
#include "transform/squeezer.h"

namespace perfbench
{

using namespace bitspec;

SpanLog::Scope::Scope(SpanLog &log, std::string name, std::string arg)
    : log_(log), idx_(log.spans_.size())
{
    Span s;
    s.name = std::move(name);
    s.arg = std::move(arg);
    s.parent = log.current_;
    s.t0 = log.now();
    log.spans_.push_back(std::move(s));
    log.current_ = static_cast<int>(idx_);
}

SpanLog::Scope::~Scope()
{
    Span &s = log_.spans_[idx_];
    s.t1 = log_.now();
    log_.current_ = s.parent;
}

double
SpanLog::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

double
SpanLog::seconds(const std::string &name) const
{
    double sum = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.t1 - s.t0;
    return sum;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.t1 - s.t0);
    return out;
}

std::vector<SpanLog::Total>
SpanLog::totals() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[s.parent] += s.t1 - s.t0;
    std::vector<Total> out;
    std::map<std::string, size_t> at;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto [it, fresh] = at.emplace(s.name, out.size());
        if (fresh)
            out.push_back(Total{s.name});
        Total &t = out[it->second];
        ++t.count;
        t.seconds += s.t1 - s.t0;
        t.selfSeconds += s.t1 - s.t0 - child[i];
    }
    return out;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

bool
SpanLog::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"arg\":\"%s\"}}",
                     i ? "," : "", jsonEscape(s.name).c_str(),
                     s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                     jsonEscape(s.arg).c_str());
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

namespace
{

size_t
irInsts(const Module &m)
{
    size_t n = 0;
    for (const auto &f : m.functions())
        n += f->instructionCount();
    return n;
}

std::string
configName(const SystemConfig &c)
{
    if (!c.squeeze)
        return "baseline";
    if (!c.squeezeOpts.speculate)
        return "no-spec";
    return heuristicName(c.squeezeOpts.heuristic);
}

/** Sums the traced pass accumulates besides its spans. */
struct Tally
{
    uint64_t frontendIr = 0;
    uint64_t expanderIr = 0;
    uint64_t profileSteps = 0;
    double squeezeMax = 0;
    std::string squeezeMaxAt = "-";
};

/**
 * System construction decomposed into the calls System's constructor
 * and compileModule() make, in their order, each under its own span.
 * Returns the snapshot System::makeSnapshot would take of the result
 * (key left empty); BITSPEC_VERIFY_EACH checkpoints are skipped, as
 * bitspec_bench runs with every BITSPEC_* knob unset.
 */
artifact::SystemSnapshot
stagedBuild(const Workload &w, const SystemConfig &cfg,
            uint64_t profile_seed, SpanLog &log, Tally &tally)
{
    std::unique_ptr<Module> m;
    {
        SpanLog::Scope s(log, "frontend", w.name);
        m = compileSource(w.source);
        w.setInput(*m, profile_seed);
    }
    tally.frontendIr += irInsts(*m);

    artifact::SystemSnapshot snap;
    {
        SpanLog::Scope s(log, "expander", w.name);
        snap.expandStats = expandModule(*m, cfg.expander);
    }
    tally.expanderIr += irInsts(*m);

    BitwidthProfile profile;
    {
        SpanLog::Scope s(log, "profile", w.name);
        Interpreter interp(*m);
        if (cfg.squeeze)
            profile.profileRun(interp, "main");
        else
            interp.run("main");
        snap.profiledIrSteps = interp.stats().steps;
    }
    tally.profileSteps += snap.profiledIrSteps;

    if (cfg.squeeze) {
        {
            SpanLog::Scope s(log, "squeezer",
                             w.name + "/" + configName(cfg));
            snap.squeezeStats =
                squeezeModule(*m, profile, cfg.squeezeOpts);
        }
        const SpanLog::Span &s = log.spans().back();
        if (s.t1 - s.t0 > tally.squeezeMax) {
            tally.squeezeMax = s.t1 - s.t0;
            tally.squeezeMaxAt = s.arg;
        }
    }

    // compileModule(), stage by stage.
    std::vector<MachFunction> funcs;
    std::map<const Function *, int> ids;
    Function *main_fn = nullptr;
    {
        SpanLog::Scope s(log, "backend.layout", "globals");
        m->layoutGlobals();
        int next = 0;
        for (const auto &f : m->functions())
            ids[f.get()] = next++;
        main_fn = m->getFunction("main");
        if (!main_fn)
            fatal("stagedBuild: no main function in " + w.name);
    }
    BackendStats &bs = snap.backendStats;
    for (const auto &f : m->functions()) {
        MachFunction mf = [&] {
            SpanLog::Scope s(log, "backend.isel", f->name());
            return selectFunction(*f, ids[f.get()], cfg.isa, ids);
        }();
        {
            SpanLog::Scope s(log, "backend.regalloc", f->name());
            const BackendStats fs = allocateRegisters(mf);
            bs.staticSpillLoads += fs.staticSpillLoads;
            bs.staticSpillStores += fs.staticSpillStores;
            bs.staticCopies += fs.staticCopies;
            bs.spilledVRegs += fs.spilledVRegs;
        }
        {
            SpanLog::Scope s(log, "backend.layout", f->name());
            bs.skeletonInsts += layoutFunction(mf);
            mirVerifyOrDie(mf, "after layout of " + mf.name);
        }
        funcs.push_back(std::move(mf));
    }
    {
        SpanLog::Scope s(log, "backend.layout", "link");
        snap.program = linkProgram(std::move(funcs), ids[main_fn]);
    }
    bs.staticInsts = static_cast<unsigned>(snap.program.flat.size());

    for (const auto &g : m->globals()) {
        artifact::SystemSnapshot::GlobalImage img;
        img.name = g->name();
        img.elemBits = g->elemBits();
        img.elemCount = g->elemCount();
        img.address = g->address();
        img.data = g->data();
        snap.globals.push_back(std::move(img));
    }
    return snap;
}

/** FastCore replay counters are cumulative per System. */
struct CoreCounts
{
    uint64_t replayedRuns = 0;
    uint64_t slowInsts = 0;
};

CoreCounts
coreCounts(const System &sys)
{
    const FastCore *fc = sys.fastCore();
    return fc ? CoreCounts{fc->replayedRuns(), fc->slowInsts()}
              : CoreCounts{};
}

double
ms(double seconds)
{
    return seconds * 1e3;
}

} // namespace

TracedRun
runTraced(const Plan &plan, const std::string &store_dir)
{
    TracedRun out;
    SpanLog &log = out.log;
    Tally tally;
    const size_t n = plan.cells.size();
    out.results.resize(n);
    out.failed.assign(n, false);
    out.errors.resize(n);

    // Cells grouped by System, in first-use order.
    std::vector<std::vector<size_t>> cellsOf(plan.systemCount);
    std::vector<size_t> firstCell(plan.systemCount, n);
    for (size_t i = 0; i < n; ++i) {
        cellsOf[plan.systemOf[i]].push_back(i);
        firstCell[plan.systemOf[i]] =
            std::min(firstCell[plan.systemOf[i]], i);
    }
    std::vector<std::unique_ptr<System>> systems(plan.systemCount);
    std::vector<std::string> buildErr(plan.systemCount);
    std::vector<double> buildSeconds;
    // cold-suite: encoded after the pass, outside its time.
    std::vector<artifact::SystemSnapshot> staged(
        plan.kind == Kind::ColdSuite ? plan.systemCount : 0);

    // misspec-storm: its runner's Systems exist before any pass.
    if (plan.kind == Kind::MisspecStorm) {
        for (size_t s = 0; s < plan.systemCount; ++s) {
            const ExperimentCell &c = plan.cells[firstCell[s]];
            const auto t0 = std::chrono::steady_clock::now();
            try {
                systems[s] = std::make_unique<System>(
                    c.workload->source, c.config,
                    [&c](Module &m) {
                        c.workload->setInput(m, c.profileSeed);
                    });
            } catch (const std::exception &e) {
                buildErr[s] = e.what();
            }
            buildSeconds.push_back(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        }
    }

    std::unique_ptr<artifact::ArtifactStore> store;
    if (plan.kind == Kind::RunGrid)
        store = std::make_unique<artifact::ArtifactStore>(store_dir,
                                                          kStoreBudget);

    // Builds System @p s the way this workload's passes do.
    auto build = [&](size_t s) {
        const ExperimentCell &c = plan.cells[firstCell[s]];
        const Workload &w = *c.workload;
        SpanLog::Scope span(log, "system.build",
                            w.name + "/" + configName(c.config));
        try {
            if (plan.kind == Kind::ColdSuite) {
                artifact::SystemSnapshot snap =
                    stagedBuild(w, c.config, c.profileSeed, log, tally);
                SpanLog::Scope r(log, "artifact.restore", w.name);
                systems[s] = std::make_unique<System>(snap, c.config);
                staged[s] = std::move(snap);
            } else {
                SpanLog::Scope r(log, "artifact.restore", w.name);
                auto snap = store->load(
                    ExperimentRunner::systemKeyHash(w, c.config,
                                                    c.profileSeed),
                    ExperimentRunner::systemKey(w, c.config,
                                                c.profileSeed));
                if (!snap)
                    fatal("artifact store has no snapshot for " +
                          w.name + "/" + configName(c.config));
                systems[s] = std::make_unique<System>(*snap, c.config);
            }
        } catch (const std::exception &e) {
            buildErr[s] = e.what();
        }
    };

    uint64_t sim_instrs = 0, slow_insts = 0, misspecs = 0;
    const auto p0 = std::chrono::steady_clock::now();
    {
        SpanLog::Scope pass(log, "pass");
        for (size_t s = 0; s < plan.systemCount; ++s) {
            if (plan.kind != Kind::MisspecStorm)
                build(s);
            for (size_t i : cellsOf[s]) {
                const ExperimentCell &c = plan.cells[i];
                SpanLog::Scope cell(log, "cell", c.workload->name);
                if (!systems[s]) {
                    out.failed[i] = true;
                    out.errors[i] = "build: " + buildErr[s];
                    continue;
                }
                System &sys = *systems[s];
                const CoreCounts before = coreCounts(sys);
                try {
                    SpanLog::Scope r(log, "core.run", c.workload->name);
                    sys.setMisspecPolicy(c.policy, c.policySeed);
                    out.results[i] = sys.run([&c](Module &m) {
                        c.workload->setInput(m, c.runSeed);
                    });
                } catch (const std::exception &e) {
                    out.failed[i] = true;
                    out.errors[i] = e.what();
                    continue;
                }
                const CoreCounts after = coreCounts(sys);
                slow_insts += after.slowInsts - before.slowInsts;
                sim_instrs += out.results[i].counters.instructions;
                misspecs += out.results[i].counters.misspeculations;
            }
        }
    }
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - p0)
                          .count();

    // Memos built, and released untimed, as the untraced passes
    // release their runner's cache.
    uint64_t memos = 0, memos_replayed = 0;
    for (std::unique_ptr<System> &sys : systems) {
        if (const FastCore *fc = sys ? sys->fastCore() : nullptr) {
            memos += fc->memoCount();
            if (fc->replayedRuns() > 0)
                memos_replayed += fc->memoCount();
        }
        sys.reset();
    }

    for (const artifact::SystemSnapshot &snap : staged)
        out.stagedSnapshots.push_back(artifact::encodeSnapshot(snap));

    // The static code of every System the pass ran.
    uint64_t static_insts = 0, spilled = 0, regions = 0, narrowed = 0;
    for (size_t s = 0; s < plan.systemCount; ++s) {
        const size_t i = firstCell[s];
        if (out.failed[i])
            continue;
        static_insts += out.results[i].backendStats.staticInsts;
        spilled += out.results[i].backendStats.spilledVRegs;
        regions += out.results[i].squeezeStats.regions;
        narrowed += out.results[i].squeezeStats.narrowed;
    }

    if (plan.kind != Kind::MisspecStorm)
        buildSeconds = log.durations("system.build");
    const std::vector<double> runSeconds = log.durations("core.run");
    auto pct = [](const std::vector<double> &xs, double p) {
        return xs.empty() ? 0.0 : ms(percentile(xs, p));
    };
    const double profile_s = log.seconds("profile");
    const double core_s = log.seconds("core.run");
    double compile_s = 0;
    for (const char *layer :
         {"frontend", "expander", "profile", "squeezer", "backend.isel",
          "backend.regalloc", "backend.layout"})
        compile_s += log.seconds(layer);
    const artifact::StoreStats ds =
        store ? store->stats() : artifact::StoreStats{};
    auto d = [](uint64_t v) { return static_cast<double>(v); };

    out.layers = {
        {"frontend.ms", ms(log.seconds("frontend")), "ms"},
        {"frontend.ir_insts", d(tally.frontendIr), "count"},
        {"expander.ms", ms(log.seconds("expander")), "ms"},
        {"expander.ir_insts", d(tally.expanderIr), "count"},
        {"profile.ms", ms(profile_s), "ms"},
        {"profile.ir_msteps_per_s",
         profile_s > 0 ? d(tally.profileSteps) / profile_s / 1e6 : 0.0,
         "M/s"},
        {"squeezer.ms", ms(log.seconds("squeezer")), "ms"},
        {"squeezer.ms_max", ms(tally.squeezeMax), "ms"},
        {"squeezer.regions", d(regions), "count"},
        {"squeezer.narrowed", d(narrowed), "count"},
        {"backend.isel_ms", ms(log.seconds("backend.isel")), "ms"},
        {"backend.regalloc_ms", ms(log.seconds("backend.regalloc")),
         "ms"},
        {"backend.layout_ms", ms(log.seconds("backend.layout")), "ms"},
        {"backend.static_insts", d(static_insts), "count"},
        {"backend.spilled_vregs", d(spilled), "count"},
        {"compile.share",
         out.wallSeconds > 0 ? compile_s / out.wallSeconds : 0.0,
         "ratio"},
        {"build.ms_p50", pct(buildSeconds, 50), "ms"},
        {"build.ms_p90", pct(buildSeconds, 90), "ms"},
        {"run.ms_p50", pct(runSeconds, 50), "ms"},
        {"run.ms_p90", pct(runSeconds, 90), "ms"},
        {"core.ms", ms(core_s), "ms"},
        {"core.minstr_per_s",
         core_s > 0 ? d(sim_instrs) / core_s / 1e6 : 0.0, "M/s"},
        {"core.replay_share",
         sim_instrs ? 1.0 - d(slow_insts) / d(sim_instrs) : 0.0,
         "ratio"},
        {"core.memos", d(memos), "count"},
        {"core.memos_replayed_share",
         memos ? d(memos_replayed) / d(memos) : 0.0, "ratio"},
        {"core.sim_instrs", d(sim_instrs), "count"},
        {"core.misspecs", d(misspecs), "count"},
        {"artifact.restore_ms", ms(log.seconds("artifact.restore")),
         "ms"},
        {"artifact.disk_hits", d(ds.hits), "count"},
        {"artifact.invalid", d(ds.invalid), "count"},
    };
    out.notes.push_back(strFormat(
        "squeezer.ms_max hit by %s", tally.squeezeMaxAt.c_str()));
    out.notes.push_back(strFormat(
        "core.replay_share base: %llu simulated instrs, %llu on the "
        "slow path",
        static_cast<unsigned long long>(sim_instrs),
        static_cast<unsigned long long>(slow_insts)));
    out.notes.push_back(strFormat(
        "build.ms_p50/p90 over %zu Systems%s; run.ms_p50/p90 over %zu "
        "cells",
        buildSeconds.size(),
        plan.kind == Kind::MisspecStorm ? " (built before the pass)"
                                        : "",
        runSeconds.size()));
    return out;
}

} // namespace perfbench
