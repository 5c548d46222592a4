/**
 * @file
 * BitSpec benchmark program. One process runs one workload for one
 * seed through the public ExperimentRunner API, checks every cell
 * against the unsqueezed IR interpreter, and prints each metric by
 * name with its unit; the last line of stdout is the JSON result.
 *
 *   bitspec_bench --workload cold-suite|run-grid|misspec-storm
 *                 --seed N --seconds S --trace 0|1
 *                 [--smoke] [--work-dir DIR] [--trace-out FILE]
 *                 [--git-sha SHA] [--env-cleared NAMES]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (see README.md). Normally started through run.py, which builds
 * this binary first.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "artifact/snapshot.h"
#include "bench.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "support/bits.h"
#include "support/hash.h"
#include "support/stats.h"
#include "support/str.h"
#include "traced.h"
#include "workloads/workload.h"

extern char **environ;

namespace perfbench
{
namespace
{

using namespace bitspec;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : percentile(std::move(xs), 50);
}

// ---------------------------------------------------------------- plans

/** The programs a plan covers: all 14, or two in --smoke. */
std::vector<const Workload *>
programs(bool smoke)
{
    std::vector<const Workload *> out;
    for (const Workload &w : mibenchSuite())
        out.push_back(&w);
    if (smoke)
        out = {&getWorkload("bitcount"), &getWorkload("susan-edges")};
    return out;
}

/** Numbers Systems by System key, in first-use order. */
void
indexSystems(Plan &p)
{
    std::unordered_map<Hash128, size_t, Hash128Hasher> ids;
    for (const ExperimentCell &c : p.cells) {
        const Hash128 k = ExperimentRunner::systemKeyHash(
            *c.workload, c.config, c.profileSeed);
        auto [it, fresh] = ids.emplace(k, ids.size());
        p.systemOf.push_back(it->second);
    }
    p.systemCount = ids.size();
}

Plan
makePlan(Kind kind, uint64_t seed, bool smoke)
{
    Plan p;
    p.kind = kind;
    const std::vector<const Workload *> progs = programs(smoke);
    switch (kind) {
      case Kind::ColdSuite:
        // The Fig. 8-14 population: every program under every
        // compiler configuration, profiled and run on the same input.
        for (const Workload *w : progs) {
            const size_t base = p.cells.size();
            for (const SystemConfig &cfg :
                 {SystemConfig::baseline(),
                  SystemConfig::bitspec(Heuristic::Max),
                  SystemConfig::bitspec(Heuristic::Avg),
                  SystemConfig::bitspec(Heuristic::Min),
                  SystemConfig::noSpeculation()})
                p.cells.emplace_back(w, cfg, seed, seed);
            p.energyPairs.emplace_back(base + 1, base);
        }
        break;
      case Kind::RunGrid: {
        // Fig. 16: susan-edges profiled on image i, run on image j.
        const unsigned images = smoke ? 2 : 6;
        const uint64_t img0 = 100 + uint64_t{images} * seed;
        const Workload &susan = getWorkload("susan-edges");
        for (Heuristic h : {Heuristic::Max, Heuristic::Avg,
                            Heuristic::Min})
            for (unsigned i = 0; i < images; ++i)
                for (unsigned j = 0; j < images; ++j)
                    p.cells.emplace_back(&susan, SystemConfig::bitspec(h),
                                         img0 + i, img0 + j);
        // Fig. 8 population on three run inputs.
        const unsigned runs = smoke ? 1 : 3;
        for (const Workload *w : progs)
            for (unsigned r = 0; r < runs; ++r) {
                p.cells.emplace_back(w, SystemConfig::baseline(), seed,
                                     seed + r);
                p.cells.emplace_back(w, SystemConfig::bitspec(Heuristic::Max),
                                     seed, seed + r);
                p.energyPairs.emplace_back(p.cells.size() - 1,
                                           p.cells.size() - 2);
            }
        break;
      }
      case Kind::MisspecStorm:
        // fuzz_spec traffic: each System serves two forced policies.
        for (const Workload *w : progs)
            for (Heuristic h : {Heuristic::Avg, Heuristic::Min})
                for (MisspecPolicy pol :
                     {MisspecPolicy::Random, MisspecPolicy::ForceFirst}) {
                    ExperimentCell c(w, SystemConfig::bitspec(h), seed,
                                     seed);
                    c.policy = pol;
                    c.policySeed = 0x5eed + seed;
                    p.cells.push_back(c);
                }
        break;
    }
    indexSystems(p);
    return p;
}

// --------------------------------------------------------------- oracle

/** Return value and output checksum of the unsqueezed IR
 *  interpreter on one (program, run input). */
struct Expected
{
    uint32_t ret = 0;
    uint64_t checksum = 0;
    std::string error; ///< Non-empty: the reference itself failed.
};

using Oracle = std::map<std::pair<const Workload *, uint64_t>, Expected>;

Oracle
buildOracle(const Plan &plan)
{
    Oracle oracle;
    for (const ExperimentCell &c : plan.cells) {
        auto [it, fresh] =
            oracle.emplace(std::make_pair(c.workload, c.runSeed),
                           Expected{});
        if (!fresh)
            continue;
        Expected &e = it->second;
        try {
            auto m = compileSource(c.workload->source);
            c.workload->setInput(*m, c.runSeed);
            Interpreter interp(*m);
            e.ret = static_cast<uint32_t>(truncTo(interp.run("main"), 32));
            e.checksum = interp.outputChecksum();
            if (c.runSeed == 0 && c.workload->expectedChecksum != 0 &&
                e.checksum != c.workload->expectedChecksum)
                e.error = strFormat(
                    "interpreter checksum %016llx != expected %016llx",
                    static_cast<unsigned long long>(e.checksum),
                    static_cast<unsigned long long>(
                        c.workload->expectedChecksum));
        } catch (const std::exception &ex) {
            e.error = ex.what();
        }
    }
    return oracle;
}

// ---------------------------------------------------------------- passes

/** Bit-exact digest of every simulated observable of one run. */
Hash128
cellDigest(const RunResult &r)
{
    static_assert(
        std::has_unique_object_representations_v<ActivityCounters> &&
        std::has_unique_object_representations_v<CacheStats> &&
        std::has_unique_object_representations_v<DramStats>);
    Hash128Builder h;
    h.updateU64(r.returnValue);
    h.updateU64(r.outputChecksum);
    h.update(&r.counters, sizeof r.counters);
    for (const CacheStats *c : {&r.l1i, &r.l1d, &r.l2})
        h.update(c, sizeof *c);
    h.update(&r.dram, sizeof r.dram);
    for (double v : {r.energy.alu, r.energy.regfile, r.energy.dcache,
                     r.energy.icache, r.energy.pipeline, r.totalEnergy})
        h.updateDouble(v);
    return h.digest();
}

struct Pass
{
    double wall = 0;
    std::vector<RunResult> results;
    std::vector<bool> failed;
    std::vector<std::string> errors;
    ExperimentStats stats;
};

/** Runs every cell, submitted in @p order (plan order when empty);
 *  results come back in plan order. A failing cell is recorded,
 *  never fatal. */
void
runCells(ExperimentRunner &runner, const Plan &plan, Pass &out,
         const std::vector<size_t> &order = {})
{
    const size_t n = plan.cells.size();
    std::vector<size_t> at = order;
    if (at.empty())
        for (size_t i = 0; i < n; ++i)
            at.push_back(i);
    std::vector<ExperimentCell> cells;
    for (size_t i : at)
        cells.push_back(plan.cells[i]);
    out.results.assign(n, RunResult{});
    out.failed.assign(n, false);
    out.errors.assign(n, "");
    try {
        std::vector<RunResult> res = runner.run(cells);
        for (size_t k = 0; k < n; ++k)
            out.results[at[k]] = std::move(res[k]);
        return;
    } catch (const std::exception &) {
        // run() reports only the first failure: redo cell by cell
        // (built Systems are cached) to attribute each one.
    }
    for (size_t i = 0; i < n; ++i) {
        try {
            out.results[i] = runner.run({plan.cells[i]}).front();
        } catch (const std::exception &e) {
            out.failed[i] = true;
            out.errors[i] = e.what();
        }
    }
}

/** Builds (without running) every System of @p plan on @p runner,
 *  from @p threads threads. Failures surface when the cells run. */
void
buildAll(ExperimentRunner &runner, const Plan &plan, unsigned threads)
{
    std::vector<size_t> first(plan.systemCount, plan.cells.size());
    for (size_t i = plan.cells.size(); i-- > 0;)
        first[plan.systemOf[i]] = i;
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t s; (s = next++) < first.size();) {
            const ExperimentCell &c = plan.cells[first[s]];
            try {
                runner.withSystem(*c.workload, c.config, c.profileSeed,
                                  [](System &) {});
            } catch (...) {
            }
        }
    };
    std::vector<std::jthread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
}

/** Set-up state the timed passes use. */
struct Setup
{
    Oracle oracle;
    /** misspec-storm: the persistent runner, Systems built and warm. */
    std::unique_ptr<ExperimentRunner> persistent;
    /** misspec-storm: baseline (Hardware) energy per cell. */
    std::vector<double> baselineEnergy;
    /** misspec-storm: submission order, longest cell (by simulated
     *  instructions) first. Its cells differ in length by two orders
     *  of magnitude; in plan order a long cell that starts last sets
     *  the pass time, which then swings with scheduling noise. */
    std::vector<size_t> order;
};

Setup
setUp(const Plan &plan, unsigned workers, const std::string &store_dir)
{
    Setup s;
    s.oracle = buildOracle(plan);
    if (plan.kind == Kind::RunGrid) {
        std::filesystem::remove_all(store_dir);
        ExperimentRunner publisher(workers);
        publisher.enableArtifactStore(store_dir, kStoreBudget);
        buildAll(publisher, plan, workers);
    }
    if (plan.kind == Kind::MisspecStorm) {
        Plan base = plan;
        for (ExperimentCell &c : base.cells) {
            c.config = SystemConfig::baseline();
            c.policy = MisspecPolicy::Hardware;
        }
        ExperimentRunner ref(workers);
        Pass p;
        runCells(ref, base, p);
        for (size_t i = 0; i < p.results.size(); ++i)
            s.baselineEnergy.push_back(p.failed[i] ? 0.0
                                                   : p.results[i].totalEnergy);
        s.persistent = std::make_unique<ExperimentRunner>(workers);
        buildAll(*s.persistent, plan, workers);
        Pass warm;
        runCells(*s.persistent, plan, warm);
        for (size_t i = 0; i < plan.cells.size(); ++i)
            s.order.push_back(i);
        std::stable_sort(s.order.begin(), s.order.end(),
                         [&warm](size_t a, size_t b) {
                             return warm.results[a].counters.instructions >
                                    warm.results[b].counters.instructions;
                         });
    }
    return s;
}

/** One untraced pass on @p threads workers, as the workload defines
 *  it: cold-suite and run-grid start from a fresh runner (run-grid
 *  restoring every System from disk), misspec-storm reuses the
 *  persistent runner. Only runner.run() is timed. @p snapshots
 *  (optional) receives, per System, encodeSnapshot() of what the
 *  runner built (key ""). */
Pass
untracedPass(const Plan &plan, Setup &setup, unsigned threads,
             const std::string &store_dir,
             std::vector<std::vector<uint8_t>> *snapshots = nullptr)
{
    ExperimentRunner *runner = setup.persistent.get();
    std::unique_ptr<ExperimentRunner> fresh;
    if (!runner || runner->threadCount() != threads) {
        fresh = std::make_unique<ExperimentRunner>(threads);
        runner = fresh.get();
        if (plan.kind == Kind::RunGrid)
            fresh->enableArtifactStore(store_dir, kStoreBudget);
        // misspec-storm on another thread count: a copy of the
        // persistent runner with its Systems built, memos cold.
        if (plan.kind == Kind::MisspecStorm)
            buildAll(*fresh, plan, 1);
    }
    const ExperimentStats before = runner->stats();
    Pass p;
    const auto t0 = Clock::now();
    runCells(*runner, plan, p, fresh ? std::vector<size_t>{} : setup.order);
    p.wall = since(t0);
    p.stats = runner->stats();
    p.stats.cacheHits -= before.cacheHits;
    p.stats.inflightWaits -= before.inflightWaits;
    p.stats.systemsBuilt -= before.systemsBuilt;
    if (snapshots) {
        snapshots->assign(plan.systemCount, {});
        for (size_t i = 0; i < plan.cells.size(); ++i) {
            const ExperimentCell &c = plan.cells[i];
            runner->withSystem(*c.workload, c.config, c.profileSeed,
                               [&](System &sys) {
                                   (*snapshots)[plan.systemOf[i]] =
                                       artifact::encodeSnapshot(
                                           sys.makeSnapshot(""));
                               });
        }
    }
    return p;
}

// --------------------------------------------------------------- checks

/** Checks results against the oracle and the reference digests
 *  (the first pass's, once set); returns the failed-cell count. */
struct Checker
{
    const Plan &plan;
    const Oracle &oracle;
    std::vector<Hash128> digests; ///< Per cell; empty until first pass.
    std::vector<std::string> problems;

    uint64_t
    check(const std::vector<RunResult> &results,
          const std::vector<bool> &failed,
          const std::vector<std::string> &errors, const char *what)
    {
        const bool first = digests.empty();
        if (first)
            digests.resize(results.size());
        uint64_t bad = 0;
        for (size_t i = 0; i < results.size(); ++i) {
            const ExperimentCell &c = plan.cells[i];
            const Expected &e = oracle.at({c.workload, c.runSeed});
            std::string why;
            if (failed[i])
                why = "exception: " + errors[i];
            else if (!e.error.empty())
                why = "reference: " + e.error;
            else if (results[i].returnValue != e.ret ||
                     results[i].outputChecksum != e.checksum)
                why = strFormat(
                    "return %u checksum %016llx != interpreter %u "
                    "%016llx",
                    results[i].returnValue,
                    static_cast<unsigned long long>(
                        results[i].outputChecksum),
                    e.ret, static_cast<unsigned long long>(e.checksum));
            else if (first)
                digests[i] = cellDigest(results[i]);
            else if (cellDigest(results[i]) != digests[i])
                why = "simulated counters differ from the first pass";
            if (why.empty())
                continue;
            ++bad;
            if (problems.size() < 20)
                problems.push_back(strFormat(
                    "%s cell %zu (%s pseed %llu rseed %llu %s): %s",
                    what, i, c.workload->name.c_str(),
                    static_cast<unsigned long long>(c.profileSeed),
                    static_cast<unsigned long long>(c.runSeed),
                    misspecPolicyName(c.policy), why.c_str()));
        }
        return bad;
    }

    std::string
    workloadDigest() const
    {
        Hash128Builder h;
        for (const Hash128 &d : digests) {
            h.updateU64(d.hi);
            h.updateU64(d.lo);
        }
        return h.digest().hex();
    }
};

double
energyRatio(const Plan &plan, const Setup &setup,
            const std::vector<RunResult> &res)
{
    std::vector<double> ratios;
    if (plan.kind == Kind::MisspecStorm) {
        for (size_t i = 0; i < res.size(); ++i)
            if (setup.baselineEnergy[i] > 0)
                ratios.push_back(res[i].totalEnergy /
                                 setup.baselineEnergy[i]);
    } else {
        for (auto [num, den] : plan.energyPairs)
            if (res[den].totalEnergy > 0)
                ratios.push_back(res[num].totalEnergy /
                                 res[den].totalEnergy);
    }
    double sum = 0;
    for (double r : ratios)
        sum += r;
    return ratios.empty() ? 0.0 : sum / static_cast<double>(ratios.size());
}

// ---------------------------------------------------------------- output

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
joined(const std::vector<double> &xs)
{
    std::string out;
    for (double x : xs)
        out += " " + num(x);
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" ", colon + 1));
        }
    return "unknown";
}

/**
 * Starts a peak-RSS window: returns free heap to the OS (so memory an
 * earlier pass freed does not count against this one) and resets the
 * kernel's high-water mark. Where the mark cannot be reset, the
 * window reads as the process peak so far.
 */
void
startRssWindow()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since startRssWindow(), in MiB. */
double
passPeakRssMb()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux.
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    bool smoke = false;
    std::string workDir = ".bench_build";
    std::string traceOut;
    std::string gitSha = "unknown";
    std::string envCleared = "-";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "bitspec_bench: %s\nusage: bitspec_bench --workload "
                 "cold-suite|run-grid|misspec-storm --seed N --seconds "
                 "S --trace 0|1 [--smoke] [--work-dir DIR] [--trace-out "
                 "FILE] [--git-sha SHA] [--env-cleared NAMES]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                usage("bad --seed " + v);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0 && a.seconds <= 600))
                usage("bad --seconds " + v);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace " + v);
            a.trace = v == "1";
        } else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else if (k == "--git-sha")
            a.gitSha = v;
        else if (k == "--env-cleared")
            a.envCleared = v;
        else
            usage("unknown argument " + k);
    }
    return a;
}

Kind
parseKind(const std::string &w)
{
    if (w == "cold-suite")
        return Kind::ColdSuite;
    if (w == "run-grid")
        return Kind::RunGrid;
    if (w == "misspec-storm")
        return Kind::MisspecStorm;
    usage("unknown --workload '" + w + "'");
}

void
printMetric(const Metric &m)
{
    std::printf("metric %-28s %14s %s\n", m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str());
}

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Kind kind = parseKind(args.workload);

    // Every BITSPEC_* knob changes what is measured (tracing, ledger,
    // engine, artifact tier, worker count): refuse to run under any.
    std::vector<std::string> inherited;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "BITSPEC_", 8) == 0)
            inherited.emplace_back(*e, std::strcspn(*e, "="));
    if (!inherited.empty()) {
        std::string names;
        for (const std::string &n : inherited)
            names += " " + n;
        std::fprintf(stderr,
                     "bitspec_bench: refusing to run with inherited "
                     "BITSPEC_* variables:%s (run.py clears them)\n",
                     names.c_str());
        return 2;
    }

    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = std::min(4u, nproc);
#ifdef NDEBUG
    const int ndebug = 1;
#else
    const int ndebug = 0;
#endif
    std::printf("# stamp cpu=\"%s\" nproc=%u workers=%u build_type=%s "
                "cxx_flags=\"%s\" NDEBUG=%d git_sha=%s env_cleared=%s\n",
                cpuModel().c_str(), nproc, workers, PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS, ndebug, args.gitSha.c_str(),
                args.envCleared.c_str());

    const Plan plan = makePlan(kind, args.seed, args.smoke);
    std::printf("# workload %s seed %llu: %zu cells over %zu Systems%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                plan.cells.size(), plan.systemCount,
                args.smoke ? " (smoke)" : "");
    std::fflush(stdout);

    const std::string store_dir =
        (std::filesystem::path(args.workDir) /
         strFormat("store-%d", static_cast<int>(getpid())))
            .string();

    // Set-up, repeated (at least 3 times and 2 s, at most 25 times)
    // so that its median, setup_s, is steady even when one set-up is
    // short. Tracing and smoke runs set up once.
    const bool once = args.smoke || args.trace;
    std::vector<double> setup_times;
    double setup_total = 0;
    Setup setup;
    do {
        setup = Setup{}; // Drop the previous set-up's runners first.
        const auto t0 = Clock::now();
        setup = setUp(plan, workers, store_dir);
        setup_times.push_back(since(t0));
        setup_total += setup_times.back();
    } while (!once && setup_times.size() < 25 &&
             (setup_times.size() < 3 || setup_total < 2.0));

    Checker checker{plan, setup.oracle, {}, {}};
    uint64_t attempted = 0, failed = 0;
    bool consistent = true;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    double energy_ratio = 0;

    auto gridCheck = [&](const Pass &p) {
        // Every System of a run-grid pass must come from disk.
        if (kind == Kind::RunGrid &&
            (p.stats.systemsBuilt != p.stats.diskHits ||
             p.stats.diskInvalid != 0)) {
            consistent = false;
            checker.problems.push_back(strFormat(
                "run-grid pass built %llu Systems but restored %llu "
                "(%llu invalid)",
                static_cast<unsigned long long>(p.stats.systemsBuilt),
                static_cast<unsigned long long>(p.stats.diskHits),
                static_cast<unsigned long long>(p.stats.diskInvalid)));
        }
    };
    auto account = [&](const Pass &p, const char *what) {
        attempted += plan.cells.size();
        failed += checker.check(p.results, p.failed, p.errors, what);
        gridCheck(p);
    };

    const double budget = args.smoke ? 0 : args.seconds;
    const auto m0 = Clock::now();
    if (!args.trace) {
        std::vector<double> rates, rss;
        uint64_t sim_instrs = 0;
        do {
            startRssWindow();
            Pass p = untracedPass(plan, setup, workers, store_dir);
            rss.push_back(passPeakRssMb());
            account(p, "pass");
            if (rates.empty()) {
                energy_ratio = energyRatio(plan, setup, p.results);
                for (const RunResult &r : p.results)
                    sim_instrs += r.counters.instructions;
            }
            rates.push_back(static_cast<double>(plan.cells.size()) /
                            p.wall);
        } while (since(m0) < budget);
        const double fail_share =
            static_cast<double>(failed) / static_cast<double>(attempted);
        metrics = {
            {"cells_per_s", median(rates), "1/s"},
            {"setup_s", median(setup_times), "s"},
            {"peak_rss_mb", median(rss), "MB"},
            {"ok_share", 1.0 - fail_share, "ratio"},
            {"sim_energy_ratio", energy_ratio, "ratio"},
        };
        notes.push_back(strFormat(
            "fail_share %s (%llu failed of %llu attempted cells over "
            "%zu passes)",
            num(fail_share).c_str(),
            static_cast<unsigned long long>(failed),
            static_cast<unsigned long long>(attempted), rates.size()));
        notes.push_back(strFormat(
            "cells_per_s base: %zu cells, %llu simulated instrs per pass",
            plan.cells.size(), static_cast<unsigned long long>(sim_instrs)));
        notes.push_back("cells_per_s per pass:" + joined(rates));
        notes.push_back("setup_s per set-up:" + joined(setup_times));
        notes.push_back("peak_rss_mb per pass:" + joined(rss));
    } else {
        std::vector<double> wall4, wall1, wall_traced;
        ExperimentStats stats4;
        TracedRun traced;
        do {
            Pass p4 = untracedPass(plan, setup, workers, store_dir);
            account(p4, "pass");
            wall4.push_back(p4.wall);
            stats4 = p4.stats;

            std::vector<std::vector<uint8_t>> ctor_snapshots;
            Pass p1 = untracedPass(
                plan, setup, 1, store_dir,
                kind == Kind::ColdSuite ? &ctor_snapshots : nullptr);
            account(p1, "single-thread pass");
            wall1.push_back(p1.wall);

            traced = runTraced(plan, store_dir);
            account(Pass{traced.wallSeconds, traced.results,
                         traced.failed, traced.errors, {}},
                    "traced pass");
            wall_traced.push_back(traced.wallSeconds);

            // The staged decomposition must link exactly what the
            // System constructor links.
            for (size_t s = 0; s < traced.stagedSnapshots.size(); ++s)
                if (traced.stagedSnapshots[s] != ctor_snapshots[s]) {
                    consistent = false;
                    checker.problems.push_back(strFormat(
                        "staged build of System %zu differs from the "
                        "System constructor's",
                        s));
                }
        } while (since(m0) < budget);

        const double traced_s = median(wall_traced);
        const double single_s = median(wall1);
        const double pass4_s = median(wall4);
        metrics = traced.layers;
        metrics.push_back({"runner.efficiency",
                           traced_s / (pass4_s * workers), "ratio"});
        metrics.push_back({"runner.inflight_waits",
                           static_cast<double>(stats4.inflightWaits),
                           "count"});
        metrics.push_back({"runner.cache_hits",
                           static_cast<double>(stats4.cacheHits),
                           "count"});
        metrics.push_back({"trace.overhead_pct",
                           (traced_s - single_s) / single_s * 100.0,
                           "%"});
        notes = traced.notes;
        notes.push_back(strFormat(
            "passes: %zu x (%u-worker %.3f s, single-thread %.3f s, "
            "traced %.3f s) medians",
            wall4.size(), workers, pass4_s, single_s, traced_s));
        std::printf("# self times of the traced pass (ms):\n");
        std::printf("#   %-18s %8s %12s %12s\n", "span", "count",
                    "total", "self");
        for (const SpanLog::Total &t : traced.log.totals())
            std::printf("#   %-18s %8llu %12.3f %12.3f\n",
                        t.name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.seconds * 1e3, t.selfSeconds * 1e3);
        if (!args.traceOut.empty() &&
            !traced.log.writeChromeJson(args.traceOut))
            std::fprintf(stderr, "bitspec_bench: cannot write %s\n",
                         args.traceOut.c_str());
    }
    std::filesystem::remove_all(store_dir);

    for (const std::string &p : checker.problems)
        std::fprintf(stderr, "bitspec_bench: FAIL %s\n", p.c_str());
    std::printf("# digest %s seed %llu: %s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                checker.workloadDigest().c_str());
    for (const std::string &n : notes)
        std::printf("# %s\n", n.c_str());
    for (const Metric &m : metrics)
        printMetric(m);

    const bool correct = failed == 0 && consistent;
    std::string json = strFormat(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        json += strFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                          i ? ", " : "", metrics[i].name.c_str(),
                          num(metrics[i].value).c_str(),
                          metrics[i].unit.c_str());
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bitspec_bench: %s\n", e.what());
        return 1;
    }
}
