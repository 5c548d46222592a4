#include "obs/trajectory.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/json.h"
#include "support/str.h"

namespace bitspec
{

std::optional<double>
TrajectoryRecord::value(const std::string &name) const
{
    for (const TrajectorySeries &s : series)
        if (s.name == name)
            return s.value;
    return std::nullopt;
}

bool
isGatedSeries(const std::string &name)
{
    return name.rfind("rate.", 0) == 0 ||
           name.rfind("speedup.", 0) == 0;
}

std::string
toJsonLine(const TrajectoryRecord &rec)
{
    std::vector<TrajectorySeries> sorted = rec.series;
    std::sort(sorted.begin(), sorted.end(),
              [](const TrajectorySeries &a, const TrajectorySeries &b) {
                  return a.name < b.name;
              });
    json::Writer w;
    w.open('{').key("schema_version").raw(
        std::to_string(rec.schemaVersion));
    w.key("git_sha").str(rec.gitSha).key("build_type").str(rec.buildType);
    w.key("timestamp").str(rec.timestamp);
    w.key("debug_build").raw(rec.debugBuild ? "true" : "false");
    w.key("series").open('{');
    for (const TrajectorySeries &s : sorted)
        w.key(s.name).num(s.value);
    return w.close('}').close('}').text();
}

std::optional<TrajectoryRecord>
parseJsonLine(const std::string &line)
{
    // One balanced object per line: a torn tail cut before a later
    // series must not load as a record with fewer series.
    if (!json::isWholeObject(line))
        return std::nullopt;
    auto schema = json::numberAfter(line, "schema_version");
    if (!schema || static_cast<int>(*schema) < 1 ||
        static_cast<int>(*schema) > kTrajectorySchemaVersion)
        return std::nullopt;
    auto series = json::numberMembers(line, "series");
    if (!series)
        return std::nullopt; // Missing or corrupt: drop the record.

    TrajectoryRecord rec;
    rec.schemaVersion = static_cast<int>(*schema);
    rec.gitSha = json::stringAfter(line, "git_sha").value_or("unknown");
    rec.buildType = json::stringAfter(line, "build_type").value_or("");
    rec.timestamp = json::stringAfter(line, "timestamp").value_or("");
    size_t dbg = line.find("\"debug_build\":");
    rec.debugBuild =
        dbg != std::string::npos &&
        line.compare(dbg + std::strlen("\"debug_build\":"), 4,
                     "true") == 0;
    for (auto &[name, value] : *series)
        rec.series.push_back({std::move(name), value});
    return rec;
}

std::vector<TrajectoryRecord>
loadHistory(const std::string &path)
{
    std::vector<TrajectoryRecord> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::string line;
    while (std::getline(in, line))
        if (auto rec = parseJsonLine(line))
            out.push_back(std::move(*rec));
    return out;
}

bool
appendHistory(const std::string &path, const TrajectoryRecord &rec)
{
    std::error_code ec;
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream of(path, std::ios::app);
    if (!of)
        return false;
    of << toJsonLine(rec) << "\n";
    return static_cast<bool>(of);
}

TrajectoryRecord
recordFromBenchJson(const std::string &json_text)
{
    TrajectoryRecord rec;
    // The flavour of the code that produced the numbers is this
    // build's own: the JSON's library_build_type describes the system
    // libbenchmark, not us.
    rec.buildType = BITSPEC_BUILD_TYPE;
#ifdef NDEBUG
    rec.debugBuild = false;
#else
    rec.debugBuild = true;
#endif

    auto add = [&rec](const std::string &name,
                      std::optional<double> v) {
        if (v && *v > 0)
            rec.series.push_back({name, *v});
    };

    // google-benchmark counters: value follows the benchmark's
    // "name" entry.
    auto bench_counter = [&json_text](const std::string &bench,
                                      const std::string &counter)
        -> std::optional<double> {
        size_t at = json_text.find("\"name\": \"" + bench + "\"");
        if (at == std::string::npos)
            at = json_text.find("\"name\":\"" + bench + "\"");
        if (at == std::string::npos)
            return std::nullopt;
        return json::numberAfter(json_text, counter, at);
    };

    add("rate.interp_decoded_ir_per_s",
        bench_counter("BM_InterpreterThroughput/decoded",
                      "ir_instrs_per_s"));
    add("rate.interp_legacy_ir_per_s",
        bench_counter("BM_InterpreterThroughput/legacy",
                      "ir_instrs_per_s"));
    add("rate.interp_profiled_ir_per_s",
        bench_counter("BM_InterpreterProfiledThroughput/decoded",
                      "ir_instrs_per_s"));
    // Core engine A/B. The bare BM_CoreThroughput name is the pre-A/B
    // spelling of the legacy series; accept both so older BENCH_micro
    // files keep producing the gated legacy rate.
    auto core_legacy = bench_counter("BM_CoreThroughput/legacy",
                                     "machine_instrs_per_s");
    if (!core_legacy)
        core_legacy =
            bench_counter("BM_CoreThroughput", "machine_instrs_per_s");
    auto core_fast = bench_counter("BM_CoreThroughput/fast",
                                   "machine_instrs_per_s");
    add("rate.core_machine_per_s", core_legacy);
    add("rate.core_fast_machine_per_s", core_fast);
    if (core_legacy && core_fast && *core_legacy > 0 && *core_fast > 0)
        rec.series.push_back({"speedup.core_fast_vs_legacy",
                              *core_fast / *core_legacy});

    // experiment_smoke's observability section.
    size_t obs = json_text.find("\"observability\":");
    if (obs != std::string::npos) {
        add("rate.obs_disabled_ir_per_s",
            json::numberAfter(json_text, "disabled_rate", obs));
        add("rate.obs_prof_off_ir_per_s",
            json::numberAfter(json_text, "prof_off_rate", obs));
        auto overhead =
            json::numberAfter(json_text, "enabled_overhead_pct", obs);
        if (overhead)
            rec.series.push_back(
                {"obs.trace_overhead_pct", *overhead});
    }

    // experiment_smoke's artifact-store cold/warm A/B. The speedup is
    // gated (speedup. prefix): serving a compiled System from the
    // artifact store must stay far cheaper than recompiling.
    size_t art = json_text.find("\"artifact_store\":");
    if (art != std::string::npos) {
        add("time.compile_cold",
            json::numberAfter(json_text, "compile_cold_sec", art));
        add("time.compile_warm",
            json::numberAfter(json_text, "compile_warm_sec", art));
        add("speedup.artifact_warm_vs_cold",
            json::numberAfter(json_text, "speedup_warm_vs_cold", art));
    }

    // experiment_engine grid speedups.
    size_t eng = json_text.find("\"experiment_engine\":");
    if (eng != std::string::npos) {
        size_t at = eng;
        while ((at = json_text.find("\"name\": \"", at)) !=
               std::string::npos) {
            size_t open = at + std::strlen("\"name\": \"");
            size_t close = json_text.find('"', open);
            if (close == std::string::npos)
                break;
            std::string grid = json_text.substr(open, close - open);
            add("speedup." + grid,
                json::numberAfter(json_text, "speedup", close));
            at = close;
        }
    }
    return rec;
}

GateResult
checkAgainstHistory(const TrajectoryRecord &current,
                    const std::vector<TrajectoryRecord> &history,
                    const GateOptions &opts)
{
    // Rolling baseline: the last `window` records with the same debug
    // flag. Mismatched builds never form each other's baseline.
    std::vector<const TrajectoryRecord *> comparable;
    for (auto it = history.rbegin();
         it != history.rend() && comparable.size() < opts.window; ++it)
        if (it->debugBuild == current.debugBuild)
            comparable.push_back(&*it);

    GateResult result;
    result.baselineRuns = comparable.size();
    for (const TrajectorySeries &s : current.series) {
        SeriesVerdict v;
        v.name = s.name;
        v.current = s.value;
        v.gated = isGatedSeries(s.name);
        for (const TrajectoryRecord *rec : comparable)
            if (auto past = rec->value(s.name))
                v.baseline = std::max(v.baseline, *past);
        if (v.baseline > 0)
            v.deltaPct =
                100.0 * (v.current - v.baseline) / v.baseline;
        if (v.gated && v.baseline > 0) {
            auto it = opts.perSeriesDropPct.find(s.name);
            const double threshold = it != opts.perSeriesDropPct.end()
                                         ? it->second
                                         : opts.defaultDropPct;
            v.pass = v.deltaPct >= -threshold;
        }
        result.pass = result.pass && v.pass;
        result.verdicts.push_back(std::move(v));
    }
    return result;
}

std::string
formatGateResult(const GateResult &result)
{
    std::string out = strFormat("%-34s %14s %14s %9s  %s\n", "series",
                                "current", "baseline", "delta%",
                                "verdict");
    for (const SeriesVerdict &v : result.verdicts) {
        const char *verdict =
            !v.gated            ? "info"
            : v.baseline <= 0   ? "no-baseline"
            : v.pass            ? "pass"
                                : "FAIL";
        out += strFormat("%-34s %14.6g %14.6g %+8.2f%%  %s\n",
                         v.name.c_str(), v.current, v.baseline,
                         v.deltaPct, verdict);
    }
    if (result.baselineRuns == 0)
        out += strFormat(
            "no baseline, recording only; gate %s\n",
            result.pass ? "PASS" : "FAIL");
    else
        out += strFormat("baseline runs considered: %zu; gate %s\n",
                         result.baselineRuns,
                         result.pass ? "PASS" : "FAIL");
    return out;
}

} // namespace bitspec
