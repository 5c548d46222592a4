#include "obs/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "obs/json.h"
#include "support/env.h"
#include "support/log.h"

extern char **environ;

namespace bitspec
{

namespace
{

/** Provenance strings, then seeds, in serialization order (the
 *  checksum follows the seeds); writer and parser both walk these. */
constexpr Field<LedgerRecord, std::string> kProvenance[] = {
    {&LedgerRecord::kind, "kind"},
    {&LedgerRecord::flavour, "flavour"},
    {&LedgerRecord::bench, "bench"},
    {&LedgerRecord::workload, "workload"},
    {&LedgerRecord::cellKey, "cell_key"},
    {&LedgerRecord::systemKey, "system_key"},
    {&LedgerRecord::artifactKey, "artifact_key"},
    {&LedgerRecord::cacheSource, "cache_source"},
    {&LedgerRecord::engine, "engine"},
    {&LedgerRecord::policy, "policy"},
};
constexpr Field<LedgerRecord, uint64_t> kSeeds[] = {
    {&LedgerRecord::profileSeed, "profile_seed"},
    {&LedgerRecord::runSeed, "run_seed"},
    {&LedgerRecord::policySeed, "policy_seed"},
};

} // namespace

std::optional<double>
LedgerRecord::field(const std::string &name) const
{
    for (const LedgerField &f : fields)
        if (f.name == name)
            return f.value;
    return std::nullopt;
}

void
LedgerRecord::setField(const std::string &name, double value)
{
    for (LedgerField &f : fields)
        if (f.name == name) {
            f.value = value;
            return;
        }
    fields.push_back({name, value});
}

void
fillRunTelemetry(LedgerRecord &rec, const RunTelemetry &hw,
                 const EnergyBreakdown &energy, double total_pj,
                 double epi_pj, double mean_v, uint32_t return_value,
                 uint64_t output_checksum, double wall_sec)
{
    forEachTelemetrySection(
        [&rec](const char *prefix, const auto &section) {
            rec.setFields(prefix, section);
        },
        hw);
    rec.setField("energy.alu_pj", energy.alu);
    rec.setField("energy.regfile_pj", energy.regfile);
    rec.setField("energy.dcache_pj", energy.dcache);
    rec.setField("energy.icache_pj", energy.icache);
    rec.setField("energy.pipeline_pj", energy.pipeline);
    rec.setField("energy.model_pj", energy.total());
    rec.setField("energy.total_pj", total_pj);
    rec.setField("energy.epi_pj", epi_pj);
    rec.setField("energy.mean_v", mean_v);

    rec.setField("run.return", return_value);
    rec.setField("run.wall_sec", wall_sec);

    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(output_checksum));
    rec.outputChecksum = hex;
}

std::vector<std::pair<std::string, std::string>>
captureBitspecEnv()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (char **e = environ; e && *e; ++e) {
        const char *entry = *e;
        if (std::strncmp(entry, "BITSPEC_", 8) != 0)
            continue;
        const char *eq = std::strchr(entry, '=');
        if (!eq)
            continue;
        out.emplace_back(std::string(entry, eq - entry),
                         std::string(eq + 1));
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
toJsonLine(const LedgerRecord &rec)
{
    std::vector<std::pair<std::string, std::string>> env = rec.env;
    std::sort(env.begin(), env.end());
    std::vector<LedgerField> fields = rec.fields;
    std::sort(fields.begin(), fields.end(),
              [](const LedgerField &a, const LedgerField &b) {
                  return a.name < b.name;
              });

    json::Writer w;
    w.open('{').key("schema_version").raw(
        std::to_string(rec.schemaVersion));
    for (const auto &f : kProvenance)
        w.key(f.name).str(rec.*f.member);
    for (const auto &f : kSeeds)
        w.key(f.name).u64(rec.*f.member);
    w.key("output_checksum").str(rec.outputChecksum);
    w.key("env").open('{');
    for (const auto &[name, value] : env)
        w.key(name).str(value);
    w.close('}').key("fields").open('{');
    for (const LedgerField &f : fields)
        w.key(f.name).num(f.value);
    auto id = [](int v) { return static_cast<uint64_t>(std::max(v, 0)); };
    w.close('}').key("regions").open('[');
    for (const LedgerRegionRow &r : rec.regions) {
        w.open('{').key("function").str(r.function);
        w.key("region").u64(id(r.regionId)).key("line").u64(id(r.srcLine));
        w.key("entries").u64(r.entries).key("misspecs").u64(r.misspecs);
        w.key("spec_insts").u64(r.specInsts);
        w.key("handler_insts").u64(r.handlerInsts);
        w.key("handler_cycles").u64(r.handlerCycles).close('}');
    }
    w.close(']').key("heat").open('[');
    for (const LedgerHeatRow &h : rec.heat) {
        w.open('{').key("function").str(h.function);
        w.key("block").str(h.block);
        w.key("region").u64(id(h.regionId)).key("line").u64(id(h.srcLine));
        w.key("entries").u64(h.entries).key("insts").u64(h.insts);
        w.key("cycles").u64(h.cycles).key("misspecs").u64(h.misspecs);
        w.close('}');
    }
    w.close(']').close('}');
    return w.text();
}

std::optional<LedgerRecord>
parseLedgerLine(const std::string &line)
{
    // A whole record is one balanced object; a torn tail never is,
    // even when an inner object (env, fields) already closed.
    if (!json::isWholeObject(line))
        return std::nullopt;
    auto schema = json::numberAfter(line, "schema_version");
    if (!schema || static_cast<int>(*schema) < 1 ||
        static_cast<int>(*schema) > kLedgerSchemaVersion)
        return std::nullopt;
    auto fields = json::numberMembers(line, "fields");
    if (!fields)
        return std::nullopt; // Missing or corrupt: drop the record.

    auto str = [](const std::string &text, const char *key) {
        return json::stringAfter(text, key).value_or("");
    };
    auto u64 = [](const std::string &text, const char *key) {
        return json::u64After(text, key).value_or(0);
    };
    auto id = [&u64](const std::string &text, const char *key) {
        return static_cast<int>(u64(text, key));
    };
    LedgerRecord rec;
    rec.schemaVersion = static_cast<int>(*schema);
    for (const auto &f : kProvenance)
        rec.*f.member =
            json::stringAfter(line, f.name).value_or(rec.*f.member);
    for (const auto &f : kSeeds)
        rec.*f.member = u64(line, f.name);
    rec.outputChecksum = str(line, "output_checksum");
    if (auto env = json::stringMembers(line, "env"))
        rec.env = std::move(*env);
    for (auto &[name, value] : *fields)
        rec.fields.push_back({std::move(name), value});
    for (const std::string &c : json::arrayObjects(line, "regions"))
        rec.regions.push_back({.function = str(c, "function"),
                               .regionId = id(c, "region"),
                               .srcLine = id(c, "line"),
                               .entries = u64(c, "entries"),
                               .misspecs = u64(c, "misspecs"),
                               .specInsts = u64(c, "spec_insts"),
                               .handlerInsts = u64(c, "handler_insts"),
                               .handlerCycles = u64(c, "handler_cycles")});
    for (const std::string &c : json::arrayObjects(line, "heat"))
        rec.heat.push_back({.function = str(c, "function"),
                            .block = str(c, "block"),
                            .regionId = id(c, "region"),
                            .srcLine = id(c, "line"),
                            .entries = u64(c, "entries"),
                            .insts = u64(c, "insts"),
                            .cycles = u64(c, "cycles"),
                            .misspecs = u64(c, "misspecs")});
    return rec;
}

std::vector<LedgerRecord>
loadLedger(const std::string &path)
{
    std::vector<LedgerRecord> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::string line;
    while (std::getline(in, line))
        if (auto rec = parseLedgerLine(line))
            out.push_back(std::move(*rec));
    return out;
}

std::string
validateLedgerRecord(const LedgerRecord &rec)
{
    if (rec.schemaVersion < 1 ||
        rec.schemaVersion > kLedgerSchemaVersion)
        return "unsupported schema_version " +
               std::to_string(rec.schemaVersion);
    if (rec.kind != "cell" && rec.kind != "matrix")
        return "unknown kind \"" + rec.kind + "\"";
    if (rec.flavour.empty())
        return "missing flavour";
    if (rec.bench.empty())
        return "missing bench";

    if (rec.kind == "matrix") {
        for (const char *name :
             {"matrix.cells", "wall.p50_sec", "wall.p95_sec",
              "wall.p99_sec"})
            if (!rec.field(name))
                return std::string("matrix record missing ") + name;
        return "";
    }

    // Cell records: full provenance...
    if (rec.workload.empty())
        return "missing workload";
    if (rec.cellKey.empty())
        return "missing cell_key";
    if (rec.systemKey.empty())
        return "missing system_key";
    if (rec.artifactKey.empty())
        return "missing artifact_key";
    if (rec.cacheSource != "compile" && rec.cacheSource != "memory" &&
        rec.cacheSource != "disk")
        return "cache_source must be compile|memory|disk, got \"" +
               rec.cacheSource + "\"";
    if (rec.engine.empty())
        return "missing engine";
    if (rec.policy.empty())
        return "missing policy";
    if (rec.outputChecksum.size() != 16)
        return "output_checksum must be 16 hex digits";

    // ...and the full telemetry surface.
    for (const char *name :
         {"counters.instructions", "counters.cycles",
          "counters.misspeculations", "cache.l1i.accesses",
          "cache.l1d.accesses", "cache.l2.accesses", "dram.reads",
          "dram.writes", "energy.alu_pj", "energy.regfile_pj",
          "energy.dcache_pj", "energy.icache_pj",
          "energy.pipeline_pj", "energy.model_pj", "energy.total_pj",
          "energy.epi_pj", "run.return", "run.wall_sec"})
        if (!rec.field(name))
            return std::string("cell record missing ") + name;

    // The breakdown must sum to the model total bit-exactly: the
    // serializer round-trips doubles via %.17g and this addition order
    // matches EnergyBreakdown::total().
    const double parts =
        *rec.field("energy.alu_pj") + *rec.field("energy.regfile_pj") +
        *rec.field("energy.dcache_pj") +
        *rec.field("energy.icache_pj") +
        *rec.field("energy.pipeline_pj");
    if (parts != *rec.field("energy.model_pj"))
        return "energy breakdown does not sum to energy.model_pj";

    // Detail rows must reconcile exactly with the aggregate counters:
    // BlockMap is a total partition, so the recorded whole-run heat
    // totals equal the ActivityCounters sums even though only the
    // top-K rows are kept.
    if (!rec.heat.empty()) {
        for (const char *name :
             {"heat.total_insts", "heat.total_cycles",
              "heat.total_misspecs"})
            if (!rec.field(name))
                return std::string("heat rows present but missing ") +
                       name;
        if (*rec.field("heat.total_insts") !=
            *rec.field("counters.instructions"))
            return "heat.total_insts != counters.instructions";
        if (*rec.field("heat.total_cycles") !=
            *rec.field("counters.cycles"))
            return "heat.total_cycles != counters.cycles";
        if (*rec.field("heat.total_misspecs") !=
            *rec.field("counters.misspeculations"))
            return "heat.total_misspecs != counters.misspeculations";
        uint64_t row_insts = 0;
        for (const LedgerHeatRow &h : rec.heat)
            row_insts += h.insts;
        if (static_cast<double>(row_insts) >
            *rec.field("heat.total_insts"))
            return "heat rows exceed heat.total_insts";
    }
    if (!rec.regions.empty()) {
        auto unattributed = rec.field("regions.unattributed_misspecs");
        if (!unattributed)
            return "region rows present but missing "
                   "regions.unattributed_misspecs";
        uint64_t attributed = 0;
        for (const LedgerRegionRow &r : rec.regions)
            attributed += r.misspecs;
        if (static_cast<double>(attributed) + *unattributed !=
            *rec.field("counters.misspeculations"))
            return "region misspecs do not reconcile with "
                   "counters.misspeculations";
    }
    return "";
}

LedgerWriter::LedgerWriter(const std::string &path) : path_(path)
{
    std::error_code ec;
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        log::warn("ledger: cannot open %s for append: %s",
                  path.c_str(), std::strerror(errno));
}

LedgerWriter::~LedgerWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

uint64_t
LedgerWriter::recordsWritten() const
{
    return written_.load(std::memory_order_relaxed);
}

bool
LedgerWriter::append(const LedgerRecord &rec)
{
    if (fd_ < 0)
        return false;
    // One write(2) per record: with O_APPEND the kernel positions and
    // writes atomically, so concurrent appenders (threads or whole
    // processes sharing the path) never interleave inside a line.
    std::string line = toJsonLine(rec);
    line += '\n';
    ssize_t n;
    do {
        n = ::write(fd_, line.data(), line.size());
    } while (n < 0 && errno == EINTR);
    if (n != static_cast<ssize_t>(line.size())) {
        log::warn("ledger: short write to %s: %s", path_.c_str(),
                  n < 0 ? std::strerror(errno) : "partial");
        return false;
    }
    written_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

namespace
{

std::mutex g_writer_mu;
std::unique_ptr<LedgerWriter> g_writer;
bool g_writer_init = false;
std::atomic<int> g_detail{-1}; ///< -1 = not yet read from env.

} // namespace

LedgerWriter *
LedgerWriter::global()
{
    std::lock_guard<std::mutex> lock(g_writer_mu);
    if (!g_writer_init) {
        g_writer_init = true;
        const std::string path = env::getString("BITSPEC_LEDGER");
        if (!path.empty()) {
            auto writer = std::make_unique<LedgerWriter>(path);
            if (writer->ok())
                g_writer = std::move(writer);
        }
    }
    return g_writer.get();
}

void
LedgerWriter::setGlobal(std::unique_ptr<LedgerWriter> writer)
{
    std::lock_guard<std::mutex> lock(g_writer_mu);
    g_writer_init = true;
    g_writer = std::move(writer);
}

bool
LedgerWriter::detailEnabled()
{
    int d = g_detail.load(std::memory_order_relaxed);
    if (d < 0) {
        d = env::getBool("BITSPEC_LEDGER_DETAIL", false) ? 1 : 0;
        g_detail.store(d, std::memory_order_relaxed);
    }
    return d == 1;
}

void
LedgerWriter::setDetail(bool on)
{
    g_detail.store(on ? 1 : 0, std::memory_order_relaxed);
}

} // namespace bitspec
