/**
 * @file
 * The single-threaded traced pass: calls each layer's public entry
 * points itself and records a span around every call, so per-layer
 * time is read from the benchmark's own spans. BITSPEC_TRACE stays
 * off (its counter tracks would push FastCore off memo replay).
 */

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench
{

/** In-memory span recorder: nested scopes on one thread. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string arg;
        double t0 = 0; ///< Seconds since the log was created.
        double t1 = 0;
        int parent = -1;
    };

    /** Times one layer call; ends when destroyed. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, std::string arg = {});
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        size_t idx_;
    };

    /** Per-name totals; self time excludes child spans. */
    struct Total
    {
        std::string name;
        uint64_t count = 0;
        double seconds = 0;
        double selfSeconds = 0;
    };

    const std::vector<Span> &spans() const { return spans_; }
    /** Sum of the durations of every span called @p name. */
    double seconds(const std::string &name) const;
    /** Durations of every span called @p name, in order. */
    std::vector<double> durations(const std::string &name) const;
    std::vector<Total> totals() const;
    /** Chrome trace-event JSON (loadable in Perfetto). */
    bool writeChromeJson(const std::string &path) const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    int current_ = -1;
};

/** Everything one traced pass produced. */
struct TracedRun
{
    SpanLog log;
    double wallSeconds = 0;  ///< The pass alone (no set-up builds).
    /** Per cell, plan order; `failed` cells hold a default result. */
    std::vector<bitspec::RunResult> results;
    std::vector<bool> failed;
    std::vector<std::string> errors;
    /** cold-suite only: encodeSnapshot() of each System the staged
     *  decomposition built (key ""), indexed by System. */
    std::vector<std::vector<uint8_t>> stagedSnapshots;
    /** Per-layer metrics measured by the pass (bitspec_bench.cc adds the
     *  runner.* and trace.* ones, which need untraced passes). */
    std::vector<Metric> layers;
    /** Lines explaining metrics (sample counts, bases, outliers). */
    std::vector<std::string> notes;
};

/**
 * Run every cell of @p plan once on this thread with spans around
 * each layer call. cold-suite compiles through the staged
 * decomposition; run-grid restores from the artifact store at
 * @p store_dir (published in set-up); misspec-storm builds its
 * Systems before the pass starts, as its persistent runner does.
 */
TracedRun runTraced(const Plan &plan, const std::string &store_dir);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H_
