/**
 * @file
 * One run's hardware telemetry as a view with one section list, so
 * the ledger writer and every equality oracle walk the same fields
 * (DESIGN.md "Telemetry field tables & JSON codec").
 */

#ifndef BITSPEC_UARCH_TELEMETRY_H_
#define BITSPEC_UARCH_TELEMETRY_H_

#include <string>

#include "uarch/cache.h"
#include "uarch/counters.h"

namespace bitspec
{

/** References to one run's hardware telemetry (RunResult::telemetry,
 *  or a Core's counters() plus its memory() levels). */
struct RunTelemetry
{
    const ActivityCounters &counters;
    const CacheStats &l1i;
    const CacheStats &l1d;
    const CacheStats &l2;
    const DramStats &dram;
};

/** Call @p fn(ledger prefix, section of each of @p runs...) for every
 *  section in a fixed order: "counters.", "cache.l1i.", "cache.l1d.",
 *  "cache.l2.", "dram.". */
template <typename Fn, typename... Runs>
void
forEachTelemetrySection(Fn &&fn, const Runs &...runs)
{
    fn("counters.", runs.counters...);
    fn("cache.l1i.", runs.l1i...);
    fn("cache.l1d.", runs.l1d...);
    fn("cache.l2.", runs.l2...);
    fn("dram.", runs.dram...);
}

/** Ledger name and both values of the first telemetry field where
 *  @p a and @p b differ ("counters.rf_read8 12 != 13"); "" when the
 *  two runs are identical. */
inline std::string
firstTelemetryDiff(const RunTelemetry &a, const RunTelemetry &b)
{
    std::string diff;
    forEachTelemetrySection(
        [&diff](const char *prefix, const auto &x, const auto &y) {
            if (diff.empty())
                diff = firstFieldDiff(x, y, prefix);
        },
        a, b);
    return diff;
}

} // namespace bitspec

#endif // BITSPEC_UARCH_TELEMETRY_H_
