/**
 * @file
 * Fig. 16 (RQ6 deep dive): susan-edges cross-product over synthetic
 * images — compile with image i as the profile input, run on image j,
 * report dynamic instructions relative to the self-profiled binary,
 * as a cumulative distribution per heuristic. Paper: MAX is robust,
 * AVG and MIN are input-sensitive.
 *
 * The grid is one experiment matrix per heuristic: the runner's
 * System cache compiles each profile image once and reuses it for all
 * run images (kImages builds serving kImages^2 cells). Grid size
 * defaults to 6 (paper: 50); set BITSPEC_FIG16_IMAGES to widen.
 */

#include <algorithm>

#include "../bench/common.h"
#include "support/env.h"

using namespace bitspec;
using namespace bitspec::bench;

namespace
{

unsigned
gridSize()
{
    // Paper uses 50; scaled down by default.
    return env::getUnsigned("BITSPEC_FIG16_IMAGES", 6, 2, 50);
}

} // namespace

int
main()
{
    const unsigned kImages = gridSize();
    printHeader("Figure 16: susan-edges profile/run image "
                "cross-product CDF",
                strFormat("%ux%u image pairs; value = dyn. "
                          "instructions of cross-profiled binary / "
                          "self-profiled binary.",
                          kImages, kImages));

    const Workload &w = getWorkload("susan-edges");

    for (Heuristic h :
         {Heuristic::Max, Heuristic::Avg, Heuristic::Min}) {
        const SystemConfig cfg = SystemConfig::bitspec(h);

        // The full profile x run cross product, one matrix; its
        // diagonal (profile j, run j) is the self-profiled reference.
        std::vector<ExperimentCell> cells;
        for (unsigned i = 0; i < kImages; ++i)
            for (unsigned j = 0; j < kImages; ++j)
                cells.push_back(cell(w, cfg, 100 + i, 100 + j));
        std::vector<RunResult> res = runMatrix(cells);
        auto insts = [&](unsigned i, unsigned j) {
            return static_cast<double>(
                res[i * kImages + j].counters.instructions);
        };

        std::vector<double> ratios;
        for (unsigned i = 0; i < kImages; ++i)
            for (unsigned j = 0; j < kImages; ++j)
                ratios.push_back(insts(i, j) / insts(j, j));
        std::sort(ratios.begin(), ratios.end());
        std::printf("%s CDF:  p10=%.4f  p50=%.4f  p90=%.4f  "
                    "p100=%.4f\n",
                    heuristicName(h), percentile(ratios, 10),
                    percentile(ratios, 50), percentile(ratios, 90),
                    percentile(ratios, 100));
    }
    std::printf("\npaper: MAX stabilises at a shared worst case; AVG "
                "and MIN spread wider.\n");
    return 0;
}
