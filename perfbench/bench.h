/**
 * @file
 * Shared types of the BitSpec benchmark program (README.md in this
 * directory explains the workloads and metrics).
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"

namespace perfbench
{

enum class Kind
{
    ColdSuite,
    RunGrid,
    MisspecStorm,
};

/** One workload instantiated for one --seed: the cells every pass
 *  runs, in submission order. */
struct Plan
{
    Kind kind = Kind::ColdSuite;
    std::vector<bitspec::ExperimentCell> cells;
    /** Cell -> index of its compiled System; cells with equal System
     *  keys share an index. Systems are numbered in first-use order. */
    std::vector<size_t> systemOf;
    size_t systemCount = 0;
    /** (bitspec-MAX cell, baseline cell) pairs behind
     *  sim_energy_ratio; empty on misspec-storm, whose denominators
     *  are baseline runs made in setup. */
    std::vector<std::pair<size_t, size_t>> energyPairs;
};

/** Size budget of the run-grid artifact store: never evicts. */
constexpr uint64_t kStoreBudget = uint64_t{1} << 40;

/** One named metric as printed: value and unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
