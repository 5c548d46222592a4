/**
 * @file
 * The config-independent front half of a System build: source ->
 * training input -> expander -> one value-profiled training run.
 *
 * The paper's profiler (§3.2.2) gathers one per-variable RequiredBits
 * profile per program and training input; the MIN/AVG/MAX heuristics
 * are three statistics of it. So every System that shares (source,
 * training input, expander options) shares this front half, and only
 * the squeezer and the backend run per configuration. A
 * TrainedProgram is immutable once built and is shared through
 * std::shared_ptr<const TrainedProgram>; each System deep-clones the
 * module (ir/clone.h) before squeezing it.
 */

#ifndef BITSPEC_CORE_TRAINED_PROGRAM_H_
#define BITSPEC_CORE_TRAINED_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "profile/bitwidth_profile.h"
#include "transform/expander.h"

namespace bitspec
{

class TrainedProgram
{
  public:
    /**
     * Compile @p source, apply @p train_input to the module's
     * globals, expand under @p expander and run "main" with
     * @p train_args once under the value profiler. The training
     * interpreter is dropped before this returns. @p workload only
     * labels trace spans: `system.train` here and `system.build` in
     * every System built from the result.
     *
     * Under BITSPEC_VERIFY_EACH the frontend and expander
     * checkpoints run here, and the training run checks every value
     * against its static known-bits bound.
     */
    static std::shared_ptr<const TrainedProgram>
    build(const std::string &source, const ExpanderOptions &expander,
          const std::function<void(Module &)> &train_input = {},
          const std::vector<uint64_t> &train_args = {},
          const std::string &workload = "");

    /** The post-expander module. Its globals hold the post-input
     *  images; its addresses and dense ids are the training run's. */
    const Module &module() const { return *module_; }
    const BitwidthProfile &profile() const { return profile_; }
    const ExpanderOptions &expanderOptions() const { return expander_; }
    const ExpandStats &expandStats() const { return expandStats_; }
    /** Dynamic IR instructions of the training run. */
    uint64_t irSteps() const { return irSteps_; }
    /** Trace label given to build(); may be empty. */
    const std::string &workload() const { return workload_; }

  private:
    TrainedProgram() = default;

    std::unique_ptr<Module> module_;
    BitwidthProfile profile_;
    ExpanderOptions expander_;
    ExpandStats expandStats_;
    uint64_t irSteps_ = 0;
    std::string workload_;
};

} // namespace bitspec

#endif // BITSPEC_CORE_TRAINED_PROGRAM_H_
