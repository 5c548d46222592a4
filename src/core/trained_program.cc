#include "core/trained_program.h"

#include "analysis/pipeline.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "obs/trace.h"

namespace bitspec
{

std::shared_ptr<const TrainedProgram>
TrainedProgram::build(const std::string &source,
                      const ExpanderOptions &expander,
                      const std::function<void(Module &)> &train_input,
                      const std::vector<uint64_t> &train_args,
                      const std::string &workload)
{
    trace::Span span("system.train", "compile");
    if (!workload.empty())
        span.arg("workload", workload);
    std::shared_ptr<TrainedProgram> t(new TrainedProgram);
    t->workload_ = workload;
    t->expander_ = expander;
    t->module_ = compileSource(source);
    if (train_input)
        train_input(*t->module_);
    pipelineCheckpoint(*t->module_, "frontend:irgen");

    t->expandStats_ = expandModule(*t->module_, expander);
    pipelineCheckpoint(*t->module_, "transform:expander");

    // The profile is collected for every configuration: the baseline
    // ignores it, but its step count is the same either way.
    Interpreter interp(*t->module_);
    // Differential soundness check (BITSPEC_VERIFY_EACH): every value
    // the training run observes must respect its known-bits ceiling.
    if (pipelineVerifyEnabled())
        interp.enableStaticBoundsCheck();
    t->profile_.profileRun(interp, "main", train_args);
    t->irSteps_ = interp.stats().steps;
    return t;
}

} // namespace bitspec
