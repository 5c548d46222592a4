#include "backend/compiler.h"

#include "analysis/pipeline.h"
#include "backend/layout.h"
#include "backend/mir_verifier.h"
#include "backend/regalloc.h"
#include "obs/trace.h"
#include "support/error.h"

namespace bitspec
{

CompiledProgram
compileModule(Module &m, TargetISA isa)
{
    trace::Span span("backend.compile", "compile");
    m.layoutGlobals();

    std::map<const Function *, int> ids;
    int next = 0;
    for (const auto &f : m.functions())
        ids[f.get()] = next++;

    Function *main_fn = m.getFunction("main");
    if (!main_fn)
        fatal("compileModule: no main function");

    pipelineCheckpoint(m, "backend:pre_isel");

    CompiledProgram out;
    std::vector<MachFunction> funcs;
    for (const auto &f : m.functions()) {
        MachFunction mf = [&] {
            trace::Span s("backend.isel", "compile");
            s.arg("function", f->name());
            return selectFunction(*f, ids[f.get()], isa, ids);
        }();
        {
            trace::Span s("backend.regalloc", "compile");
            s.arg("function", f->name());
            // staticInsts is summed here too but reassigned from the
            // linked program below.
            addFields(out.stats, allocateRegisters(mf));
        }
        {
            trace::Span s("backend.layout", "compile");
            s.arg("function", f->name());
            out.stats.skeletonInsts += layoutFunction(mf);
        }
        {
            trace::Span s("backend.mir_verify", "compile");
            s.arg("function", f->name());
            mirVerifyOrDie(mf, "after layout of " + mf.name);
        }
        funcs.push_back(std::move(mf));
    }

    {
        trace::Span s("backend.link", "compile");
        out.program = linkProgram(std::move(funcs), ids[main_fn]);
    }
    out.stats.staticInsts =
        static_cast<unsigned>(out.program.flat.size());
    return out;
}

} // namespace bitspec
