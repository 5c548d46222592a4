/**
 * @file
 * The shared front half and its deep clone, over every workload: a
 * cloned module prints and verifies like the original, the re-keyed
 * profile selects the same widths, and nothing a System does to its
 * clone reaches the TrainedProgram other Systems build from.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "core/system.h"
#include "core/trained_program.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "ir/printer.h"
#include "transform/squeezer.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

std::shared_ptr<const TrainedProgram>
train(const Workload &w)
{
    return TrainedProgram::build(
        w.source, ExpanderOptions{},
        [&w](Module &m) { w.setInput(m, 0); }, {}, w.name);
}

/** Calls @p fn on every (original, copy) instruction pair. */
template <typename Fn>
void
forEachPair(const Module &a, const Module &b, Fn fn)
{
    ASSERT_EQ(a.functions().size(), b.functions().size());
    for (size_t f = 0; f < a.functions().size(); ++f) {
        const auto &ab = a.functions()[f]->blocks();
        const auto &bb = b.functions()[f]->blocks();
        ASSERT_EQ(ab.size(), bb.size());
        for (size_t i = 0; i < ab.size(); ++i) {
            ASSERT_EQ(ab[i]->insts().size(), bb[i]->insts().size());
            auto it = bb[i]->insts().begin();
            for (const auto &inst : ab[i]->insts())
                fn(*inst, **it++);
        }
    }
}

/** The value of @p m that @p op (an operand of @p user) must be if
 *  it belongs to @p m: the pooled constant or GlobalRef, or the
 *  argument of @p user's function. */
Value *
ownedBy(Module &m, const Instruction &user, Value *op)
{
    switch (op->kind()) {
      case ValueKind::Constant:
        return m.getConst(op->type(), static_cast<Constant *>(op)->value());
      case ValueKind::GlobalRef:
        return m.getGlobalRef(
            m.getGlobal(static_cast<GlobalRef *>(op)->global()->name()));
      case ValueKind::Argument:
        return user.parent()->parent()->arg(
            static_cast<Argument *>(op)->index());
      case ValueKind::Instruction:
        break;
    }
    return op;
}

class TrainedProgramSuite : public ::testing::TestWithParam<std::string>
{};

TEST_P(TrainedProgramSuite, ClonePrintsIdenticallyAndVerifies)
{
    const auto trained = train(getWorkload(GetParam()));
    CloneMap map;
    std::unique_ptr<Module> copy = cloneModule(trained->module(), &map);
    EXPECT_EQ(printModule(*copy), printModule(trained->module()));
    EXPECT_TRUE(verifyModule(*copy).empty());
    forEachPair(trained->module(), *copy,
                [&](const Instruction &a, const Instruction &b) {
                    EXPECT_EQ(map.get(const_cast<Instruction *>(&a)), &b);
                    EXPECT_EQ(a.id(), b.id());
                    if (a.callee()) {
                        EXPECT_EQ(b.callee(),
                                  copy->getFunction(a.callee()->name()));
                    }
                    // Every operand lives in the copy's own pools.
                    for (Value *op : b.operands())
                        EXPECT_EQ(op, ownedBy(*copy, b, op));
                });
    for (size_t g = 0; g < copy->globals().size(); ++g) {
        const Global &a = *trained->module().globals()[g];
        const Global &b = *copy->globals()[g];
        EXPECT_EQ(a.address(), b.address()) << a.name();
        EXPECT_EQ(a.data(), b.data()) << a.name();
    }
}

TEST_P(TrainedProgramSuite, CloneNamesAndNumbersLikeTheOriginal)
{
    // The front half as TrainedProgram::build leaves it, but mutable.
    const Workload &w = getWorkload(GetParam());
    std::unique_ptr<Module> m = compileSource(w.source);
    w.setInput(*m, 0);
    expandModule(*m, ExpanderOptions{});
    Interpreter interp(*m);
    interp.run("main"); // Renumbers every function it executes.

    std::unique_ptr<Module> copy = cloneModule(*m);
    auto argId = [](const Function &f, size_t k) {
        try {
            return static_cast<long>(f.valueId(f.arg(k)));
        } catch (const PanicError &) {
            return -1L; // Never numbered.
        }
    };
    for (size_t i = 0; i < m->functions().size(); ++i) {
        Function &a = *m->functions()[i];
        Function &b = *copy->functions()[i];
        for (size_t k = 0; k < a.numArgs(); ++k)
            EXPECT_EQ(argId(a, k), argId(b, k)) << a.name();
        // A later pass asking for a used name gets the same fresh one.
        const std::string base = a.entry()->name();
        EXPECT_EQ(a.uniqueName(base), b.uniqueName(base)) << a.name();
    }
}

TEST_P(TrainedProgramSuite, RemappedProfileKeepsEveryTarget)
{
    const auto trained = train(getWorkload(GetParam()));
    CloneMap map;
    std::unique_ptr<Module> copy = cloneModule(trained->module(), &map);
    const BitwidthProfile remapped = trained->profile().remapped(map);
    EXPECT_EQ(remapped.totalAssignments(),
              trained->profile().totalAssignments());
    forEachPair(trained->module(), *copy,
                [&](const Instruction &a, const Instruction &b) {
                    EXPECT_EQ(remapped.hasData(&b),
                              trained->profile().hasData(&a));
                    for (Heuristic h :
                         {Heuristic::Max, Heuristic::Avg, Heuristic::Min})
                        EXPECT_EQ(remapped.target(&b, h),
                                  trained->profile().target(&a, h));
                });
}

TEST_P(TrainedProgramSuite, SystemsNeverMutateTheFrontHalf)
{
    const auto trained = train(getWorkload(GetParam()));
    const std::string before = printModule(trained->module());

    // The most aggressive squeeze, straight on a clone...
    CloneMap map;
    std::unique_ptr<Module> copy = cloneModule(trained->module(), &map);
    squeezeModule(*copy, trained->profile().remapped(map),
                  SystemConfig::bitspec(Heuristic::Min).squeezeOpts);
    EXPECT_EQ(printModule(trained->module()), before);

    // ...and every configuration through the System constructor.
    for (const SystemConfig &cfg :
         {SystemConfig::baseline(), SystemConfig::bitspec(Heuristic::Max),
          SystemConfig::bitspec(Heuristic::Avg),
          SystemConfig::bitspec(Heuristic::Min),
          SystemConfig::noSpeculation()}) {
        System sys(trained, cfg);
        EXPECT_EQ(sys.profiledIrInstructions(), trained->irSteps());
    }
    EXPECT_EQ(printModule(trained->module()), before);
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> out;
    for (const Workload &w : mibenchSuite())
        out.push_back(w.name);
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, TrainedProgramSuite, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string id = info.param;
        for (char &c : id)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return id;
    });

TEST(TrainedProgram, RejectsAMismatchedExpanderConfig)
{
    const auto trained = train(getWorkload("CRC32"));
    SystemConfig cfg = SystemConfig::bitspec();
    cfg.expander.enabled = false;
    EXPECT_THROW(System sys(trained, cfg), PanicError);
}

} // namespace
} // namespace bitspec
