#include <gtest/gtest.h>

#include "../testutil.h"
#include "analysis/verifier.h"
#include "frontend/irgen.h"
#include "ir/builder.h"
#include "interp/interpreter.h"
#include "transform/simplify.h"

namespace bitspec
{
namespace
{

TEST(Simplify, RemovesTrivialPhi)
{
    Module m;
    Function *f = test::buildDiamond(m);
    BasicBlock *merge = f->blocks()[3].get();
    Instruction *phi = merge->phis()[0];
    // Make the phi trivial: both inputs the same constant.
    Constant *c = m.getConst(Type::i32(), 7);
    phi->setOperand(0, c);
    phi->setOperand(1, c);

    EXPECT_EQ(simplifyTrivialPhis(*f), 1u);
    EXPECT_TRUE(merge->phis().empty());
    EXPECT_EQ(merge->terminator()->operand(0), c);
}

TEST(Simplify, PhiCycleCollapsesToZero)
{
    // a = phi(a, b), b = phi(a, b): a folds into b, which is then
    // self-only and becomes zero; the phis' user reads the constant.
    Module m;
    Function *f = m.addFunction("f", Type::i32(), {Type::i1()});
    IRBuilder b(&m);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *loop = f->addBlock("loop");
    BasicBlock *exit = f->addBlock("exit");
    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    Instruction *pa = b.phi(Type::i32(), "a");
    Instruction *pb = b.phi(Type::i32(), "b");
    b.addIncoming(pa, pa, entry);
    b.addIncoming(pa, pb, loop);
    b.addIncoming(pb, pa, entry);
    b.addIncoming(pb, pb, loop);
    Instruction *sum = b.add(pa, pb);
    b.condBr(f->arg(0), loop, exit);
    b.setInsertPoint(exit);
    b.ret(sum);

    EXPECT_EQ(simplifyTrivialPhis(*f), 2u);
    EXPECT_TRUE(loop->phis().empty());
    Constant *zero = m.getConst(Type::i32(), 0);
    EXPECT_EQ(sum->operand(0), zero);
    EXPECT_EQ(sum->operand(1), zero);
}

TEST(Simplify, KeepsRealPhis)
{
    Module m;
    Function *f = test::buildDiamond(m);
    EXPECT_EQ(simplifyTrivialPhis(*f), 0u);
}

TEST(Simplify, DeadCodeRemoved)
{
    Module m;
    Function *f = m.addFunction("f", Type::i32(), {Type::i32()});
    IRBuilder b(&m);
    f->setParent(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    Instruction *dead = b.add(f->arg(0), b.constI32(1));
    Instruction *dead2 = b.mul(dead, b.constI32(2)); // Chains.
    (void)dead2;
    Instruction *live = b.add(f->arg(0), b.constI32(5));
    b.ret(live);

    EXPECT_EQ(deadCodeElim(*f), 2u);
    EXPECT_EQ(f->instructionCount(), 2u);
}

TEST(Simplify, GuardsSurviveDCE)
{
    Module m;
    Function *f = m.addFunction("f", Type::i32(), {Type::i8()});
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    Instruction *spec = b.add(f->arg(0), m.getConst(Type::i8(), 1));
    spec->setSpeculative(true);
    spec->setGuard(true); // A folded compare relies on its misspec.
    b.ret(b.constI32(0));

    EXPECT_EQ(deadCodeElim(*f), 0u);
    EXPECT_EQ(f->instructionCount(), 2u);
    (void)spec;
}

TEST(Simplify, ConstantFoldsExpressions)
{
    auto m = compileSource(
        "u32 main() { u32 a = 3; u32 b = 4; return a * b + 2; }");
    Function *f = m->getFunction("main");
    simplifyFunction(*f);
    // Whole body folds to `ret 14`.
    EXPECT_EQ(f->instructionCount(), 1u);
    Interpreter in(*m);
    EXPECT_EQ(in.run("main"), 14u);
}

TEST(Simplify, FoldsConstantBranches)
{
    auto m = compileSource(R"(
        u32 main() {
            u32 x = 0;
            if (1 < 2) x = 10; else x = 20;
            return x;
        }
    )");
    Function *f = m->getFunction("main");
    simplifyFunction(*f);
    EXPECT_TRUE(verifyFunction(*f).empty());
    Interpreter in(*m);
    EXPECT_EQ(in.run("main"), 10u);
    // The else branch must be gone.
    EXPECT_LE(f->blocks().size(), 3u);
}

TEST(Simplify, PreservesSemanticsOnRealCode)
{
    const char *src = R"(
        u32 main(u32 n) {
            u32 acc = 0;
            for (u32 i = 0; i < n; i++)
                acc = acc * 31 + i;
            return acc;
        }
    )";
    auto m1 = compileSource(src);
    auto m2 = compileSource(src);
    for (const auto &f : m2->functions())
        simplifyFunction(*f);
    Interpreter i1(*m1), i2(*m2);
    for (uint64_t n : {0, 1, 5, 100})
        EXPECT_EQ(i1.run("main", {n}), i2.run("main", {n})) << n;
}

TEST(Simplify, SpeculativeOpsNotFolded)
{
    Module m;
    Function *f = m.addFunction("f", Type::i8(), {});
    f->setParent(&m);
    IRBuilder b(&m);
    BasicBlock *bb = f->addBlock("entry");
    b.setInsertPoint(bb);
    Instruction *spec = b.add(m.getConst(Type::i8(), 200),
                              m.getConst(Type::i8(), 100));
    spec->setSpeculative(true); // Would overflow: must not fold away.
    b.ret(spec);
    EXPECT_EQ(constantFold(*f), 0u);
}

} // namespace
} // namespace bitspec
