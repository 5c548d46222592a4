#include <gtest/gtest.h>

#include "../testutil.h"
#include "analysis/dominators.h"

namespace bitspec
{
namespace
{

TEST(Dominators, Diamond)
{
    Module m;
    Function *f = test::buildDiamond(m);
    DomTree dt(*f);
    BasicBlock *entry = f->blocks()[0].get();
    BasicBlock *left = f->blocks()[1].get();
    BasicBlock *right = f->blocks()[2].get();
    BasicBlock *merge = f->blocks()[3].get();

    EXPECT_EQ(dt.idom(merge), entry);
    EXPECT_TRUE(dt.dominates(entry, merge));
    EXPECT_FALSE(dt.dominates(left, merge));
    EXPECT_FALSE(dt.dominates(left, right));
    EXPECT_TRUE(dt.dominates(left, left));
}

TEST(Dominators, Loop)
{
    Module m;
    Function *f = test::buildSumTo(m);
    DomTree dt(*f);
    BasicBlock *entry = f->blocks()[0].get();
    BasicBlock *body = f->blocks()[1].get();
    BasicBlock *exit = f->blocks()[2].get();
    EXPECT_EQ(dt.idom(body), entry);
    EXPECT_EQ(dt.idom(exit), body);
    EXPECT_TRUE(dt.dominates(body, exit));
}

TEST(Dominators, UnreachableBlockNotInTree)
{
    Module m;
    Function *f = test::buildSumTo(m);
    BasicBlock *dead = f->addBlock("dead");
    IRBuilder b(&m);
    b.setInsertPoint(dead);
    b.ret(m.getConst(Type::i32(), 0));
    DomTree dt(*f);
    EXPECT_FALSE(dt.isReachable(dead));
    EXPECT_FALSE(dt.dominates(dead, f->entry()));
}

TEST(Dominators, DominatesUseSameBlock)
{
    Module m;
    Function *f = test::buildSumTo(m);
    DomTree dt(*f);
    BasicBlock *body = f->blocks()[1].get();
    // s2 = add s, i;  i2 = add i, 1 -- s2 is defined before i2.
    Instruction *s2 = nullptr, *i2 = nullptr;
    for (auto &inst : body->insts()) {
        if (inst->op() == Opcode::Add) {
            if (!s2)
                s2 = inst.get();
            else
                i2 = inst.get();
        }
    }
    ASSERT_NE(i2, nullptr);
    const InstOrder order(*f);
    EXPECT_TRUE(dt.dominatesUse(s2, i2, 0, order));
    EXPECT_FALSE(dt.dominatesUse(i2, s2, 0, order));
}

TEST(Dominators, PhiUsesCheckedAtIncomingEdge)
{
    Module m;
    Function *f = test::buildSumTo(m);
    DomTree dt(*f);
    BasicBlock *body = f->blocks()[1].get();
    Instruction *i_phi = body->phis()[0];
    // The back-edge input (i2, defined in body) reaches the phi via the
    // body edge: dominance holds at the edge, not at the phi itself.
    Instruction *i2 = nullptr;
    for (auto &inst : body->insts())
        if (inst->op() == Opcode::Add)
            i2 = inst.get(); // Last add is i2.
    for (size_t k = 0; k < i_phi->numOperands(); ++k) {
        if (i_phi->operand(k) == i2) {
            EXPECT_TRUE(dt.dominatesUse(i2, i_phi, k, InstOrder(*f)));
        }
    }
}

} // namespace
} // namespace bitspec
