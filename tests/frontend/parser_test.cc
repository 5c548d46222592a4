#include <gtest/gtest.h>

#include <string>

#include "frontend/irgen.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "support/error.h"

namespace bitspec
{
namespace
{

TEST(Parser, GlobalsAndFunctions)
{
    auto p = parseProgram(R"(
        u32 counter;
        u8 table[256];
        u32 lut[4] = { 1, 2, 3 };
        u8 msg[8] = "hi";
        i32 bias = -5;

        u32 add(u32 a, u32 b) { return a + b; }
        void main() { }
    )");
    ASSERT_EQ(p.globals.size(), 5u);
    EXPECT_FALSE(p.globals[0].isArray);
    EXPECT_TRUE(p.globals[1].isArray);
    EXPECT_EQ(p.globals[1].arraySize, 256u);
    EXPECT_EQ(p.globals[2].init.size(), 3u);
    EXPECT_EQ(p.globals[3].strInit, "hi");
    EXPECT_EQ(p.globals[4].init[0], static_cast<uint64_t>(-5));

    ASSERT_EQ(p.functions.size(), 2u);
    EXPECT_EQ(p.functions[0].name, "add");
    EXPECT_EQ(p.functions[0].params.size(), 2u);
    EXPECT_EQ(p.functions[0].retType.bits, 32u);
    EXPECT_FALSE(p.functions[0].retType.isSigned);
}

TEST(Parser, StatementsRoundTrip)
{
    auto p = parseProgram(R"(
        u32 g[4];
        void main() {
            u32 x = 1;
            if (x < 2) { x = 3; } else x = 4;
            while (x) { x -= 1; break; }
            do { x += 1; } while (x < 5);
            for (u32 i = 0; i < 4; i++) { g[i] = x; continue; }
            x <<= 2;
            return;
        }
    )");
    const auto &body = p.functions[0].body->body;
    ASSERT_EQ(body.size(), 7u);
    EXPECT_EQ(body[0]->kind, ast::StmtKind::Decl);
    EXPECT_EQ(body[1]->kind, ast::StmtKind::If);
    EXPECT_EQ(body[2]->kind, ast::StmtKind::While);
    EXPECT_EQ(body[3]->kind, ast::StmtKind::DoWhile);
    EXPECT_EQ(body[4]->kind, ast::StmtKind::For);
    EXPECT_EQ(body[5]->kind, ast::StmtKind::Assign);
    EXPECT_TRUE(body[5]->isCompound);
    EXPECT_EQ(body[6]->kind, ast::StmtKind::Return);
}

TEST(Parser, ExpressionPrecedence)
{
    auto p = parseProgram("u32 f() { return 1 + 2 * 3; }");
    const auto &ret = p.functions[0].body->body[0];
    const auto &e = ret->expr;
    ASSERT_EQ(e->kind, ast::ExprKind::Binary);
    EXPECT_EQ(e->binOp, ast::BinOp::Add);
    EXPECT_EQ(e->children[1]->binOp, ast::BinOp::Mul);
}

TEST(Parser, TernaryAndLogical)
{
    auto p = parseProgram("u32 f(u32 a) { return a && 1 ? a | 2 : 3; }");
    const auto &e = p.functions[0].body->body[0]->expr;
    ASSERT_EQ(e->kind, ast::ExprKind::Ternary);
    EXPECT_EQ(e->children[0]->kind, ast::ExprKind::Logical);
}

TEST(Parser, CastVsParens)
{
    auto p = parseProgram("u32 f(u32 a) { return (u8)a + (a); }");
    const auto &e = p.functions[0].body->body[0]->expr;
    ASSERT_EQ(e->kind, ast::ExprKind::Binary);
    EXPECT_EQ(e->children[0]->kind, ast::ExprKind::Cast);
    EXPECT_EQ(e->children[0]->castType.bits, 8u);
    EXPECT_EQ(e->children[1]->kind, ast::ExprKind::VarRef);
}

TEST(Parser, CallsAndIndex)
{
    auto p = parseProgram(R"(
        u8 buf[4];
        u32 g(u32 x) { return x; }
        u32 f() { return g(buf[2]) + g(1); }
    )");
    const auto &e = p.functions[1].body->body[0]->expr;
    EXPECT_EQ(e->children[0]->kind, ast::ExprKind::Call);
    EXPECT_EQ(e->children[0]->children[0]->kind, ast::ExprKind::Index);
}

TEST(Parser, PlusPlusStatement)
{
    auto p = parseProgram("void f() { u32 i = 0; i++; i--; }");
    const auto &body = p.functions[0].body->body;
    EXPECT_EQ(body[1]->kind, ast::StmtKind::Assign);
    EXPECT_TRUE(body[1]->isCompound);
    EXPECT_EQ(body[1]->compoundOp, ast::BinOp::Add);
    EXPECT_EQ(body[2]->compoundOp, ast::BinOp::Sub);
}

TEST(Parser, SyntaxErrors)
{
    EXPECT_THROW(parseProgram("u32 f( { }"), FatalError);
    EXPECT_THROW(parseProgram("u32 x = ;"), FatalError);
    EXPECT_THROW(parseProgram("void f() { if x }"), FatalError);
    EXPECT_THROW(parseProgram("void f() { return 1 + ; }"), FatalError);
}

TEST(Parser, SyntaxErrorsAreLocated)
{
    try {
        parseProgram("void f() {\n  return 1 + ; }");
        ADD_FAILURE() << "parsed";
    } catch (const CompileError &e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_EQ(e.col(), 14);
        EXPECT_STREQ(e.what(), "fatal: parse error at 2:14: unexpected "
                               "';' in expression");
    }
}

std::string
repeat(const std::string &s, size_t n)
{
    std::string out;
    for (size_t i = 0; i < n; ++i)
        out += s;
    return out;
}

/** Input that once overflowed the recursive-descent parser's stack
 *  (rc 139): each must now end in a located diagnostic. */
struct DeepInput
{
    const char *what;
    std::string source;
};

std::vector<DeepInput>
deepInputs()
{
    const std::string open = "u32 main() { return ";
    return {
        {"4000 nested parentheses",
         open + repeat("(", 4000) + "1" + repeat(")", 4000) + "; }"},
        {"20000 nested blocks",
         "u32 main() { " + repeat("{", 20000) + repeat("}", 20000) +
             " return 0; }"},
        {"50000 chained unary ~", open + repeat("~", 50000) + "1; }"},
        {"50000-term sum", open + repeat("1 + ", 50000) + "1; }"},
        {"50000-term ||", open + repeat("1 || ", 50000) + "1; }"},
        {"20000 chained ternaries", open + repeat("1 ? 2 : ", 20000) + "3; }"},
        {"20000 else-ifs",
         "u32 main() { u32 x = 0; if (x) x = 1; " +
             repeat("else if (x) x = 1; ", 20000) + "return x; }"},
        {"50000 negations in an initialiser",
         "i32 g = " + repeat("- ", 50000) + "1; u32 main() { return 0; }"},
    };
}

TEST(ParserRobustness, DeepNestingIsALocatedDiagnostic)
{
    for (const DeepInput &in : deepInputs()) {
        try {
            compileSource(in.source);
            ADD_FAILURE() << in.what << ": compiled";
        } catch (const CompileError &e) {
            EXPECT_EQ(e.line(), 1) << in.what;
            EXPECT_GT(e.col(), 0) << in.what;
            EXPECT_NE(std::string(e.what()).find(
                          "nesting deeper than 256 levels"),
                      std::string::npos)
                << in.what << ": " << e.what();
        }
    }
}

TEST(ParserRobustness, NestingWithinTheLimitCompiles)
{
    // A parenthesis costs two levels (the expression and its unary
    // operand), a unary operator or a chained operator one.
    auto m = compileSource("u32 main() { return " + repeat("(", 50) +
                           repeat("~", 100) + "7" + repeat(")", 50) +
                           " + " + repeat("1 + ", 100) + "1; }");
    Interpreter interp(*m);
    EXPECT_EQ(interp.run("main"), 7u + 101u);
}

} // namespace
} // namespace bitspec
