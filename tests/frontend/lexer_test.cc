#include <gtest/gtest.h>

#include "frontend/lexer.h"
#include "support/error.h"

namespace bitspec
{
namespace
{

TEST(Lexer, KeywordsAndIdents)
{
    auto toks = lex("u32 foo int size_t while");
    ASSERT_EQ(toks.size(), 6u); // + End.
    EXPECT_EQ(toks[0].kind, Tok::KwU32);
    EXPECT_EQ(toks[1].kind, Tok::Ident);
    EXPECT_EQ(toks[1].text, "foo");
    EXPECT_EQ(toks[2].kind, Tok::KwI32);   // int alias
    EXPECT_EQ(toks[3].kind, Tok::KwU32);   // size_t alias (32-bit target)
    EXPECT_EQ(toks[4].kind, Tok::KwWhile);
    EXPECT_EQ(toks[5].kind, Tok::End);
}

TEST(Lexer, IntLiterals)
{
    auto toks = lex("0 42 0xff 0xDEADbeef 123u 45UL");
    EXPECT_EQ(toks[0].intValue, 0u);
    EXPECT_EQ(toks[1].intValue, 42u);
    EXPECT_EQ(toks[2].intValue, 0xffu);
    EXPECT_EQ(toks[3].intValue, 0xdeadbeefu);
    EXPECT_EQ(toks[4].intValue, 123u);
    EXPECT_EQ(toks[5].intValue, 45u);

    // The 64-bit limits are accepted; one past them is a located
    // error, not a silent wrap.
    toks = lex("18446744073709551615 0xffffffffffffffff");
    EXPECT_EQ(toks[0].intValue, UINT64_MAX);
    EXPECT_EQ(toks[1].intValue, UINT64_MAX);
    for (const char *src :
         {"x = 99999999999999999999999999;", "x = 18446744073709551616;",
          "x = 0x10000000000000000;"}) {
        SCOPED_TRACE(src);
        try {
            lex(src);
            ADD_FAILURE() << "no error";
        } catch (const CompileError &e) {
            EXPECT_EQ(e.line(), 1);
            EXPECT_EQ(e.col(), 5);
            EXPECT_NE(std::string(e.what()).find("64 bits"),
                      std::string::npos);
        }
    }
}

TEST(Lexer, CharAndStringLiterals)
{
    auto toks = lex("'a' '\\n' '\\0' \"hi\\t!\"");
    EXPECT_EQ(toks[0].intValue, 'a');
    EXPECT_EQ(toks[1].intValue, '\n');
    EXPECT_EQ(toks[2].intValue, 0u);
    EXPECT_EQ(toks[3].kind, Tok::StrLit);
    EXPECT_EQ(toks[3].text, "hi\t!");
}

TEST(Lexer, OperatorsMaximalMunch)
{
    auto toks = lex("<<= << <= < >>= >> >= > == = ++ += + && &= &");
    Tok expect[] = {Tok::ShlEq, Tok::Shl, Tok::Le, Tok::Lt,
                    Tok::ShrEq, Tok::Shr, Tok::Ge, Tok::Gt,
                    Tok::EqEq, Tok::Assign, Tok::PlusPlus, Tok::PlusEq,
                    Tok::Plus, Tok::AmpAmp, Tok::AmpEq, Tok::Amp};
    for (size_t i = 0; i < std::size(expect); ++i)
        EXPECT_EQ(toks[i].kind, expect[i]) << "i=" << i;
}

TEST(Lexer, CommentsSkipped)
{
    auto toks = lex("a // line comment\n b /* block\n comment */ c");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
    EXPECT_EQ(toks[2].text, "c");
}

TEST(Lexer, TracksLineNumbers)
{
    auto toks = lex("a\nb\n  c");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].line, 2);
    EXPECT_EQ(toks[2].line, 3);
    EXPECT_EQ(toks[2].col, 3);
}

TEST(Lexer, RejectsBadInput)
{
    EXPECT_THROW(lex("$"), FatalError);
    EXPECT_THROW(lex("\"unterminated"), FatalError);
    EXPECT_THROW(lex("/* unterminated"), FatalError);
    EXPECT_THROW(lex("'\\q'"), FatalError);
}

} // namespace
} // namespace bitspec
