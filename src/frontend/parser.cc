#include "frontend/parser.h"

#include "frontend/lexer.h"
#include "support/error.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

using namespace ast;

class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

    Program
    run()
    {
        Program p;
        while (peek().kind != Tok::End) {
            // Both globals and functions start with: type ident.
            SrcType type = parseType();
            Token name = expect(Tok::Ident);
            if (peek().kind == Tok::LParen) {
                p.functions.push_back(parseFunction(type, name));
            } else {
                p.globals.push_back(parseGlobal(type, name));
            }
        }
        return p;
    }

  private:
    const Token &peek(size_t ahead = 0) const
    {
        size_t i = pos_ + ahead;
        return i < toks_.size() ? toks_[i] : toks_.back();
    }

    Token
    advance()
    {
        Token t = peek();
        if (pos_ < toks_.size() - 1)
            ++pos_;
        return t;
    }

    bool
    accept(Tok kind)
    {
        if (peek().kind != kind)
            return false;
        advance();
        return true;
    }

    [[noreturn]] void
    fail(const Token &at, const std::string &msg)
    {
        throw CompileError("parse", at.line, at.col, msg);
    }

    Token
    expect(Tok kind)
    {
        if (peek().kind != kind)
            fail(peek(), strFormat("expected '%s', got '%s'",
                                   tokName(kind), tokName(peek().kind)));
        return advance();
    }

    /**
     * Deepest nesting the parser accepts: statements, ternaries,
     * unary operators, parentheses, constant-expression operators and
     * binary-operator chains each count one level per nesting. The
     * parser, irgen and the AST destructors all recurse once per
     * level, so without a bound a few KB of source overflow the stack.
     */
    static constexpr unsigned kMaxDepth = 256;

    /** Enters one nesting level at @p at, for the guard's lifetime. */
    class Nest
    {
      public:
        Nest(Parser &p, const Token &at) : p_(p) { p_.enter(at); }
        ~Nest() { --p_.depth_; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;

      private:
        Parser &p_;
    };

    void
    enter(const Token &at)
    {
        if (depth_ == kMaxDepth)
            fail(at, strFormat("nesting deeper than %u levels", kMaxDepth));
        ++depth_;
    }

    bool
    isTypeToken(Tok t) const
    {
        switch (t) {
          case Tok::KwVoid: case Tok::KwU8: case Tok::KwU16:
          case Tok::KwU32: case Tok::KwU64: case Tok::KwI8:
          case Tok::KwI16: case Tok::KwI32: case Tok::KwI64:
            return true;
          default:
            return false;
        }
    }

    SrcType
    parseType()
    {
        Token t = advance();
        switch (t.kind) {
          case Tok::KwVoid: return {0, false};
          case Tok::KwU8: return {8, false};
          case Tok::KwU16: return {16, false};
          case Tok::KwU32: return {32, false};
          case Tok::KwU64: return {64, false};
          case Tok::KwI8: return {8, true};
          case Tok::KwI16: return {16, true};
          case Tok::KwI32: return {32, true};
          case Tok::KwI64: return {64, true};
          default:
            fail(t, "expected a type");
        }
    }

    GlobalDecl
    parseGlobal(SrcType type, const Token &name)
    {
        GlobalDecl g;
        g.name = name.text;
        g.elemType = type;
        g.line = name.line;
        if (type.isVoid())
            fatal("global cannot be void: " + g.name);
        if (accept(Tok::LBracket)) {
            g.isArray = true;
            g.arraySize = expect(Tok::IntLit).intValue;
            if (g.arraySize == 0)
                fatal("zero-sized array: " + g.name);
            expect(Tok::RBracket);
        }
        if (accept(Tok::Assign)) {
            if (peek().kind == Tok::StrLit) {
                Token s = advance();
                if (!g.isArray || g.elemType.bits != 8)
                    fatal("string initialiser needs a u8 array: " + g.name);
                g.strInit = s.text;
            } else if (accept(Tok::LBrace)) {
                if (!g.isArray)
                    fatal("brace initialiser on scalar: " + g.name);
                if (!accept(Tok::RBrace)) {
                    do {
                        g.init.push_back(parseConstExpr());
                    } while (accept(Tok::Comma));
                    expect(Tok::RBrace);
                }
            } else {
                g.init.push_back(parseConstExpr());
            }
        }
        expect(Tok::Semi);
        return g;
    }

    /** Tiny constant expressions for initialisers: literal with
     *  optional unary minus/tilde. */
    uint64_t
    parseConstExpr()
    {
        Nest nest(*this, peek());
        if (accept(Tok::Minus))
            return 0 - parseConstExpr();
        if (accept(Tok::Tilde))
            return ~parseConstExpr();
        return expect(Tok::IntLit).intValue;
    }

    FuncDecl
    parseFunction(SrcType ret, const Token &name)
    {
        FuncDecl f;
        f.name = name.text;
        f.retType = ret;
        f.line = name.line;
        expect(Tok::LParen);
        if (!accept(Tok::RParen)) {
            do {
                if (accept(Tok::KwVoid))
                    break; // f(void)
                SrcType pt = parseType();
                Token pn = expect(Tok::Ident);
                f.params.emplace_back(pt, pn.text);
            } while (accept(Tok::Comma));
            expect(Tok::RParen);
        }
        f.body = parseBlock();
        return f;
    }

    std::unique_ptr<Stmt>
    makeStmt(StmtKind kind, int line)
    {
        auto s = std::make_unique<Stmt>();
        s->kind = kind;
        s->line = line;
        return s;
    }

    std::unique_ptr<Stmt>
    parseBlock()
    {
        Token open = expect(Tok::LBrace);
        auto block = makeStmt(StmtKind::Block, open.line);
        while (!accept(Tok::RBrace))
            block->body.push_back(parseStatement());
        return block;
    }

    std::unique_ptr<Stmt>
    parseStatement()
    {
        const Token &t = peek();
        Nest nest(*this, t);
        switch (t.kind) {
          case Tok::LBrace:
            return parseBlock();
          case Tok::KwIf:
            return parseIf();
          case Tok::KwWhile:
            return parseWhile();
          case Tok::KwDo:
            return parseDoWhile();
          case Tok::KwFor:
            return parseFor();
          case Tok::KwReturn: {
            advance();
            auto s = makeStmt(StmtKind::Return, t.line);
            if (peek().kind != Tok::Semi)
                s->expr = parseExpr();
            expect(Tok::Semi);
            return s;
          }
          case Tok::KwBreak: {
            advance();
            expect(Tok::Semi);
            return makeStmt(StmtKind::Break, t.line);
          }
          case Tok::KwContinue: {
            advance();
            expect(Tok::Semi);
            return makeStmt(StmtKind::Continue, t.line);
          }
          default:
            if (isTypeToken(t.kind))
                return parseDecl();
            return parseExprOrAssign(true);
        }
    }

    std::unique_ptr<Stmt>
    parseDecl()
    {
        int line = peek().line;
        SrcType type = parseType();
        if (type.isVoid())
            fatal(strFormat("line %d: void variable", line));
        Token name = expect(Tok::Ident);
        auto s = makeStmt(StmtKind::Decl, line);
        s->declType = type;
        s->name = name.text;
        if (accept(Tok::Assign))
            s->expr = parseExpr();
        expect(Tok::Semi);
        return s;
    }

    std::unique_ptr<Stmt>
    parseIf()
    {
        Token kw = expect(Tok::KwIf);
        auto s = makeStmt(StmtKind::If, kw.line);
        expect(Tok::LParen);
        s->expr = parseExpr();
        expect(Tok::RParen);
        s->thenS = parseStatement();
        if (accept(Tok::KwElse))
            s->elseS = parseStatement();
        return s;
    }

    std::unique_ptr<Stmt>
    parseWhile()
    {
        Token kw = expect(Tok::KwWhile);
        auto s = makeStmt(StmtKind::While, kw.line);
        expect(Tok::LParen);
        s->expr = parseExpr();
        expect(Tok::RParen);
        s->thenS = parseStatement();
        return s;
    }

    std::unique_ptr<Stmt>
    parseDoWhile()
    {
        Token kw = expect(Tok::KwDo);
        auto s = makeStmt(StmtKind::DoWhile, kw.line);
        s->thenS = parseStatement();
        expect(Tok::KwWhile);
        expect(Tok::LParen);
        s->expr = parseExpr();
        expect(Tok::RParen);
        expect(Tok::Semi);
        return s;
    }

    std::unique_ptr<Stmt>
    parseFor()
    {
        Token kw = expect(Tok::KwFor);
        auto s = makeStmt(StmtKind::For, kw.line);
        expect(Tok::LParen);
        if (!accept(Tok::Semi)) {
            if (isTypeToken(peek().kind)) {
                s->forInit = parseDecl(); // Consumes the ';'.
            } else {
                s->forInit = parseExprOrAssign(true);
            }
        }
        if (peek().kind != Tok::Semi)
            s->expr = parseExpr();
        expect(Tok::Semi);
        if (peek().kind != Tok::RParen)
            s->forStep = parseExprOrAssign(false);
        expect(Tok::RParen);
        s->thenS = parseStatement();
        return s;
    }

    /**
     * Expression statement or assignment. @p eat_semi: statements eat
     * a trailing ';', the for-step does not.
     */
    std::unique_ptr<Stmt>
    parseExprOrAssign(bool eat_semi)
    {
        int line = peek().line;
        auto lhs = parseExpr();

        std::unique_ptr<Stmt> s;
        Tok k = peek().kind;
        auto compound = [&](BinOp op) {
            advance();
            s = makeStmt(StmtKind::Assign, line);
            s->target = std::move(lhs);
            s->isCompound = true;
            s->compoundOp = op;
            s->expr = parseExpr();
        };

        switch (k) {
          case Tok::Assign:
            advance();
            s = makeStmt(StmtKind::Assign, line);
            s->target = std::move(lhs);
            s->expr = parseExpr();
            break;
          case Tok::PlusEq: compound(BinOp::Add); break;
          case Tok::MinusEq: compound(BinOp::Sub); break;
          case Tok::StarEq: compound(BinOp::Mul); break;
          case Tok::SlashEq: compound(BinOp::Div); break;
          case Tok::PercentEq: compound(BinOp::Rem); break;
          case Tok::AmpEq: compound(BinOp::And); break;
          case Tok::PipeEq: compound(BinOp::Or); break;
          case Tok::CaretEq: compound(BinOp::Xor); break;
          case Tok::ShlEq: compound(BinOp::Shl); break;
          case Tok::ShrEq: compound(BinOp::Shr); break;
          case Tok::PlusPlus:
          case Tok::MinusMinus: {
            // Postfix ++/-- as a statement: sugar for `x += 1`.
            advance();
            s = makeStmt(StmtKind::Assign, line);
            s->target = std::move(lhs);
            s->isCompound = true;
            s->compoundOp = (k == Tok::PlusPlus) ? BinOp::Add : BinOp::Sub;
            auto one = makeExpr(ExprKind::IntLit, line);
            one->intValue = 1;
            s->expr = std::move(one);
            break;
          }
          default:
            s = makeStmt(StmtKind::ExprStmt, line);
            s->expr = std::move(lhs);
            break;
        }
        if (eat_semi)
            expect(Tok::Semi);
        return s;
    }

    // --- Expressions (C precedence, lowest first) ---

    std::unique_ptr<Expr>
    makeExpr(ExprKind kind, int line)
    {
        auto e = std::make_unique<Expr>();
        e->kind = kind;
        e->line = line;
        return e;
    }

    std::unique_ptr<Expr> parseExpr() { return parseTernary(); }

    std::unique_ptr<Expr>
    parseTernary()
    {
        Nest nest(*this, peek());
        auto cond = parseLogicalOr();
        if (!accept(Tok::Question))
            return cond;
        auto e = makeExpr(ExprKind::Ternary, cond->line);
        e->children.push_back(std::move(cond));
        e->children.push_back(parseExpr());
        expect(Tok::Colon);
        e->children.push_back(parseTernary());
        return e;
    }

    std::unique_ptr<Expr>
    parseLogicalOr()
    {
        auto lhs = parseLogicalAnd();
        const unsigned depth0 = depth_;
        while (peek().kind == Tok::PipePipe) {
            enter(peek());
            int line = advance().line;
            auto e = makeExpr(ExprKind::Logical, line);
            e->logicalAnd = false;
            e->children.push_back(std::move(lhs));
            e->children.push_back(parseLogicalAnd());
            lhs = std::move(e);
        }
        depth_ = depth0;
        return lhs;
    }

    std::unique_ptr<Expr>
    parseLogicalAnd()
    {
        auto lhs = parseBitOr();
        const unsigned depth0 = depth_;
        while (peek().kind == Tok::AmpAmp) {
            enter(peek());
            int line = advance().line;
            auto e = makeExpr(ExprKind::Logical, line);
            e->logicalAnd = true;
            e->children.push_back(std::move(lhs));
            e->children.push_back(parseBitOr());
            lhs = std::move(e);
        }
        depth_ = depth0;
        return lhs;
    }

    std::unique_ptr<Expr>
    binaryLevel(std::unique_ptr<Expr> (Parser::*sub)(),
                std::initializer_list<std::pair<Tok, BinOp>> ops)
    {
        auto lhs = (this->*sub)();
        // A chain builds a left-deep tree: one level per operator.
        const unsigned depth0 = depth_;
        for (;;) {
            bool matched = false;
            for (auto [tok, op] : ops) {
                if (peek().kind == tok) {
                    enter(peek());
                    int line = advance().line;
                    auto e = makeExpr(ExprKind::Binary, line);
                    e->binOp = op;
                    e->children.push_back(std::move(lhs));
                    e->children.push_back((this->*sub)());
                    lhs = std::move(e);
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                depth_ = depth0;
                return lhs;
            }
        }
    }

    std::unique_ptr<Expr>
    parseBitOr()
    {
        return binaryLevel(&Parser::parseBitXor, {{Tok::Pipe, BinOp::Or}});
    }

    std::unique_ptr<Expr>
    parseBitXor()
    {
        return binaryLevel(&Parser::parseBitAnd,
                           {{Tok::Caret, BinOp::Xor}});
    }

    std::unique_ptr<Expr>
    parseBitAnd()
    {
        return binaryLevel(&Parser::parseEquality,
                           {{Tok::Amp, BinOp::And}});
    }

    std::unique_ptr<Expr>
    parseEquality()
    {
        return binaryLevel(&Parser::parseRelational,
                           {{Tok::EqEq, BinOp::Eq},
                            {Tok::NotEq, BinOp::Ne}});
    }

    std::unique_ptr<Expr>
    parseRelational()
    {
        return binaryLevel(&Parser::parseShift,
                           {{Tok::Lt, BinOp::Lt}, {Tok::Gt, BinOp::Gt},
                            {Tok::Le, BinOp::Le}, {Tok::Ge, BinOp::Ge}});
    }

    std::unique_ptr<Expr>
    parseShift()
    {
        return binaryLevel(&Parser::parseAdditive,
                           {{Tok::Shl, BinOp::Shl},
                            {Tok::Shr, BinOp::Shr}});
    }

    std::unique_ptr<Expr>
    parseAdditive()
    {
        return binaryLevel(&Parser::parseMultiplicative,
                           {{Tok::Plus, BinOp::Add},
                            {Tok::Minus, BinOp::Sub}});
    }

    std::unique_ptr<Expr>
    parseMultiplicative()
    {
        return binaryLevel(&Parser::parseUnary,
                           {{Tok::Star, BinOp::Mul},
                            {Tok::Slash, BinOp::Div},
                            {Tok::Percent, BinOp::Rem}});
    }

    std::unique_ptr<Expr>
    parseUnary()
    {
        const Token &t = peek();
        Nest nest(*this, t);
        auto un = [&](UnOp op) {
            advance();
            auto e = makeExpr(ExprKind::Unary, t.line);
            e->unOp = op;
            e->children.push_back(parseUnary());
            return e;
        };
        switch (t.kind) {
          case Tok::Minus: return un(UnOp::Neg);
          case Tok::Tilde: return un(UnOp::Not);
          case Tok::Bang: return un(UnOp::LogicalNot);
          case Tok::LParen:
            // Cast: '(' type ')' unary.
            if (isTypeToken(peek(1).kind)) {
                advance();
                SrcType ct = parseType();
                expect(Tok::RParen);
                auto e = makeExpr(ExprKind::Cast, t.line);
                e->castType = ct;
                e->children.push_back(parseUnary());
                return e;
            }
            return parsePostfix();
          default:
            return parsePostfix();
        }
    }

    std::unique_ptr<Expr>
    parsePostfix()
    {
        return parsePrimary();
    }

    std::unique_ptr<Expr>
    parsePrimary()
    {
        const Token &t = peek();
        switch (t.kind) {
          case Tok::IntLit: {
            advance();
            auto e = makeExpr(ExprKind::IntLit, t.line);
            e->intValue = t.intValue;
            return e;
          }
          case Tok::LParen: {
            advance();
            auto e = parseExpr();
            expect(Tok::RParen);
            return e;
          }
          case Tok::Ident: {
            Token name = advance();
            if (peek().kind == Tok::LParen) {
                advance();
                auto e = makeExpr(ExprKind::Call, name.line);
                e->name = name.text;
                if (!accept(Tok::RParen)) {
                    do {
                        e->children.push_back(parseExpr());
                    } while (accept(Tok::Comma));
                    expect(Tok::RParen);
                }
                return e;
            }
            if (peek().kind == Tok::LBracket) {
                advance();
                auto e = makeExpr(ExprKind::Index, name.line);
                e->name = name.text;
                e->children.push_back(parseExpr());
                expect(Tok::RBracket);
                return e;
            }
            auto e = makeExpr(ExprKind::VarRef, name.line);
            e->name = name.text;
            return e;
          }
          default:
            fail(t, strFormat("unexpected '%s' in expression",
                              tokName(t.kind)));
        }
    }

    std::vector<Token> toks_;
    size_t pos_ = 0;
    unsigned depth_ = 0;
};

} // namespace

ast::Program
parseProgram(const std::string &source)
{
    return Parser(lex(source)).run();
}

} // namespace bitspec
