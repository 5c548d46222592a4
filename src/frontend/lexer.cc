#include "frontend/lexer.h"

#include <cctype>
#include <map>

#include "support/error.h"
#include "support/str.h"

namespace bitspec
{

const char *
tokName(Tok t)
{
    switch (t) {
      case Tok::End: return "<end>";
      case Tok::Ident: return "identifier";
      case Tok::IntLit: return "integer literal";
      case Tok::StrLit: return "string literal";
      case Tok::KwVoid: return "void";
      case Tok::KwU8: return "u8";
      case Tok::KwU16: return "u16";
      case Tok::KwU32: return "u32";
      case Tok::KwU64: return "u64";
      case Tok::KwI8: return "i8";
      case Tok::KwI16: return "i16";
      case Tok::KwI32: return "i32";
      case Tok::KwI64: return "i64";
      case Tok::KwIf: return "if";
      case Tok::KwElse: return "else";
      case Tok::KwWhile: return "while";
      case Tok::KwDo: return "do";
      case Tok::KwFor: return "for";
      case Tok::KwReturn: return "return";
      case Tok::KwBreak: return "break";
      case Tok::KwContinue: return "continue";
      case Tok::LParen: return "(";
      case Tok::RParen: return ")";
      case Tok::LBrace: return "{";
      case Tok::RBrace: return "}";
      case Tok::LBracket: return "[";
      case Tok::RBracket: return "]";
      case Tok::Comma: return ",";
      case Tok::Semi: return ";";
      case Tok::Plus: return "+";
      case Tok::Minus: return "-";
      case Tok::Star: return "*";
      case Tok::Slash: return "/";
      case Tok::Percent: return "%";
      case Tok::Amp: return "&";
      case Tok::Pipe: return "|";
      case Tok::Caret: return "^";
      case Tok::Tilde: return "~";
      case Tok::Bang: return "!";
      case Tok::Shl: return "<<";
      case Tok::Shr: return ">>";
      case Tok::Lt: return "<";
      case Tok::Gt: return ">";
      case Tok::Le: return "<=";
      case Tok::Ge: return ">=";
      case Tok::EqEq: return "==";
      case Tok::NotEq: return "!=";
      case Tok::AmpAmp: return "&&";
      case Tok::PipePipe: return "||";
      case Tok::Assign: return "=";
      case Tok::PlusEq: return "+=";
      case Tok::MinusEq: return "-=";
      case Tok::StarEq: return "*=";
      case Tok::SlashEq: return "/=";
      case Tok::PercentEq: return "%=";
      case Tok::AmpEq: return "&=";
      case Tok::PipeEq: return "|=";
      case Tok::CaretEq: return "^=";
      case Tok::ShlEq: return "<<=";
      case Tok::ShrEq: return ">>=";
      case Tok::PlusPlus: return "++";
      case Tok::MinusMinus: return "--";
      case Tok::Question: return "?";
      case Tok::Colon: return ":";
    }
    return "?";
}

namespace
{

const std::map<std::string, Tok> kKeywords = {
    {"void", Tok::KwVoid},
    {"u8", Tok::KwU8}, {"u16", Tok::KwU16},
    {"u32", Tok::KwU32}, {"u64", Tok::KwU64},
    {"i8", Tok::KwI8}, {"i16", Tok::KwI16},
    {"i32", Tok::KwI32}, {"i64", Tok::KwI64},
    // C-flavoured aliases used by the MiBench-style sources. size_t
    // is 32 bits: the target is a 32-bit ARM-class core (§4.1).
    {"char", Tok::KwU8}, {"int", Tok::KwI32},
    {"uint", Tok::KwU32}, {"size_t", Tok::KwU32},
    {"if", Tok::KwIf}, {"else", Tok::KwElse},
    {"while", Tok::KwWhile}, {"do", Tok::KwDo}, {"for", Tok::KwFor},
    {"return", Tok::KwReturn},
    {"break", Tok::KwBreak}, {"continue", Tok::KwContinue},
};

class LexerImpl
{
  public:
    explicit LexerImpl(const std::string &src) : src_(src) {}

    std::vector<Token>
    run()
    {
        std::vector<Token> out;
        for (;;) {
            skipSpaceAndComments();
            Token t = next();
            out.push_back(t);
            if (t.kind == Tok::End)
                break;
        }
        return out;
    }

  private:
    [[noreturn]] void
    err(const std::string &msg)
    {
        throw CompileError("lex", line_, col_, msg);
    }

    bool done() const { return pos_ >= src_.size(); }
    char peek() const { return done() ? '\0' : src_[pos_]; }
    char
    peek2() const
    {
        return pos_ + 1 < src_.size() ? src_[pos_ + 1] : '\0';
    }

    char
    advance()
    {
        char c = src_[pos_++];
        if (c == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        return c;
    }

    void
    skipSpaceAndComments()
    {
        for (;;) {
            while (!done() && std::isspace(peek()))
                advance();
            if (peek() == '/' && peek2() == '/') {
                while (!done() && peek() != '\n')
                    advance();
                continue;
            }
            if (peek() == '/' && peek2() == '*') {
                advance();
                advance();
                while (!done() && !(peek() == '*' && peek2() == '/'))
                    advance();
                if (done())
                    err("unterminated block comment");
                advance();
                advance();
                continue;
            }
            return;
        }
    }

    char
    unescape(char c)
    {
        switch (c) {
          case 'n': return '\n';
          case 't': return '\t';
          case 'r': return '\r';
          case '0': return '\0';
          case '\\': return '\\';
          case '\'': return '\'';
          case '"': return '"';
          default: err(strFormat("bad escape '\\%c'", c));
        }
    }

    Token
    next()
    {
        Token t;
        t.line = line_;
        t.col = col_;
        if (done()) {
            t.kind = Tok::End;
            return t;
        }
        char c = advance();

        if (std::isalpha(c) || c == '_') {
            std::string ident(1, c);
            while (std::isalnum(peek()) || peek() == '_')
                ident += advance();
            auto it = kKeywords.find(ident);
            if (it != kKeywords.end()) {
                t.kind = it->second;
            } else {
                t.kind = Tok::Ident;
                t.text = ident;
            }
            return t;
        }

        if (std::isdigit(c)) {
            t.kind = Tok::IntLit;
            uint64_t v = 0;
            // Accumulate one digit, diagnosing 64-bit overflow at the
            // literal's start instead of wrapping.
            auto push = [&](unsigned base, unsigned digit) {
                if (__builtin_mul_overflow(v, base, &v) ||
                    __builtin_add_overflow(v, digit, &v))
                    throw CompileError("lex", t.line, t.col,
                                       "integer literal does not fit in "
                                       "64 bits");
            };
            if (c == '0' && (peek() == 'x' || peek() == 'X')) {
                advance();
                bool any = false;
                while (std::isxdigit(peek())) {
                    char d = advance();
                    push(16, std::isdigit(d) ? d - '0'
                                             : std::tolower(d) - 'a' + 10);
                    any = true;
                }
                if (!any)
                    err("empty hex literal");
            } else {
                v = static_cast<uint64_t>(c - '0');
                while (std::isdigit(peek()))
                    push(10, static_cast<unsigned>(advance() - '0'));
            }
            // Optional u/ul/ull suffixes are accepted and ignored.
            while (peek() == 'u' || peek() == 'U' || peek() == 'l' ||
                   peek() == 'L') {
                advance();
            }
            t.intValue = v;
            return t;
        }

        if (c == '\'') {
            t.kind = Tok::IntLit;
            char v = advance();
            if (v == '\\')
                v = unescape(advance());
            if (advance() != '\'')
                err("unterminated char literal");
            t.intValue = static_cast<uint8_t>(v);
            return t;
        }

        if (c == '"') {
            t.kind = Tok::StrLit;
            while (peek() != '"') {
                if (done())
                    err("unterminated string literal");
                char v = advance();
                if (v == '\\')
                    v = unescape(advance());
                t.text += v;
            }
            advance();
            return t;
        }

        auto two = [&](char second, Tok yes, Tok no) {
            if (peek() == second) {
                advance();
                t.kind = yes;
            } else {
                t.kind = no;
            }
        };

        switch (c) {
          case '(': t.kind = Tok::LParen; break;
          case ')': t.kind = Tok::RParen; break;
          case '{': t.kind = Tok::LBrace; break;
          case '}': t.kind = Tok::RBrace; break;
          case '[': t.kind = Tok::LBracket; break;
          case ']': t.kind = Tok::RBracket; break;
          case ',': t.kind = Tok::Comma; break;
          case ';': t.kind = Tok::Semi; break;
          case '~': t.kind = Tok::Tilde; break;
          case '?': t.kind = Tok::Question; break;
          case ':': t.kind = Tok::Colon; break;
          case '+':
            if (peek() == '+') {
                advance();
                t.kind = Tok::PlusPlus;
            } else {
                two('=', Tok::PlusEq, Tok::Plus);
            }
            break;
          case '-':
            if (peek() == '-') {
                advance();
                t.kind = Tok::MinusMinus;
            } else {
                two('=', Tok::MinusEq, Tok::Minus);
            }
            break;
          case '*': two('=', Tok::StarEq, Tok::Star); break;
          case '/': two('=', Tok::SlashEq, Tok::Slash); break;
          case '%': two('=', Tok::PercentEq, Tok::Percent); break;
          case '^': two('=', Tok::CaretEq, Tok::Caret); break;
          case '!': two('=', Tok::NotEq, Tok::Bang); break;
          case '=': two('=', Tok::EqEq, Tok::Assign); break;
          case '&':
            if (peek() == '&') {
                advance();
                t.kind = Tok::AmpAmp;
            } else {
                two('=', Tok::AmpEq, Tok::Amp);
            }
            break;
          case '|':
            if (peek() == '|') {
                advance();
                t.kind = Tok::PipePipe;
            } else {
                two('=', Tok::PipeEq, Tok::Pipe);
            }
            break;
          case '<':
            if (peek() == '<') {
                advance();
                two('=', Tok::ShlEq, Tok::Shl);
            } else {
                two('=', Tok::Le, Tok::Lt);
            }
            break;
          case '>':
            if (peek() == '>') {
                advance();
                two('=', Tok::ShrEq, Tok::Shr);
            } else {
                two('=', Tok::Ge, Tok::Gt);
            }
            break;
          default:
            err(strFormat("unexpected character '%c'", c));
        }
        return t;
    }

    const std::string &src_;
    size_t pos_ = 0;
    int line_ = 1;
    int col_ = 1;
};

} // namespace

std::vector<Token>
lex(const std::string &source)
{
    return LexerImpl(source).run();
}

} // namespace bitspec
