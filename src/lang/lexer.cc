#include "lang/lexer.h"

#include <cctype>
#include <cstdint>
#include <map>

#include "support/diag.h"

namespace ldx::lang {

const char *
tokName(Tok kind)
{
    switch (kind) {
      case Tok::End: return "<eof>";
      case Tok::Ident: return "identifier";
      case Tok::Number: return "number";
      case Tok::String: return "string";
      case Tok::CharLit: return "char";
      case Tok::KwInt: return "'int'";
      case Tok::KwChar: return "'char'";
      case Tok::KwFn: return "'fn'";
      case Tok::KwIf: return "'if'";
      case Tok::KwElse: return "'else'";
      case Tok::KwWhile: return "'while'";
      case Tok::KwFor: return "'for'";
      case Tok::KwDo: return "'do'";
      case Tok::KwBreak: return "'break'";
      case Tok::KwContinue: return "'continue'";
      case Tok::KwReturn: return "'return'";
      case Tok::LParen: return "'('";
      case Tok::RParen: return "')'";
      case Tok::LBrace: return "'{'";
      case Tok::RBrace: return "'}'";
      case Tok::LBracket: return "'['";
      case Tok::RBracket: return "']'";
      case Tok::Comma: return "','";
      case Tok::Semi: return "';'";
      case Tok::Assign: return "'='";
      case Tok::Plus: return "'+'";
      case Tok::Minus: return "'-'";
      case Tok::Star: return "'*'";
      case Tok::Slash: return "'/'";
      case Tok::Percent: return "'%'";
      case Tok::Amp: return "'&'";
      case Tok::Pipe: return "'|'";
      case Tok::Caret: return "'^'";
      case Tok::Tilde: return "'~'";
      case Tok::Bang: return "'!'";
      case Tok::Shl: return "'<<'";
      case Tok::Shr: return "'>>'";
      case Tok::AndAnd: return "'&&'";
      case Tok::OrOr: return "'||'";
      case Tok::Eq: return "'=='";
      case Tok::Ne: return "'!='";
      case Tok::Lt: return "'<'";
      case Tok::Le: return "'<='";
      case Tok::Gt: return "'>'";
      case Tok::Ge: return "'>='";
    }
    return "?";
}

namespace {

const std::map<std::string, Tok> kKeywords = {
    {"int", Tok::KwInt},     {"char", Tok::KwChar},
    {"fn", Tok::KwFn},       {"if", Tok::KwIf},
    {"else", Tok::KwElse},   {"while", Tok::KwWhile},
    {"for", Tok::KwFor},     {"do", Tok::KwDo},
    {"break", Tok::KwBreak}, {"continue", Tok::KwContinue},
    {"return", Tok::KwReturn},
};

[[noreturn]] void
lexError(int line, int col, const std::string &msg)
{
    fatal("lex error at " + std::to_string(line) + ":" +
          std::to_string(col) + ": " + msg);
}

char
decodeEscape(char c, int line, int col)
{
    switch (c) {
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case '0': return '\0';
      case '\\': return '\\';
      case '\'': return '\'';
      case '"': return '"';
      default:
        lexError(line, col, std::string("bad escape '\\") + c + "'");
    }
}

} // namespace

std::vector<Token>
lex(const std::string &src)
{
    std::vector<Token> out;
    std::size_t i = 0;
    int line = 1, col = 1;

    auto peek = [&](std::size_t k = 0) -> char {
        return i + k < src.size() ? src[i + k] : '\0';
    };
    auto advance = [&]() {
        if (src[i] == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
        ++i;
    };
    auto push = [&](Tok kind, int l, int c) -> Token & {
        Token t;
        t.kind = kind;
        t.line = l;
        t.col = c;
        out.push_back(std::move(t));
        return out.back();
    };

    while (i < src.size()) {
        char c = peek();
        int l = line, cl = col;
        if (std::isspace(static_cast<unsigned char>(c))) {
            advance();
            continue;
        }
        if (c == '/' && peek(1) == '/') {
            while (i < src.size() && peek() != '\n')
                advance();
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            advance();
            advance();
            while (i < src.size() && !(peek() == '*' && peek(1) == '/'))
                advance();
            if (i >= src.size())
                lexError(l, cl, "unterminated block comment");
            advance();
            advance();
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::string text;
            while (std::isalnum(static_cast<unsigned char>(peek())) ||
                   peek() == '_') {
                text += peek();
                advance();
            }
            auto kw = kKeywords.find(text);
            Token &t = push(kw == kKeywords.end() ? Tok::Ident
                                                  : kw->second, l, cl);
            t.text = std::move(text);
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            // Literals up to UINT64_MAX wrap to two's complement (so
            // -9223372036854775808 is INT64_MIN); wider ones are
            // rejected rather than overflowing.
            std::uint64_t v = 0;
            bool overflow = false;
            auto accumulate = [&](std::uint64_t base, int d) {
                overflow |= __builtin_mul_overflow(v, base, &v) ||
                            __builtin_add_overflow(
                                v, static_cast<std::uint64_t>(d), &v);
            };
            if (c == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
                advance();
                advance();
                if (!std::isxdigit(static_cast<unsigned char>(peek())))
                    lexError(l, cl, "bad hex literal");
                while (std::isxdigit(static_cast<unsigned char>(peek()))) {
                    char h = peek();
                    int d = h <= '9' ? h - '0'
                                     : (std::tolower(h) - 'a' + 10);
                    accumulate(16, d);
                    advance();
                }
            } else {
                while (std::isdigit(static_cast<unsigned char>(peek()))) {
                    accumulate(10, peek() - '0');
                    advance();
                }
            }
            if (overflow)
                lexError(l, cl, "integer literal out of range");
            Token &t = push(Tok::Number, l, cl);
            t.value = static_cast<std::int64_t>(v);
            continue;
        }
        if (c == '"') {
            advance();
            std::string s;
            while (peek() != '"') {
                if (i >= src.size() || peek() == '\n')
                    lexError(l, cl, "unterminated string");
                if (peek() == '\\') {
                    advance();
                    s += decodeEscape(peek(), line, col);
                    advance();
                } else {
                    s += peek();
                    advance();
                }
            }
            advance();
            Token &t = push(Tok::String, l, cl);
            t.str = std::move(s);
            continue;
        }
        if (c == '\'') {
            advance();
            char v;
            if (peek() == '\\') {
                advance();
                v = decodeEscape(peek(), line, col);
                advance();
            } else {
                v = peek();
                advance();
            }
            if (peek() != '\'')
                lexError(l, cl, "unterminated char literal");
            advance();
            Token &t = push(Tok::CharLit, l, cl);
            t.value = static_cast<std::int64_t>(
                static_cast<unsigned char>(v));
            continue;
        }
        auto two = [&](char c2, Tok kind) -> bool {
            if (peek(1) == c2) {
                advance();
                advance();
                push(kind, l, cl);
                return true;
            }
            return false;
        };
        switch (c) {
          case '(': advance(); push(Tok::LParen, l, cl); break;
          case ')': advance(); push(Tok::RParen, l, cl); break;
          case '{': advance(); push(Tok::LBrace, l, cl); break;
          case '}': advance(); push(Tok::RBrace, l, cl); break;
          case '[': advance(); push(Tok::LBracket, l, cl); break;
          case ']': advance(); push(Tok::RBracket, l, cl); break;
          case ',': advance(); push(Tok::Comma, l, cl); break;
          case ';': advance(); push(Tok::Semi, l, cl); break;
          case '+': advance(); push(Tok::Plus, l, cl); break;
          case '-': advance(); push(Tok::Minus, l, cl); break;
          case '*': advance(); push(Tok::Star, l, cl); break;
          case '/': advance(); push(Tok::Slash, l, cl); break;
          case '%': advance(); push(Tok::Percent, l, cl); break;
          case '~': advance(); push(Tok::Tilde, l, cl); break;
          case '^': advance(); push(Tok::Caret, l, cl); break;
          case '&':
            if (!two('&', Tok::AndAnd)) {
                advance();
                push(Tok::Amp, l, cl);
            }
            break;
          case '|':
            if (!two('|', Tok::OrOr)) {
                advance();
                push(Tok::Pipe, l, cl);
            }
            break;
          case '=':
            if (!two('=', Tok::Eq)) {
                advance();
                push(Tok::Assign, l, cl);
            }
            break;
          case '!':
            if (!two('=', Tok::Ne)) {
                advance();
                push(Tok::Bang, l, cl);
            }
            break;
          case '<':
            if (!two('=', Tok::Le) && !two('<', Tok::Shl)) {
                advance();
                push(Tok::Lt, l, cl);
            }
            break;
          case '>':
            if (!two('=', Tok::Ge) && !two('>', Tok::Shr)) {
                advance();
                push(Tok::Gt, l, cl);
            }
            break;
          default:
            lexError(l, cl, std::string("unexpected character '") + c +
                            "'");
        }
    }
    push(Tok::End, line, col);
    return out;
}

} // namespace ldx::lang
