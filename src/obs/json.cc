#include "obs/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace bitspec::json
{

namespace
{

void
skipSpace(const std::string &t, size_t &i)
{
    while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
        ++i;
}

/** Index just past `"key":<open>` at or after @p from, or npos. */
size_t
valueStart(const std::string &t, const std::string &key, size_t from = 0,
           const char *open = "")
{
    const std::string pat = "\"" + key + "\":" + open;
    size_t at = t.find(pat, from);
    return at == std::string::npos ? at : at + pat.size();
}

/** Unescape the string token whose opening quote is at @p i; on
 *  success @p i moves past the closing quote. `\uXXXX` is accepted
 *  for ASCII only, which covers every escape escape() writes. */
std::optional<std::string>
readString(const std::string &t, size_t &i)
{
    if (i >= t.size() || t[i] != '"')
        return std::nullopt;
    std::string out;
    for (size_t j = i + 1; j < t.size(); ++j) {
        if (t[j] == '"') {
            i = j + 1;
            return out;
        }
        if (t[j] != '\\') {
            out += t[j];
            continue;
        }
        if (++j == t.size())
            break;
        switch (t[j]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            const std::string hex = t.substr(j + 1, 4);
            char *end = nullptr;
            unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
            if (hex.size() != 4 || end != hex.c_str() + 4 || cp >= 0x80)
                return std::nullopt;
            out += static_cast<char>(cp);
            j += 4;
            break;
          }
          default: out += t[j]; // \" \\ \/
        }
    }
    return std::nullopt;
}

std::optional<double>
readNumber(const std::string &t, size_t &i)
{
    const char *p = t.c_str() + i;
    char *end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p)
        return std::nullopt;
    i += static_cast<size_t>(end - p);
    return v;
}

/** Index of the `}` matching the `{` at @p open, skipping string
 *  contents; npos when unbalanced. */
size_t
matchBrace(const std::string &s, size_t open)
{
    int depth = 0;
    bool in_string = false;
    for (size_t i = open; i < s.size(); ++i) {
        if (in_string) {
            if (s[i] == '\\')
                ++i;
            else if (s[i] == '"')
                in_string = false;
        } else if (s[i] == '"') {
            in_string = true;
        } else if (s[i] == '{') {
            ++depth;
        } else if (s[i] == '}' && --depth == 0) {
            return i;
        }
    }
    return std::string::npos;
}

/** The one flat-object scanner: the members of `"key":{...}`, each
 *  value read by @p read_value. */
template <typename V, typename Read>
std::optional<std::vector<std::pair<std::string, V>>>
members(const std::string &t, const std::string &key, Read read_value)
{
    size_t i = valueStart(t, key, 0, "{");
    if (i == std::string::npos)
        return std::nullopt;
    std::vector<std::pair<std::string, V>> out;
    skipSpace(t, i);
    if (i < t.size() && t[i] == '}')
        return out;
    while (true) {
        skipSpace(t, i);
        auto name = readString(t, i);
        skipSpace(t, i);
        if (!name || i >= t.size() || t[i++] != ':')
            return std::nullopt;
        skipSpace(t, i);
        std::optional<V> value = read_value(t, i);
        skipSpace(t, i);
        if (!value || i >= t.size())
            return std::nullopt;
        out.emplace_back(std::move(*name), std::move(*value));
        if (t[i] == '}')
            return out;
        if (t[i++] != ',')
            return std::nullopt;
    }
}

} // namespace

void
escape(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

std::string
number(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

Writer &
Writer::str(std::string_view s)
{
    raw("\"");
    escape(out_, s);
    out_ += '"';
    return *this;
}

Writer &
Writer::raw(std::string_view text)
{
    // The comma rule: none at the start, after an opening bracket or
    // after a key's colon.
    if (!out_.empty() && out_.back() != '{' && out_.back() != '[' &&
        out_.back() != ':')
        out_ += ',';
    out_ += text;
    return *this;
}

std::optional<double>
numberAfter(const std::string &text, const std::string &key, size_t from)
{
    size_t i = valueStart(text, key, from);
    if (i == std::string::npos)
        return std::nullopt;
    return readNumber(text, i);
}

std::optional<uint64_t>
u64After(const std::string &text, const std::string &key, size_t from)
{
    size_t i = valueStart(text, key, from);
    if (i == std::string::npos)
        return std::nullopt;
    const char *p = text.c_str() + i;
    char *end = nullptr;
    uint64_t v = std::strtoull(p, &end, 10);
    if (end == p)
        return std::nullopt;
    return v;
}

std::optional<std::string>
stringAfter(const std::string &text, const std::string &key, size_t from)
{
    size_t i = valueStart(text, key, from);
    if (i == std::string::npos)
        return std::nullopt;
    skipSpace(text, i);
    return readString(text, i);
}

std::optional<std::vector<std::pair<std::string, double>>>
numberMembers(const std::string &text, const std::string &key)
{
    return members<double>(text, key, readNumber);
}

std::optional<std::vector<std::pair<std::string, std::string>>>
stringMembers(const std::string &text, const std::string &key)
{
    return members<std::string>(text, key, readString);
}

std::vector<std::string>
arrayObjects(const std::string &text, const std::string &key)
{
    std::vector<std::string> out;
    size_t i = valueStart(text, key, 0, "[");
    while (i != std::string::npos) {
        skipSpace(text, i);
        size_t close = i < text.size() && text[i] == '{'
                           ? matchBrace(text, i)
                           : std::string::npos;
        if (close == std::string::npos)
            break;
        out.push_back(text.substr(i, close - i + 1));
        i = close + 1;
        skipSpace(text, i);
        i = i < text.size() && text[i] == ',' ? i + 1 : std::string::npos;
    }
    return out;
}

bool
isWholeObject(const std::string &line)
{
    const char *space = " \t\r\n";
    size_t open = line.find_first_not_of(space);
    if (open == std::string::npos || line[open] != '{')
        return false;
    size_t close = matchBrace(line, open);
    return close != std::string::npos &&
           line.find_first_not_of(space, close + 1) == std::string::npos;
}

} // namespace bitspec::json
