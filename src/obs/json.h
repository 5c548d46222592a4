/**
 * @file
 * The one JSON codec of obs/ (DESIGN.md "Telemetry field tables &
 * JSON codec"). flightrec.cc (signal-safe, no allocation) and the
 * human-readable numbers of metrics.cc stay outside it on purpose.
 *
 * The scanners are not a general parser: they find `"key":` by text
 * search, which is exact for records this codec wrote, since escaping
 * keeps a key pattern from occurring inside a string value.
 */

#ifndef BITSPEC_OBS_JSON_H_
#define BITSPEC_OBS_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bitspec::json
{

/** Append @p s to @p out as the contents of a JSON string: `"` and
 *  `\` are backslash-escaped, \n \t \r by name, and every other
 *  control character as \u00XX, so a record always stays one line. */
void escape(std::string &out, std::string_view s);

/** %.17g: enough digits that parsing the text yields the same double
 *  bit-for-bit, which exact ledger reconciliation relies on. */
std::string number(double v);

/**
 * Builds one compact JSON text. Every item but the first of an object
 * or array, and every value right after its key, gets a comma in
 * front; the rule reads the last character written, so values never
 * need to track their position.
 */
class Writer
{
  public:
    /** `{` or `[`. */
    Writer &open(char bracket) { return raw(std::string_view(&bracket, 1)); }
    /** `}` or `]`. */
    Writer &
    close(char bracket)
    {
        out_ += bracket;
        return *this;
    }
    /** `"k":`; the value follows. */
    Writer &
    key(std::string_view k)
    {
        str(k).out_ += ':';
        return *this;
    }
    /** A quoted, escaped string. */
    Writer &str(std::string_view s);
    /** @p text verbatim: a number, true or false. */
    Writer &raw(std::string_view text);
    Writer &num(double v) { return raw(number(v)); }
    Writer &u64(uint64_t v) { return raw(std::to_string(v)); }

    const std::string &text() const { return out_; }

  private:
    std::string out_;
};

/** Value of `"key":<number>` at or after @p from; nullopt when the
 *  key is absent or not followed by a number. Whitespace after the
 *  colon is allowed (google-benchmark output has it). */
std::optional<double> numberAfter(const std::string &text,
                                  const std::string &key,
                                  size_t from = 0);

/** numberAfter for unsigned integers, exact over the full 64 bits. */
std::optional<uint64_t> u64After(const std::string &text,
                                 const std::string &key,
                                 size_t from = 0);

/** Unescaped value of `"key":"<string>"` at or after @p from; nullopt
 *  when absent or unterminated. */
std::optional<std::string> stringAfter(const std::string &text,
                                       const std::string &key,
                                       size_t from = 0);

/** Members of the flat object `"key":{"name":<number>,...}`; nullopt
 *  when the object is absent, torn or holds a non-number. */
std::optional<std::vector<std::pair<std::string, double>>>
numberMembers(const std::string &text, const std::string &key);

/** Members of the flat object `"key":{"name":"<string>",...}`,
 *  unescaped; nullopt when absent, torn or holding a non-string. */
std::optional<std::vector<std::pair<std::string, std::string>>>
stringMembers(const std::string &text, const std::string &key);

/** The `{...}` elements of the array `"key":[...]`, each as its own
 *  text; stops at the first unbalanced element. */
std::vector<std::string> arrayObjects(const std::string &text,
                                      const std::string &key);

/** True when @p line, ignoring surrounding whitespace, is exactly one
 *  balanced `{...}` object (braces inside strings do not count). Every
 *  proper prefix of such a line fails, so this rejects torn tails. */
bool isWholeObject(const std::string &line);

} // namespace bitspec::json

#endif // BITSPEC_OBS_JSON_H_
