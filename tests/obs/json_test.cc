/**
 * @file
 * The obs/ JSON codec: escaping (including control characters), the
 * exact number form, the unescaping key scanners, the flat-object and
 * array scanners and the whole-object check the ledger and trajectory
 * loaders reject torn lines with.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "obs/json.h"

namespace bitspec
{
namespace
{

/** @p s as escape() writes it. */
std::string
escaped(const std::string &s)
{
    std::string out;
    json::escape(out, s);
    return out;
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(escaped("plain"), "plain");
    EXPECT_EQ(escaped("say \"hi\" \\"), "say \\\"hi\\\" \\\\");
    EXPECT_EQ(escaped("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(escaped(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
    EXPECT_EQ(escaped("\xc3\xa9"), "\xc3\xa9"); // UTF-8 passes.
}

TEST(Json, StringScannerUndoesEveryEscape)
{
    const char raw[] = "q\"b\\n\nt\tr\rc\x01\x1f/";
    const std::string value(raw, sizeof raw - 1);
    const std::string text = "{\"k\":\"" + escaped(value) + "\"}";
    EXPECT_EQ(json::stringAfter(text, "k"), value);
    EXPECT_EQ(json::stringAfter("{\"k\":\"\\u0041\\/\"}", "k"), "A/");
    // Only ASCII \u escapes: escape() never writes any other kind.
    EXPECT_FALSE(json::stringAfter("{\"k\":\"\\u00e9\"}", "k").has_value());
    EXPECT_FALSE(json::stringAfter("{\"k\":\"torn", "k").has_value());
    EXPECT_FALSE(json::stringAfter("{\"k\":\"\\u12", "k").has_value());
    EXPECT_FALSE(json::stringAfter("{\"other\":\"x\"}", "k").has_value());
}

TEST(Json, NumbersRoundTripExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 1e300, -2.5e-300, 123456789.0}) {
        const std::string text = "{\"v\":" + json::number(v) + "}";
        auto back = json::numberAfter(text, "v");
        ASSERT_TRUE(back.has_value()) << text;
        EXPECT_EQ(*back, v) << text;
    }
    EXPECT_EQ(json::number(8), "8");
    EXPECT_EQ(json::numberAfter("{\"v\": 2.5}", "v"), 2.5);
    EXPECT_EQ(json::u64After("{\"s\":18446744073709551615}", "s"),
              0xFFFFFFFFFFFFFFFFull);
    EXPECT_FALSE(json::numberAfter("{\"v\":\"x\"}", "v").has_value());
    // Scans start at the given offset.
    const std::string two = "{\"v\":1,\"w\":{\"v\":2}}";
    EXPECT_EQ(json::numberAfter(two, "v", two.find("\"w\"")), 2.0);
}

TEST(Json, FlatObjectScanners)
{
    const std::string text =
        "{\"n\":{\"a.b\":1.5,\"c\":-2},\"s\":{\"K\":\"v\\n1\",\"L\":\"\"},"
        "\"e\":{}}";
    auto nums = json::numberMembers(text, "n");
    ASSERT_TRUE(nums.has_value());
    ASSERT_EQ(nums->size(), 2u);
    EXPECT_EQ((*nums)[0].first, "a.b");
    EXPECT_EQ((*nums)[0].second, 1.5);
    EXPECT_EQ((*nums)[1].second, -2.0);

    auto strs = json::stringMembers(text, "s");
    ASSERT_TRUE(strs.has_value());
    ASSERT_EQ(strs->size(), 2u);
    EXPECT_EQ((*strs)[0].second, "v\n1");
    EXPECT_EQ((*strs)[1].second, "");

    EXPECT_TRUE(json::numberMembers(text, "e")->empty());
    EXPECT_FALSE(json::numberMembers(text, "missing").has_value());
    EXPECT_FALSE(json::numberMembers(text, "s").has_value());
    EXPECT_FALSE(json::stringMembers(text, "n").has_value());
    EXPECT_FALSE(json::numberMembers("{\"n\":{\"a\":1,", "n").has_value());
}

TEST(Json, ArrayObjectsSplitsElements)
{
    const std::string text =
        "{\"rows\":[{\"f\":\"}\",\"x\":1},{\"x\":2}],\"after\":{}}";
    auto rows = json::arrayObjects(text, "rows");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], "{\"f\":\"}\",\"x\":1}");
    EXPECT_EQ(rows[1], "{\"x\":2}");
    EXPECT_TRUE(json::arrayObjects("{\"rows\":[]}", "rows").empty());
    EXPECT_EQ(json::arrayObjects("{\"rows\":[{\"x\":1},{\"x\"", "rows")
                  .size(),
              1u);
}

TEST(Json, WriterPlacesCommasFromContext)
{
    json::Writer w;
    w.open('{').key("a").u64(1).key("b").open('[');
    w.open('{').close('}').open('{').key("s").str("x\"y").close('}');
    w.num(0.5).raw("true").close(']').key("e").open('{').close('}');
    w.key("k\n").str("");
    EXPECT_EQ(w.close('}').text(),
              "{\"a\":1,\"b\":[{},{\"s\":\"x\\\"y\"},0.5,true],"
              "\"e\":{},\"k\\n\":\"\"}");
}

TEST(Json, WholeObjectRejectsEveryProperPrefix)
{
    const std::string line =
        "{\"a\":{\"b\":\"}\\\"{\"},\"c\":[{\"d\":1}],\"e\":{}}";
    EXPECT_TRUE(json::isWholeObject(line));
    EXPECT_TRUE(json::isWholeObject("  " + line + " \r\n"));
    for (size_t n = 0; n < line.size(); ++n)
        EXPECT_FALSE(json::isWholeObject(line.substr(0, n))) << n;
    EXPECT_FALSE(json::isWholeObject(line + "{"));
    EXPECT_FALSE(json::isWholeObject(line + line));
    EXPECT_FALSE(json::isWholeObject("[1]"));
    EXPECT_FALSE(json::isWholeObject(""));
}

} // namespace
} // namespace bitspec
