/**
 * @file
 * Tests for the minimal JSON parser (common/json.h).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace sgms
{
namespace
{

JsonValue
must_parse(const std::string &text)
{
    JsonValue v;
    EXPECT_TRUE(JsonValue::parse(text, v)) << text;
    return v;
}

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(must_parse("null").is_null());
    EXPECT_TRUE(must_parse("true").as_bool());
    EXPECT_FALSE(must_parse("false").as_bool(true));
    EXPECT_EQ(must_parse("42").as_u64(), 42u);
    EXPECT_EQ(must_parse("-7").as_i64(), -7);
    EXPECT_DOUBLE_EQ(must_parse("2.5e3").as_double(), 2500.0);
    EXPECT_EQ(must_parse("\"hi\"").as_string(), "hi");
}

TEST(Json, BigIntegersAreExact)
{
    // 2^53 + 1 is not representable as a double; the raw-token path
    // must keep it exact for tick counts.
    EXPECT_EQ(must_parse("9007199254740993").as_u64(),
              9007199254740993ull);
    EXPECT_EQ(must_parse("-9007199254740993").as_i64(),
              -9007199254740993ll);
    EXPECT_EQ(must_parse("9223372036854775807").as_i64(),
              INT64_MAX);
}

TEST(Json, WrongKindAccessFallsBack)
{
    JsonValue v = must_parse("\"text\"");
    EXPECT_EQ(v.as_u64(5), 5u);
    EXPECT_EQ(v.as_i64(-5), -5);
    EXPECT_DOUBLE_EQ(v.as_double(1.5), 1.5);
    EXPECT_FALSE(v.as_bool(false));
    EXPECT_EQ(must_parse("3").as_string(), "");
    // Negative numbers refuse the unsigned accessor.
    EXPECT_EQ(must_parse("-3").as_u64(99), 99u);
}

TEST(Json, ParsesNestedStructures)
{
    JsonValue v = must_parse(
        "{\"a\":[1,2,{\"b\":true}],\"c\":{\"d\":null},\"e\":-1}");
    ASSERT_TRUE(v.is_object());
    EXPECT_TRUE(v.has("a"));
    ASSERT_TRUE(v["a"].is_array());
    ASSERT_EQ(v["a"].size(), 3u);
    EXPECT_EQ(v["a"].items()[1].as_u64(), 2u);
    EXPECT_TRUE(v["a"].items()[2]["b"].as_bool());
    EXPECT_TRUE(v["c"]["d"].is_null());
    EXPECT_EQ(v.get_i64("e"), -1);
    // Missing members are null-kind sentinels, safely chainable.
    EXPECT_TRUE(v["missing"]["deeper"].is_null());
    EXPECT_EQ(v.get_u64("missing", 17), 17u);
}

TEST(Json, ParsesStringEscapes)
{
    JsonValue v = must_parse(
        "\"q\\\" b\\\\ s\\/ n\\n t\\t u\\u0041 c\\u0001\"");
    EXPECT_EQ(v.as_string(),
              std::string("q\" b\\ s/ n\n t\t u") + "A c\x01");
}

TEST(Json, ParsesUnicodeEscapes)
{
    EXPECT_EQ(must_parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
    EXPECT_EQ(must_parse("\"\\u20ac\"").as_string(),
              "\xe2\x82\xac");
}

TEST(Json, ToleratesWhitespace)
{
    JsonValue v = must_parse("  {\n\t\"a\" : [ 1 , 2 ]\r\n}  ");
    EXPECT_EQ(v["a"].size(), 2u);
}

TEST(Json, EmptyContainers)
{
    EXPECT_TRUE(must_parse("{}").is_object());
    EXPECT_EQ(must_parse("{}").members().size(), 0u);
    EXPECT_TRUE(must_parse("[]").is_array());
    EXPECT_EQ(must_parse("[]").size(), 0u);
}

TEST(Json, RejectsMalformedDocuments)
{
    for (const char *bad : {
             "",                    // empty
             "{",                   // unterminated object
             "[1,2",                // unterminated array
             "\"abc",               // unterminated string
             "{\"a\":}",            // missing value
             "{\"a\" 1}",           // missing colon
             "{a:1}",               // unquoted key
             "[1,]",                // trailing comma
             "truth",               // bad literal
             "nul",                 // bad literal
             "01x",                 // trailing garbage
             "1 2",                 // two documents
             "{} []",               // trailing document
             "\"\\q\"",             // unknown escape
             "\"\\u12g4\"",         // bad hex
             "\"\n\"",              // raw control char
             "+1",                  // leading plus
             "1.",                  // dangling fraction
             "1e",                  // dangling exponent
             "-",                   // bare minus
         }) {
        JsonValue v;
        EXPECT_FALSE(JsonValue::parse(bad, v)) << bad;
        EXPECT_TRUE(v.is_null()) << bad;
    }
}

TEST(Json, RejectsOverDeepNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    JsonValue v;
    EXPECT_FALSE(JsonValue::parse(deep, v));
    // ... but reasonable nesting is fine.
    std::string ok(40, '[');
    ok += std::string(40, ']');
    EXPECT_TRUE(JsonValue::parse(ok, v));
}

} // namespace
} // namespace sgms
