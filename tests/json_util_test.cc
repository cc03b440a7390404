// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the minimal JSON parser / writer helpers (util/json.h) that
// back the observability outputs.

#include "util/json.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace monoclass {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_TRUE(JsonValue::Parse("true")->AsBool());
  EXPECT_FALSE(JsonValue::Parse("false")->AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("3.25")->AsNumber(), 3.25);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-17")->AsNumber(), -17.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3")->AsNumber(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(JsonValue::Parse(R"("a\"b\\c\/d\n\t")")->AsString(),
            "a\"b\\c/d\n\t");
  // \u0041 = 'A'; \u00e9 = e-acute in UTF-8.
  EXPECT_EQ(JsonValue::Parse(R"("\u0041")")->AsString(), "A");
  EXPECT_EQ(JsonValue::Parse(R"("\u00e9")")->AsString(), "\xc3\xa9");
}

TEST(JsonParseTest, ArraysAndObjects) {
  const auto doc = JsonValue::Parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsNumber(), 2.0);
  const JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->Find("c"), nullptr);
  EXPECT_TRUE(b->Find("c")->AsBool());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonParseTest, MalformedInputsRejectedWithError) {
  for (const char* bad :
       {"", "{", "[1,", "\"unterminated", "{\"a\":}", "tru", "1 2",
        "{\"a\" 1}", "[1 2]", "\"\\x\"", "nan"}) {
    std::string error;
    EXPECT_FALSE(JsonValue::Parse(bad, &error).has_value())
        << "input: " << bad;
    EXPECT_FALSE(error.empty()) << "input: " << bad;
  }
}

TEST(JsonParseTest, TrailingGarbageRejected) {
  EXPECT_FALSE(JsonValue::Parse("{} extra").has_value());
  EXPECT_TRUE(JsonValue::Parse("{}  \n\t ").has_value());
}

TEST(JsonParseTest, NestedRoundTrip) {
  const std::string text =
      R"({"phases":[{"name":"a","wall_ms":1.5},{"name":"b","wall_ms":0}]})";
  const auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value());
  const auto& phases = doc->Find("phases")->AsArray();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].Find("name")->AsString(), "a");
  EXPECT_DOUBLE_EQ(phases[1].Find("wall_ms")->AsNumber(), 0.0);
}

TEST(JsonEscapeTest, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonEscapeTest, EscapedStringsParseBack) {
  const std::string nasty = "quote\" slash\\ newline\n tab\t bell\x07 done";
  // Appended, not chained with operator+ (gcc 12 false -Wrestrict).
  std::string doc = "\"";
  doc += JsonEscape(nasty);
  doc += "\"";
  const auto parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), nasty);
}

TEST(JsonNumberTest, FiniteAndNonFinite) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_DOUBLE_EQ(JsonValue::Parse(JsonNumber(1.0 / 3.0))->AsNumber(),
                   1.0 / 3.0);
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

TEST(JsonValueTest, MakeConstructors) {
  const JsonValue value = JsonValue::MakeObject(
      {{"n", JsonValue::MakeNumber(4.0)},
       {"tags", JsonValue::MakeArray({JsonValue::MakeString("x")})}});
  EXPECT_DOUBLE_EQ(value.Find("n")->AsNumber(), 4.0);
  EXPECT_EQ(value.Find("tags")->AsArray()[0].AsString(), "x");
}

}  // namespace
}  // namespace monoclass
