#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"

namespace dexa {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status status = Status::NotFound("no such thing");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NotFound: no such thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::InvalidArgument("bad");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(result.ValueOr(7), 7);
}

Result<int> Doubled(Result<int> in) {
  DEXA_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_TRUE(Doubled(Status::NotFound("x")).status().IsNotFound());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ForkIndependentStreams) {
  Rng base(5);
  Rng fork1 = base.Fork(1);
  Rng fork2 = base.Fork(2);
  EXPECT_NE(fork1.Next(), fork2.Next());
  // Forking is stable: same tag twice yields the same stream.
  Rng fork1_again = base.Fork(1);
  Rng fork1_b = Rng(5).Fork(1);
  EXPECT_EQ(fork1_again.Next(), fork1_b.Next());
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  rng.Shuffle(v);
  std::set<int> elements(v.begin(), v.end());
  EXPECT_EQ(elements.size(), 8u);
}

TEST(RngTest, StableHashIsStable) {
  EXPECT_EQ(StableHash64("abc"), StableHash64("abc"));
  EXPECT_NE(StableHash64("abc"), StableHash64("abd"));
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitLinesHandlesCrLf) {
  EXPECT_EQ(SplitLines("a\nb\r\nc"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitLines("x\n"), (std::vector<std::string>{"x"}));
}

// LineReader and SplitLines agree on every edge case: "\n" and "\r\n" end
// a line, a '\r' ending an unterminated last line stays, and a final
// terminator is followed by no empty line.
TEST(StringsTest, LineReaderSplitsEdgeCasesLikeSplitLines) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {
          {"", {}},
          {"a", {"a"}},
          {"a\n", {"a"}},
          {"a\r\n", {"a"}},
          {"a\r", {"a\r"}},  // An unterminated last line keeps its '\r'.
          {"\n\n", {"", ""}},
          {"a\n\nb\r\n", {"a", "", "b"}},
          {"\r\n", {""}},
          {"a\r\r\n", {"a\r"}},  // Only the '\r' before the '\n' goes.
      };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(SplitLines(text), expected) << "'" << text << "'";
    std::vector<std::string> read;
    LineReader lines(text);
    for (std::string_view line; lines.Next(&line);) {
      // Each line is a view into the text, not a copy.
      EXPECT_GE(line.data(), text.data());
      EXPECT_LE(line.data() + line.size(), text.data() + text.size());
      read.emplace_back(line);
    }
    EXPECT_EQ(read, expected) << "'" << text << "'";
    std::string_view past_end;
    EXPECT_FALSE(lines.Next(&past_end));
  }
}

TEST(StringsTest, JoinAndTrim) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Trim("  x \t\n"), "x");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, PrefixSuffixContains) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_TRUE(Contains("hello", "ell"));
  EXPECT_FALSE(Contains("hello", "xyz"));
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToUpper("AcGt"), "ACGT");
  EXPECT_EQ(ToLower("AcGt"), "acgt");
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aXbXc", "X", "yy"), "ayybyyc");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringsTest, ZeroPad) {
  EXPECT_EQ(ZeroPad(42, 5), "00042");
  EXPECT_EQ(ZeroPad(123456, 3), "123456");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringsTest, WrapFixed) {
  EXPECT_EQ(WrapFixed("abcdef", 4),
            (std::vector<std::string>{"abcd", "ef"}));
  EXPECT_EQ(WrapFixed("", 4), (std::vector<std::string>{""}));
}

TEST(StringsTest, ParseNumbers) {
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64("  -42 ", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64("12x", &i));
  double d = 0;
  EXPECT_TRUE(ParseDouble("2.5e3", &d));
  EXPECT_DOUBLE_EQ(d, 2500.0);
  EXPECT_FALSE(ParseDouble("abc", &d));
}

TEST(StringsTest, ParseU64IsStrictAndOverflowChecked) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseU64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  // Rejected inputs leave the output untouched.
  for (const char* bad : {"18446744073709551616", "184467440737095516150", "",
                          "-1", "+1", " 1", "1 ", "12x", "0x1"}) {
    EXPECT_FALSE(ParseU64(bad, &v)) << "accepted '" << bad << "'";
    EXPECT_EQ(v, UINT64_MAX);
  }
}

TEST(JsonTest, EscaperSpellsEveryControlByteQuoteAndBackslash) {
  const char* const kExpected[32] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005",
      "\\u0006", "\\u0007", "\\u0008", "\\t",     "\\n",     "\\u000b",
      "\\u000c", "\\r",     "\\u000e", "\\u000f", "\\u0010", "\\u0011",
      "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
      "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
      "\\u001e", "\\u001f"};
  for (int byte = 0; byte < 32; ++byte) {
    std::string out;
    AppendJsonString(out, std::string(1, static_cast<char>(byte)));
    EXPECT_EQ(out, "\"" + std::string(kExpected[byte]) + "\"") << byte;
  }
  std::string out = "x=";
  AppendJsonString(out, "a\"b\\c");
  EXPECT_EQ(out, "x=\"a\\\"b\\\\c\"");  // Appends; never clears.

  // 0x7F, '/' and non-ASCII bytes pass through as is.
  out.clear();
  AppendJsonString(out, "/\x7f\xc3\xa9");
  EXPECT_EQ(out, "\"/\x7f\xc3\xa9\"");
}

TEST(JsonTest, ParsesDocumentsInOrderWithNumbersAsText) {
  auto doc = ParseJson(
      " {\"b\": [1, -20, 18446744073709551616], \"a\": {\"t\": true,"
      " \"f\": false, \"n\": null}, \"s\": \"q\\\"\\\\\\/\\n\\r\\t\\u0041"
      "\\u007f\\u0000\\u001F\xc3\xa9\", \"b\": \"again\"}\r\n");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc->object.size(), 4u);
  EXPECT_EQ(doc->object[0].first, "b");
  EXPECT_EQ(doc->object[1].first, "a");
  EXPECT_EQ(doc->object[3].first, "b");  // Duplicates kept, in order.
  const JsonValue* numbers = doc->Find("b");
  ASSERT_NE(numbers, nullptr);
  ASSERT_EQ(numbers->array.size(), 3u);
  EXPECT_EQ(numbers->array[0].kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(numbers->array[0].text, "1");
  EXPECT_EQ(numbers->array[1].text, "-20");
  EXPECT_EQ(numbers->array[2].text, "18446744073709551616");
  const JsonValue* inner = doc->Find("a");
  EXPECT_TRUE(inner->Find("t")->boolean);
  EXPECT_EQ(inner->Find("f")->kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(inner->Find("f")->boolean);
  EXPECT_EQ(inner->Find("n")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(inner->Find("missing"), nullptr);
  EXPECT_EQ(doc->Find("s")->text,
            std::string("q\"\\/\n\r\tA\x7f") + '\0' + "\x1f\xc3\xa9");

  // Every byte the escaper writes reads back unchanged.
  std::string all;
  for (int byte = 0; byte < 256; ++byte) all += static_cast<char>(byte);
  std::string encoded;
  AppendJsonString(encoded, all);
  auto decoded = ParseJson(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->text, all);
}

TEST(JsonTest, EnforcesEachRuleOfTheGrammar) {
  const std::string deepest =
      std::string(kMaxNestingDepth, '[') + std::string(kMaxNestingDepth, ']');
  const std::string too_deep = "[" + deepest + "]";
  const std::string deepest_objects = [] {
    std::string doc;
    for (int i = 0; i < kMaxNestingDepth; ++i) doc += "{\"k\":";
    doc += "1";
    for (int i = 0; i < kMaxNestingDepth; ++i) doc += "}";
    return doc;
  }();
  struct Case {
    std::string text;
    bool ok;
  };
  const std::vector<Case> cases = {
      // Depth cap: kMaxNestingDepth open containers parse, one more fails.
      {deepest, true},
      {deepest_objects, true},
      {too_deep, false},
      {"{\"k\":" + deepest_objects + "}", false},
      // Raw control bytes: fine between tokens, never inside a string.
      {"\"a\x01\"", false},
      {"\"a\nb\"", false},
      {std::string("\"\0\"", 3), false},
      {"\t[\n1\r,2 ]\n", true},
      // \u escapes: 0000 to 007F in either case of hex digit, nothing wider.
      {"\"\\u007F\\u007f\\u0000\"", true},
      {"\"\\u0080\"", false},
      {"\"\\u00e9\"", false},
      {"\"\\u12\"", false},
      {"\"\\u00g0\"", false},
      {"\"\\b\"", false},
      {"\"\\x41\"", false},
      // Numbers are -?digits.
      {"-0", true},
      {"1.5", false},
      {"1e3", false},
      {"+1", false},
      {"-", false},
      {"[1,-]", false},
      // Trailing bytes and unterminated input.
      {"{} {}", false},
      {"1 x", false},
      {"truex", false},
      {"\"abc", false},
      {"\"abc\\", false},
      {"\"abc\\\"", false},
      {"[1,2", false},
      {"{\"a\":1", false},
      // Structure.
      {"", false},
      {"   ", false},
      {"[1,]", false},
      {"{\"a\":1,}", false},
      {"{a:1}", false},
      {"{\"a\" 1}", false},
      {"[1 2]", false},
      {"nul", false},
      {"True", false},
  };
  for (const Case& c : cases) {
    auto parsed = ParseJson(c.text);
    EXPECT_EQ(parsed.ok(), c.ok) << "'" << c.text << "': " << parsed.status();
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status();
    }
  }
}

TEST(TableTest, RendersAlignedTable) {
  TablePrinter table({"name", "count"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::string rendered = table.ToString("Title");
  EXPECT_NE(rendered.find("Title"), std::string::npos);
  EXPECT_NE(rendered.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(rendered.find("| b     | 22    |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(0.4666, 2), "0.47");
  EXPECT_EQ(FormatFixed(93.651, 2), "93.65");
}

TEST(TableTest, Bar) {
  EXPECT_EQ(Bar(0, 10, 10), "");
  EXPECT_EQ(Bar(10, 10, 10).size(), 10u);
  EXPECT_GE(Bar(1, 10, 10).size(), 1u);
}

}  // namespace
}  // namespace dexa
