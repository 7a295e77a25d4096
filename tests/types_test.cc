#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "types/structural_type.h"
#include "types/value.h"

namespace dexa {
namespace {

TEST(StructuralTypeTest, PrimitivesAndToString) {
  EXPECT_EQ(StructuralType::String().ToString(), "String");
  EXPECT_EQ(StructuralType::Integer().ToString(), "Integer");
  EXPECT_EQ(StructuralType::Double().ToString(), "Double");
  EXPECT_EQ(StructuralType::Boolean().ToString(), "Boolean");
  EXPECT_TRUE(StructuralType::String().is_primitive());
}

TEST(StructuralTypeTest, ListAndRecord) {
  StructuralType list = StructuralType::List(StructuralType::String());
  EXPECT_EQ(list.ToString(), "List<String>");
  EXPECT_EQ(list.element(), StructuralType::String());
  StructuralType record = StructuralType::Record(
      {{"id", StructuralType::String()}, {"mass", StructuralType::Double()}});
  EXPECT_EQ(record.ToString(), "Record{id:String, mass:Double}");
  EXPECT_EQ(record.fields().size(), 2u);
  EXPECT_FALSE(record.is_primitive());
}

TEST(StructuralTypeTest, Equality) {
  EXPECT_EQ(StructuralType::String(), StructuralType::String());
  EXPECT_NE(StructuralType::String(), StructuralType::Integer());
  EXPECT_EQ(StructuralType::List(StructuralType::Double()),
            StructuralType::List(StructuralType::Double()));
  EXPECT_NE(StructuralType::List(StructuralType::Double()),
            StructuralType::List(StructuralType::String()));
  EXPECT_TRUE(StructuralType::String().IsCompatibleWith(
      StructuralType::String()));
}

TEST(ValueTest, Scalars) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
}

TEST(ValueTest, ListsAndRecords) {
  Value list = Value::ListOf({Value::Int(1), Value::Int(2)});
  ASSERT_TRUE(list.is_list());
  EXPECT_EQ(list.AsList().size(), 2u);
  Value record = Value::RecordOf({{"a", Value::Int(1)}, {"b", Value::Str("x")}});
  ASSERT_TRUE(record.is_record());
  EXPECT_TRUE(record.HasField("a"));
  EXPECT_FALSE(record.HasField("c"));
  auto field = record.Field("b");
  ASSERT_TRUE(field.ok());
  EXPECT_EQ(field->AsString(), "x");
  EXPECT_TRUE(record.Field("c").status().IsNotFound());
  EXPECT_TRUE(Value::Int(1).Field("a").status().IsInvalidArgument());
}

TEST(ValueTest, DeepEquality) {
  Value a = Value::ListOf({Value::Str("x"), Value::RecordOf({{"k", Value::Int(1)}})});
  Value b = Value::ListOf({Value::Str("x"), Value::RecordOf({{"k", Value::Int(1)}})});
  Value c = Value::ListOf({Value::Str("x"), Value::RecordOf({{"k", Value::Int(2)}})});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(Value::Int(1), Value::Real(1.0));  // Kind-sensitive.
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, HashConsistentWithEquality) {
  Value a = Value::ListOf({Value::Str("x"), Value::Int(4)});
  Value b = Value::ListOf({Value::Str("x"), Value::Int(4)});
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), Value::ListOf({Value::Str("y"), Value::Int(4)}).Hash());
  EXPECT_NE(Value::Null().Hash(), Value::Int(0).Hash());
}

// Hash() is persisted: enact journal headers carry it in their config
// fingerprint, and it keys fault fates, retry jitter and the pool index. So
// the literal hash and rendering of each shape are pinned, not just their
// consistency with each other.
TEST(ValueTest, HashAndRenderingArePinnedPerShape) {
  struct Pinned {
    Value value;
    uint64_t hash;
    std::string text;
  };
  const std::vector<Pinned> cases = {
      {Value::Null(), 0x0000000000000001ULL, "null"},
      {Value::Bool(true), 0x8181f0f0c04affceULL, "true"},
      {Value::Bool(false), 0x8181f0f0c04affc1ULL, "false"},
      {Value::Int(-42), 0xad5b6bab00228346ULL, "-42"},
      {Value::Real(5.0), 0x886ec54643b30719ULL, "5.0"},
      {Value::Real(0.1), 0x88c82f2fa5d978b3ULL, "0.10000000000000001"},
      {Value::Str("a\"b\\c\n\t\r"), 0x0799305d47052c00ULL,
       R"("a\"b\\c\n\t\r")"},
      {Value::ListOf({}), 0x1715609f7c746c6aULL, "[]"},
      {Value::ListOf({Value::Int(1),
                      Value::ListOf({Value::Str("x"), Value::Null()})}),
       0x6fd66a96e0a889b4ULL, R"([1, ["x", null]])"},
      {Value::RecordOf({{"id", Value::Str("P12345")},
                        {"mass", Value::Real(11.5)},
                        {"ok", Value::Bool(true)}}),
       0xf6819d264a925c10ULL, R"({"id": "P12345", "mass": 11.5, "ok": true})"},
  };
  for (const Pinned& c : cases) {
    EXPECT_EQ(c.value.Hash(), c.hash) << c.text;
    EXPECT_EQ(c.value.ToString(), c.text);
  }
}

// One payload per value: the 16-byte shared pointer, the largest
// alternative, plus the alternative index, padded to 8 bytes.
TEST(ValueTest, HoldsOnePayload) { EXPECT_EQ(sizeof(Value), 24u); }

TEST(ValueTest, MatchesType) {
  EXPECT_TRUE(Value::Str("x").MatchesType(StructuralType::String()));
  EXPECT_FALSE(Value::Str("x").MatchesType(StructuralType::Integer()));
  EXPECT_TRUE(Value::Null().MatchesType(StructuralType::Integer()));
  StructuralType list = StructuralType::List(StructuralType::Double());
  EXPECT_TRUE(Value::ListOf({Value::Real(1.0)}).MatchesType(list));
  EXPECT_FALSE(Value::ListOf({Value::Str("x")}).MatchesType(list));
  StructuralType record = StructuralType::Record({{"id", StructuralType::String()}});
  EXPECT_TRUE(Value::RecordOf({{"id", Value::Str("a")}}).MatchesType(record));
  EXPECT_FALSE(Value::RecordOf({{"other", Value::Str("a")}}).MatchesType(record));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Str("a\"b\n").ToString(), "\"a\\\"b\\n\"");
  EXPECT_EQ(Value::ListOf({Value::Int(1), Value::Int(2)}).ToString(), "[1, 2]");
  EXPECT_EQ(Value::RecordOf({{"k", Value::Str("v")}}).ToString(),
            "{\"k\": \"v\"}");
}

TEST(ValueTest, ParseRoundTrip) {
  std::vector<Value> cases = {
      Value::Null(),
      Value::Bool(false),
      Value::Int(-123),
      Value::Real(2.5),
      Value::Real(5.0),  // Integral double must stay a double (regression).
      Value::Real(-0.0),
      Value::Str("hello \"world\"\twith\nescapes"),
      Value::ListOf({Value::Int(1), Value::Str("x"),
                     Value::ListOf({Value::Real(0.25)})}),
      Value::RecordOf({{"id", Value::Str("P12345")},
                       {"masses", Value::ListOf({Value::Real(11.5)})}}),
  };
  for (const Value& original : cases) {
    auto parsed = Value::Parse(original.ToString());
    ASSERT_TRUE(parsed.ok()) << original.ToString() << ": " << parsed.status();
    EXPECT_EQ(*parsed, original) << original.ToString();
  }
}

TEST(ValueTest, ParseRejectsMalformedInput) {
  EXPECT_TRUE(Value::Parse("").status().IsParseError());
  EXPECT_TRUE(Value::Parse("[1,").status().IsParseError());
  EXPECT_TRUE(Value::Parse("{\"a\" 1}").status().IsParseError());
  EXPECT_TRUE(Value::Parse("\"unterminated").status().IsParseError());
  EXPECT_TRUE(Value::Parse("12 34").status().IsParseError());
  EXPECT_TRUE(Value::Parse("nulll").status().IsParseError());
}

// Strings parse run by run between escapes. Values and error texts, offsets
// included, are pinned: journal decode failures quote them.
TEST(ValueTest, ParseStringsEscapesAndErrorOffsets) {
  const std::vector<std::pair<std::string, std::string>> parsed = {
      {R"("abc")", "abc"},
      {R"("")", ""},
      {R"(  "spaced"  )", "spaced"},
      {R"("a\"b")", "a\"b"},
      {R"("a\\b")", "a\\b"},
      {R"("a\nb")", "a\nb"},
      {R"("\t")", "\t"},
      {R"("x\r")", "x\r"},
      {R"("\"\\\n\t\r")", "\"\\\n\t\r"},
  };
  for (const auto& [text, expected] : parsed) {
    auto value = Value::Parse(text);
    ASSERT_TRUE(value.ok()) << text << ": " << value.status();
    EXPECT_EQ(*value, Value::Str(expected)) << text;
  }
  auto record = Value::Parse(R"({"k\"": ["p", "q\\r"]})");
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_EQ(*record,
            Value::RecordOf({{"k\"", Value::ListOf({Value::Str("p"),
                                                    Value::Str("q\\r")})}}));

  const std::vector<std::pair<std::string, std::string>> rejected = {
      {R"("a\qb")", "unknown escape '\\q' at offset 4"},
      {R"("ab\)", "dangling escape at offset 4"},
      {R"("a\)", "dangling escape at offset 3"},
      {R"("abc)", "unterminated string at offset 4"},
      {R"(")", "unterminated string at offset 1"},
      {R"({"k": "v)", "unterminated string at offset 8"},
      {R"("a"b")", "trailing characters after value at offset 3"},
  };
  for (const auto& [text, message] : rejected) {
    auto value = Value::Parse(text);
    ASSERT_FALSE(value.ok()) << text << " parsed as " << value->ToString();
    EXPECT_TRUE(value.status().IsParseError()) << value.status();
    EXPECT_EQ(value.status().message(), message) << text;
  }
}

}  // namespace
}  // namespace dexa
