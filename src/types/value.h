#ifndef DEXA_TYPES_VALUE_H_
#define DEXA_TYPES_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "types/structural_type.h"

namespace dexa {

/// A dynamically-typed data value flowing between modules: the `ins` of a
/// data example (Section 2). Values are immutable after construction and
/// value-semantic (lists/records share state on copy).
///
/// Supported shapes mirror StructuralType: null (used for optional module
/// inputs, Section 2), booleans, 64-bit integers, doubles, strings,
/// homogeneous lists and named-field records.
class Value {
 public:
  /// Null value (absent optional parameter).
  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v);
  static Value Int(int64_t v);
  static Value Real(double v);
  static Value Str(std::string v);
  static Value ListOf(std::vector<Value> items);
  static Value RecordOf(std::vector<std::pair<std::string, Value>> fields);

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_list() const { return kind_ == Kind::kList; }
  bool is_record() const { return kind_ == Kind::kRecord; }

  /// Typed accessors; the value must hold the requested shape.
  bool AsBool() const;
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const std::vector<Value>& AsList() const;
  const std::vector<std::pair<std::string, Value>>& AsRecord() const;

  /// Record field lookup; NotFound if absent (requires is_record()).
  [[nodiscard]] Result<Value> Field(std::string_view name) const;

  /// True if this record has a field `name` (requires is_record()).
  bool HasField(std::string_view name) const;

  /// Deep structural equality. Doubles compare exactly (the evaluation
  /// pipeline never derives doubles in ways that would require tolerance).
  bool Equals(const Value& other) const;

  /// Deterministic, platform-stable deep hash (used by pools and matchers).
  uint64_t Hash() const;

  /// True if this value conforms to `type` (nulls conform to everything —
  /// they stand for absent optional inputs).
  bool MatchesType(const StructuralType& type) const;

  /// JSON-style rendering: `"abc"`, `42`, `[1, 2]`, `{"id": "P12345"}`.
  std::string ToString() const;

  /// Parses the JSON-style rendering produced by ToString(). Round-trips
  /// all values except doubles with non-finite payloads (never produced).
  /// More than kMaxNestingDepth (common/json.h) open lists and records is
  /// kParseError.
  [[nodiscard]] static Result<Value> Parse(std::string_view text);

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kList, kRecord };

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::shared_ptr<const std::string> string_;
  std::shared_ptr<const std::vector<Value>> list_;
  std::shared_ptr<const std::vector<std::pair<std::string, Value>>> record_;
};

inline bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
inline bool operator!=(const Value& a, const Value& b) { return !a.Equals(b); }

}  // namespace dexa

#endif  // DEXA_TYPES_VALUE_H_
