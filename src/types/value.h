#ifndef DEXA_TYPES_VALUE_H_
#define DEXA_TYPES_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "types/structural_type.h"

namespace dexa {

/// A dynamically-typed data value flowing between modules: the `ins` of a
/// data example (Section 2). Values are immutable after construction and
/// value-semantic (long strings, lists and records share state on copy).
///
/// Supported shapes mirror StructuralType: null (used for optional module
/// inputs, Section 2), booleans, 64-bit integers, doubles, strings,
/// homogeneous lists and named-field records.
class Value {
 public:
  /// The longest string a Value holds inline, in std::string's own buffer
  /// (libstdc++ keeps 15 chars without a heap block). Copies of a short
  /// string touch no shared state; a longer one is shared on copy.
  static constexpr size_t kInlineStringMax = 15;

  /// Null value (absent optional parameter).
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return {std::in_place_index<kBool>, v}; }
  static Value Int(int64_t v) { return {std::in_place_index<kInt>, v}; }
  static Value Real(double v) { return {std::in_place_index<kDouble>, v}; }
  static Value Str(std::string v) {
    if (v.size() <= kInlineStringMax) {
      // Copied, not moved: a short string built with a larger capacity
      // leaves its heap block behind.
      return {std::in_place_index<kString>, std::string(v.data(), v.size())};
    }
    return {std::in_place_index<kSharedString>,
            std::make_shared<const std::string>(std::move(v))};
  }
  static Value ListOf(std::vector<Value> items) {
    return {std::in_place_index<kList>,
            std::make_shared<const std::vector<Value>>(std::move(items))};
  }
  static Value RecordOf(std::vector<std::pair<std::string, Value>> fields) {
    return {std::in_place_index<kRecord>,
            std::make_shared<const Record>(std::move(fields))};
  }

  bool is_null() const { return data_.index() == kNull; }
  bool is_bool() const { return data_.index() == kBool; }
  bool is_int() const { return data_.index() == kInt; }
  bool is_double() const { return data_.index() == kDouble; }
  bool is_string() const { return shape() == kString; }
  bool is_list() const { return data_.index() == kList; }
  bool is_record() const { return data_.index() == kRecord; }

  /// Typed accessors; the value must hold the requested shape
  /// (std::bad_variant_access otherwise).
  bool AsBool() const { return std::get<kBool>(data_); }
  int64_t AsInt() const { return std::get<kInt>(data_); }
  double AsDouble() const { return std::get<kDouble>(data_); }
  /// A short string lives in this Value: the reference is valid while the
  /// Value is, and moves with it.
  const std::string& AsString() const {
    if (const std::string* inline_string = std::get_if<kString>(&data_)) {
      return *inline_string;
    }
    return *std::get<kSharedString>(data_);
  }
  const std::vector<Value>& AsList() const { return *std::get<kList>(data_); }
  const std::vector<std::pair<std::string, Value>>& AsRecord() const {
    return *std::get<kRecord>(data_);
  }

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
  /// Appends ToString()'s rendering to `out`, building no temporary.
  void AppendTo(std::string& out) const;

  /// Parses the JSON-style rendering produced by ToString(). Round-trips
  /// all values except doubles with non-finite payloads (never produced).
  /// More than kMaxNestingDepth (common/json.h) open lists and records is
  /// kParseError.
  [[nodiscard]] static Result<Value> Parse(std::string_view text);

 private:
  using Record = std::vector<std::pair<std::string, Value>>;

  /// Alternative indices. The first seven are the shapes, in the order
  /// Hash() mixes them in; a string longer than kInlineStringMax is the
  /// last alternative and has the string shape.
  enum : size_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kList,
    kRecord,
    kSharedString
  };

  size_t shape() const {
    return data_.index() == kSharedString ? kString : data_.index();
  }

  template <size_t I, typename T>
  Value(std::in_place_index_t<I> alternative, T&& payload)
      : data_(alternative, std::forward<T>(payload)) {}

  /// The one payload. Long strings, lists and records are shared on copy.
  std::variant<std::monostate, bool, int64_t, double, std::string,
               std::shared_ptr<const std::vector<Value>>,
               std::shared_ptr<const Record>,
               std::shared_ptr<const std::string>>
      data_;
};

inline bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
inline bool operator!=(const Value& a, const Value& b) { return !a.Equals(b); }

}  // namespace dexa

#endif  // DEXA_TYPES_VALUE_H_
