#ifndef DEXA_COMMON_JSON_H_
#define DEXA_COMMON_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace dexa {

/// The deepest nesting ParseJson accepts: at most this many arrays and
/// objects open at once. Value::Parse and ParseStructuralType cap their
/// nesting at the same depth, so no parser in the tree recurses without a
/// bound on untrusted input.
inline constexpr int kMaxNestingDepth = 64;

/// One parsed JSON value. Objects keep their members in document order
/// (duplicate keys included) and numbers keep their `-?digits` spelling, so
/// each caller applies its own range check (ParseU64 for uint64 fields).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// kString: the decoded bytes. kNumber: the literal, e.g. "-12".
  std::string text;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The first member named `key`; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Appends `s` to `out` as a quoted JSON string. `"`, `\`, LF, CR and TAB
/// become two-byte escapes, other bytes below 0x20 become `\u00xx`
/// (lowercase hex), and every other byte, 0x7F and non-ASCII included, is
/// copied as is.
void AppendJsonString(std::string& out, std::string_view s);

/// Parses one JSON document in a strict subset of RFC 8259:
///   - whitespace is space, TAB, LF or CR, and only between tokens;
///   - a number is `-?[0-9]+` (no fraction, exponent or `+`), kept as text;
///   - a string takes the escapes \" \\ \/ \n \r \t and \u0000 to \u007F;
///     a raw byte below 0x20 inside it is an error, any other byte (UTF-8
///     included) is kept as is;
///   - the literals are true, false and null;
///   - at most kMaxNestingDepth arrays and objects are open at once;
///   - nothing but whitespace may follow the document.
/// Anything else returns kParseError. Reads each byte at most once and never
/// past the end of `text`.
[[nodiscard]] Result<JsonValue> ParseJson(std::string_view text);

}  // namespace dexa

#endif  // DEXA_COMMON_JSON_H_
