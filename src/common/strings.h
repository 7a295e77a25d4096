#ifndef DEXA_COMMON_STRINGS_H_
#define DEXA_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dexa {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Reads `text` one line at a time without copying it: each line is a view
/// into `text`, which must outlive the reader. Accepts both "\n" and "\r\n"
/// terminators. An unterminated last line is a line, and a '\r' at its end
/// stays; text that ends in a terminator has no empty line after it.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  /// Sets `*line` to the next line and returns true; false once every line
  /// has been read.
  bool Next(std::string_view* line);

 private:
  std::string_view rest_;
};

/// Splits `s` into lines, as LineReader reads them.
std::vector<std::string> SplitLines(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Trims ASCII whitespace from both ends.
std::string Trim(std::string_view s);

/// True if `s` starts with / ends with `prefix` / `suffix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Lower/upper-cases ASCII.
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// True if `needle` occurs in `haystack`.
bool Contains(std::string_view haystack, std::string_view needle);

/// Replaces all occurrences of `from` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Zero-pads `value` to `width` digits, e.g. ZeroPad(42, 5) == "00042".
std::string ZeroPad(uint64_t value, int width);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Wraps `s` into lines of at most `width` characters (hard wrap). Used by
/// the sequence record renderers.
std::vector<std::string> WrapFixed(std::string_view s, size_t width);

/// Parses a signed integer; returns false if `s` is not a valid integer.
bool ParseInt64(std::string_view s, int64_t* out);

/// Strict unsigned decimal parse: digits only, no sign or whitespace.
/// Returns false if `s` is empty, holds a non-digit, or exceeds 2^64-1.
bool ParseU64(std::string_view s, uint64_t* out);

/// Parses a double; returns false on failure.
bool ParseDouble(std::string_view s, double* out);

}  // namespace dexa

#endif  // DEXA_COMMON_STRINGS_H_
