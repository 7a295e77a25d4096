#include "common/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dexa {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool LineReader::Next(std::string_view* line) {
  if (rest_.empty()) return false;
  const size_t newline = rest_.find('\n');
  if (newline == std::string_view::npos) {
    *line = rest_;
    rest_ = {};
    return true;
  }
  size_t end = newline;
  if (end > 0 && rest_[end - 1] == '\r') --end;
  *line = rest_.substr(0, end);
  rest_.remove_prefix(newline + 1);
  return true;
}

std::vector<std::string> SplitLines(std::string_view s) {
  std::vector<std::string> out;
  LineReader lines(s);
  for (std::string_view line; lines.Next(&line);) out.emplace_back(line);
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out += s.substr(pos);
      return out;
    }
    out += s.substr(pos, hit - pos);
    out += to;
    pos = hit + from.size();
  }
}

std::string ZeroPad(uint64_t value, int width) {
  std::string digits = std::to_string(value);
  if (static_cast<int>(digits.size()) >= width) return digits;
  return std::string(width - digits.size(), '0') + digits;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> WrapFixed(std::string_view s, size_t width) {
  std::vector<std::string> out;
  if (width == 0) return out;
  for (size_t i = 0; i < s.size(); i += width) {
    out.emplace_back(s.substr(i, width));
  }
  if (s.empty()) out.emplace_back("");
  return out;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  std::string buf = Trim(s);
  if (buf.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;  // overflow
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  std::string buf = Trim(s);
  if (buf.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

}  // namespace dexa
