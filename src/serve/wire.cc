#include "serve/wire.h"

#include <cctype>

#include "common/strings.h"

namespace dexa::serve {

namespace {

void AppendEscaped(const std::string& text, std::string& out) {
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
}

/// Minimal recursive-descent state over one line.
struct Cursor {
  const std::string& text;
  size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }
  void SkipSpace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t')) ++pos;
  }
  bool Consume(char c) {
    SkipSpace();
    if (AtEnd() || Peek() != c) return false;
    ++pos;
    return true;
  }
};

Result<std::string> ParseString(Cursor& c) {
  if (!c.Consume('"')) return Status::ParseError("expected '\"'");
  std::string out;
  while (!c.AtEnd()) {
    char ch = c.text[c.pos++];
    if (ch == '"') return out;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.AtEnd()) break;
    char esc = c.text[c.pos++];
    switch (esc) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case '/':
        out += '/';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        if (c.pos + 4 > c.text.size()) {
          return Status::ParseError("truncated \\u escape");
        }
        unsigned value = 0;
        for (int k = 0; k < 4; ++k) {
          char h = c.text[c.pos++];
          value <<= 4;
          if (h >= '0' && h <= '9') {
            value |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            value |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            value |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return Status::ParseError("bad \\u escape digit");
          }
        }
        // Flat protocol messages are ASCII; reject anything wider instead
        // of silently mangling it.
        if (value > 0x7F) {
          return Status::ParseError("non-ASCII \\u escape unsupported");
        }
        out += static_cast<char>(value);
        break;
      }
      default:
        return Status::ParseError("unknown escape");
    }
  }
  return Status::ParseError("unterminated string");
}

Result<std::string> ParseScalar(Cursor& c) {
  c.SkipSpace();
  if (c.AtEnd()) return Status::ParseError("expected a value");
  if (c.Peek() == '"') return ParseString(c);
  // Bare token: integer or boolean, normalized to its string spelling.
  std::string token;
  while (!c.AtEnd()) {
    char ch = c.Peek();
    if (ch == ',' || ch == '}' || ch == ' ' || ch == '\t') break;
    token += ch;
    ++c.pos;
  }
  if (token == "true" || token == "false") return token;
  if (token.empty()) return Status::ParseError("empty value");
  size_t digits = 0;
  for (size_t i = (token[0] == '-') ? 1 : 0; i < token.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(token[i]))) {
      return Status::ParseError("unsupported value '" + token + "'");
    }
    ++digits;
  }
  if (digits == 0) return Status::ParseError("unsupported value '" + token + "'");
  return token;
}

}  // namespace

std::string EncodeWire(const WireMessage& message) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : message) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendEscaped(key, out);
    out += "\":\"";
    AppendEscaped(value, out);
    out += '"';
  }
  out += '}';
  return out;
}

Result<WireMessage> ParseWire(const std::string& line) {
  Cursor c{line};
  if (!c.Consume('{')) return Status::ParseError("expected '{'");
  WireMessage message;
  c.SkipSpace();
  if (c.Consume('}')) {
    c.SkipSpace();
    if (!c.AtEnd()) return Status::ParseError("trailing bytes after object");
    return message;
  }
  while (true) {
    auto key = ParseString(c);
    if (!key.ok()) return key.status();
    if (!c.Consume(':')) return Status::ParseError("expected ':'");
    auto value = ParseScalar(c);
    if (!value.ok()) return value.status();
    message[*key] = *value;
    if (c.Consume(',')) continue;
    if (c.Consume('}')) break;
    return Status::ParseError("expected ',' or '}'");
  }
  c.SkipSpace();
  if (!c.AtEnd()) return Status::ParseError("trailing bytes after object");
  return message;
}

Result<uint64_t> WireUint(const WireMessage& message, const std::string& key) {
  auto it = message.find(key);
  if (it == message.end()) {
    return Status::InvalidArgument("missing field '" + key + "'");
  }
  uint64_t value = 0;
  if (!ParseU64(it->second, &value)) {
    return Status::InvalidArgument("field '" + key +
                                   "' is not a decimal number below 2^64");
  }
  return value;
}

std::string WireGet(const WireMessage& message, const std::string& key,
                    const std::string& fallback) {
  auto it = message.find(key);
  return it == message.end() ? fallback : it->second;
}

}  // namespace dexa::serve
