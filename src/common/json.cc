#include "common/json.h"

namespace dexa {

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

void AppendJsonString(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (char c : s) {
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
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xF];
        } else {
          out += c;
        }
      }
    }
  }
  out += '"';
}

namespace {

/// Recursive descent over the grammar ParseJson documents; `depth` counts
/// the arrays and objects enclosing the value being parsed.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Status Parse(JsonValue& out) {
    SkipWhitespace();
    DEXA_RETURN_IF_ERROR(ParseValue(out, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Err("trailing bytes after the document");
    return Status::OK();
  }

 private:
  Status Err(const std::string& what) const {
    return Status::ParseError("JSON: " + what + " at offset " +
                              std::to_string(pos_));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  void SkipWhitespace() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                        text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  /// Consumes `c` (after whitespace) if it is next.
  bool Consume(char c) {
    SkipWhitespace();
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (AtEnd()) return Err("expected a value");
    switch (text_[pos_]) {
      case '{':
      case '[':
        if (depth >= kMaxNestingDepth) {
          return Err("nesting deeper than " +
                     std::to_string(kMaxNestingDepth));
        }
        return text_[pos_] == '{' ? ParseObject(out, depth + 1)
                                  : ParseArray(out, depth + 1);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return ParseString(out.text);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return ParseLiteral("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        out.kind = JsonValue::Kind::kNumber;
        return ParseNumber(out.text);
    }
  }

  Status ParseObject(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (Consume('}')) return Status::OK();
    do {
      SkipWhitespace();
      std::string key;
      DEXA_RETURN_IF_ERROR(ParseString(key));
      if (!Consume(':')) return Err("expected ':'");
      SkipWhitespace();
      JsonValue value;
      DEXA_RETURN_IF_ERROR(ParseValue(value, depth));
      out.object.emplace_back(std::move(key), std::move(value));
    } while (Consume(','));
    if (!Consume('}')) return Err("expected ',' or '}'");
    return Status::OK();
  }

  Status ParseArray(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (Consume(']')) return Status::OK();
    do {
      SkipWhitespace();
      DEXA_RETURN_IF_ERROR(ParseValue(out.array.emplace_back(), depth));
    } while (Consume(','));
    if (!Consume(']')) return Err("expected ',' or ']'");
    return Status::OK();
  }

  Status ParseString(std::string& out) {
    if (AtEnd() || text_[pos_] != '"') return Err("expected '\"'");
    ++pos_;
    while (!AtEnd()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("raw control byte in a string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (AtEnd()) break;
      switch (text_[pos_++]) {
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = AtEnd() ? '\0' : text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Err("bad \\u escape");
            }
          }
          // Only ASCII: a wider code point would need UTF-8 encoding that
          // no writer in the tree produces.
          if (code > 0x7F) return Err("\\u escape above 007F");
          out += static_cast<char>(code);
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
    return Err("unterminated string");
  }

  Status ParseNumber(std::string& out) {
    const size_t start = pos_;
    if (!AtEnd() && text_[pos_] == '-') ++pos_;
    const size_t digits = pos_;
    while (!AtEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ == digits) return Err("expected a value");
    out.assign(text_.substr(start, pos_ - start));
    return Status::OK();
  }

  Status ParseLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Err("expected a value");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  JsonValue root;
  DEXA_RETURN_IF_ERROR(JsonParser(text).Parse(root));
  return root;
}

}  // namespace dexa
