#include "types/value.h"

#include <bit>
#include <cctype>

#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"

namespace dexa {

Result<Value> Value::Field(std::string_view name) const {
  if (!is_record()) {
    return Status::InvalidArgument("Field() on a non-record value");
  }
  for (const auto& [field_name, value] : AsRecord()) {
    if (field_name == name) return value;
  }
  return Status::NotFound("record has no field '" + std::string(name) + "'");
}

bool Value::HasField(std::string_view name) const {
  if (!is_record()) return false;
  for (const auto& [field_name, value] : AsRecord()) {
    (void)value;
    if (field_name == name) return true;
  }
  return false;
}

bool Value::Equals(const Value& other) const {
  // The variant's own == settles the same alternative holding an equal
  // scalar or short string, or the very same shared payload; unequal shared
  // payloads compare deeply. Str() splits strings by length, so a short and
  // a long string are never equal.
  if (data_ == other.data_) return true;
  if (data_.index() != other.data_.index()) return false;
  switch (data_.index()) {
    case kSharedString:
      return AsString() == other.AsString();
    case kList:
      return AsList() == other.AsList();
    case kRecord:
      return AsRecord() == other.AsRecord();
  }
  return false;
}

uint64_t Value::Hash() const {
  uint64_t h = static_cast<uint64_t>(shape()) * 0x9e3779b97f4a7c15ULL + 1;
  switch (shape()) {
    case kBool:
      return HashCombine(h, AsBool() ? 2 : 1);
    case kInt:
      return HashCombine(h, static_cast<uint64_t>(AsInt()));
    case kDouble:
      return HashCombine(h, std::bit_cast<uint64_t>(AsDouble()));
    case kString:
      return HashCombine(h, StableHash64(AsString()));
    case kList:
      for (const Value& v : AsList()) h = HashCombine(h, v.Hash());
      return h;
    case kRecord:
      for (const auto& [name, v] : AsRecord()) {
        h = HashCombine(h, StableHash64(name));
        h = HashCombine(h, v.Hash());
      }
      return h;
  }
  return h;
}

bool Value::MatchesType(const StructuralType& type) const {
  if (is_null()) return true;  // Optional inputs conform to any type.
  switch (type.kind()) {
    case TypeKind::kString:
      return is_string();
    case TypeKind::kInteger:
      return is_int();
    case TypeKind::kDouble:
      return is_double();
    case TypeKind::kBoolean:
      return is_bool();
    case TypeKind::kList: {
      if (!is_list()) return false;
      for (const Value& v : AsList()) {
        if (!v.MatchesType(type.element())) return false;
      }
      return true;
    }
    case TypeKind::kRecord: {
      if (!is_record()) return false;
      const auto& fields = type.fields();
      const auto& record = AsRecord();
      if (record.size() != fields.size()) return false;
      for (size_t i = 0; i < fields.size(); ++i) {
        if (record[i].first != fields[i].first) return false;
        if (!record[i].second.MatchesType(fields[i].second)) return false;
      }
      return true;
    }
  }
  return false;
}

namespace {

void EscapeInto(const std::string& s, std::string& out) {
  out.push_back('"');
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out.push_back(c);
    }
  }
  out.push_back('"');
}

void RenderInto(const Value& v, std::string& out);

}  // namespace

std::string Value::ToString() const {
  std::string out;
  RenderInto(*this, out);
  return out;
}

namespace {

void RenderInto(const Value& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.AsBool() ? "true" : "false";
  } else if (v.is_int()) {
    out += std::to_string(v.AsInt());
  } else if (v.is_double()) {
    std::string rendered = StrFormat("%.17g", v.AsDouble());
    // Keep doubles distinguishable from integers across a round trip:
    // integral values get an explicit fraction.
    if (rendered.find_first_of(".eE") == std::string::npos) rendered += ".0";
    out += rendered;
  } else if (v.is_string()) {
    EscapeInto(v.AsString(), out);
  } else if (v.is_list()) {
    out.push_back('[');
    const auto& items = v.AsList();
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      RenderInto(items[i], out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    const auto& fields = v.AsRecord();
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ", ";
      EscapeInto(fields[i].first, out);
      out += ": ";
      RenderInto(fields[i].second, out);
    }
    out.push_back('}');
  }
}

/// Minimal recursive-descent parser for the ToString() grammar.
class ValueParser {
 public:
  explicit ValueParser(std::string_view text) : text_(text) {}

  Result<Value> Parse() {
    SkipSpace();
    auto v = ParseValue(0);
    if (!v.ok()) return v;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after value");
    }
    return v;
  }

 private:
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  /// `depth` counts the lists and records enclosing the value.
  Result<Value> ParseValue(int depth) {
    SkipSpace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    if (Consume("null")) return Value::Null();
    if (Consume("true")) return Value::Bool(true);
    if (Consume("false")) return Value::Bool(false);
    if (c == '"') return ParseString();
    if (c == '[' || c == '{') {
      if (depth >= kMaxNestingDepth) {
        return Err("nesting deeper than " + std::to_string(kMaxNestingDepth));
      }
      return c == '[' ? ParseList(depth + 1) : ParseRecord(depth + 1);
    }
    return ParseNumber();
  }

  Result<Value> ParseString() {
    auto s = ParseRawString();
    if (!s.ok()) return s.status();
    return Value::Str(std::move(s).value());
  }

  Result<std::string> ParseRawString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Err("expected '\"'");
    }
    ++pos_;
    std::string out;
    for (;;) {
      // Copy the run up to the next quote or escape in one step.
      size_t stop = pos_;
      while (stop < text_.size() && text_[stop] != '"' &&
             text_[stop] != '\\') {
        ++stop;
      }
      out.append(text_, pos_, stop - pos_);
      pos_ = stop;
      if (pos_ == text_.size()) return Err("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) return Err("dangling escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        default:
          return Err(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        // '-'/'+' only valid inside exponents but strtod validates fully.
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty()) return Err("expected a value");
    if (!is_double) {
      int64_t i;
      if (ParseInt64(token, &i)) return Value::Int(i);
    }
    double d;
    if (ParseDouble(token, &d)) return Value::Real(d);
    return Err("malformed number '" + std::string(token) + "'");
  }

  Result<Value> ParseList(int depth) {
    ++pos_;  // '['
    std::vector<Value> items;
    SkipSpace();
    if (Consume("]")) return Value::ListOf(std::move(items));
    for (;;) {
      auto v = ParseValue(depth);
      if (!v.ok()) return v;
      items.push_back(std::move(v).value());
      SkipSpace();
      if (Consume("]")) return Value::ListOf(std::move(items));
      if (!Consume(",")) return Err("expected ',' or ']'");
    }
  }

  Result<Value> ParseRecord(int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, Value>> fields;
    SkipSpace();
    if (Consume("}")) return Value::RecordOf(std::move(fields));
    for (;;) {
      SkipSpace();
      auto name = ParseRawString();
      if (!name.ok()) return name.status();
      SkipSpace();
      if (!Consume(":")) return Err("expected ':'");
      auto v = ParseValue(depth);
      if (!v.ok()) return v;
      fields.emplace_back(std::move(name).value(), std::move(v).value());
      SkipSpace();
      if (Consume("}")) return Value::RecordOf(std::move(fields));
      if (!Consume(",")) return Err("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Value::Parse(std::string_view text) {
  return ValueParser(text).Parse();
}

}  // namespace dexa
