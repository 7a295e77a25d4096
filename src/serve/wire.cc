#include "serve/wire.h"

#include "common/json.h"
#include "common/strings.h"

namespace dexa::serve {

std::string EncodeWire(const WireMessage& message) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : message) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, key);
    out += ':';
    AppendJsonString(out, value);
  }
  out += '}';
  return out;
}

Result<WireMessage> ParseWire(const std::string& line) {
  DEXA_ASSIGN_OR_RETURN(JsonValue root, ParseJson(line));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::ParseError("wire message is not a JSON object");
  }
  WireMessage message;
  for (auto& [key, value] : root.object) {
    switch (value.kind) {
      case JsonValue::Kind::kString:
      case JsonValue::Kind::kNumber:
        message[key] = std::move(value.text);
        break;
      case JsonValue::Kind::kBool:
        message[key] = value.boolean ? "true" : "false";
        break;
      default:
        return Status::ParseError("wire field '" + key +
                                  "' is not a string, integer or boolean");
    }
  }
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
