#ifndef DEXA_SERVE_WIRE_H_
#define DEXA_SERVE_WIRE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"

namespace dexa::serve {

/// One protocol message: a flat JSON object with string keys and scalar
/// values, held as strings. std::map keeps keys sorted, so encoding is
/// deterministic by construction — the same message always serializes to
/// the same bytes (the golden-protocol tests rely on it).
using WireMessage = std::map<std::string, std::string>;

/// Serializes `message` as one line of JSON (no trailing newline): keys in
/// sorted order, every value a JSON string. This is the only encoder the
/// daemon uses, so clients can treat responses as canonical bytes.
std::string EncodeWire(const WireMessage& message);

/// Parses one line holding a flat JSON object (the ParseJson grammar of
/// common/json.h). String values are kept, integers and booleans become
/// their spellings; null, arrays, objects, floats, raw control bytes and
/// trailing garbage are kParseError. A repeated key keeps its last value.
[[nodiscard]] Result<WireMessage> ParseWire(const std::string& line);

/// `message[key]` parsed as an unsigned integer; kInvalidArgument when the
/// key is missing or not a number.
[[nodiscard]] Result<uint64_t> WireUint(const WireMessage& message,
                                        const std::string& key);

/// `message[key]`, or `fallback` when absent.
std::string WireGet(const WireMessage& message, const std::string& key,
                    const std::string& fallback = "");

}  // namespace dexa::serve

#endif  // DEXA_SERVE_WIRE_H_
