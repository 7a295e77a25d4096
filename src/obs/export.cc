#include "obs/export.h"

#include <algorithm>
#include <cctype>

#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"

namespace dexa::obs {
namespace {

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

std::string Hex16(uint64_t value) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[value & 0xF];
    value >>= 4;
  }
  return out;
}

/// Rewrites a document's closing `}` into `,"checksum":"<hash>"}` where
/// `<hash>` covers the document as it was before the rewrite. Readers undo
/// this exactly, so the checksum is self-verifying.
std::string SealWithChecksum(std::string doc) {
  const std::string digest = Hex16(StableHash64(doc));
  doc.pop_back();  // The final '}'.
  doc += ",\"checksum\":\"";
  doc += digest;
  doc += "\"}";
  return doc;
}

void AppendCounterFields(std::string& out,
                         const std::vector<std::pair<std::string, uint64_t>>&
                             counters) {
  for (const auto& [name, value] : counters) {
    out += ',';
    AppendJsonString(out, name);
    out += ':';
    out += std::to_string(value);
  }
}

void AppendNumberMap(std::string& out,
                     const std::map<std::string, uint64_t>& numbers) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : numbers) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, name);
    out += ':';
    out += std::to_string(value);
  }
  out += '}';
}

void AppendNumberArray(std::string& out, const std::vector<uint64_t>& numbers) {
  out += '[';
  for (size_t i = 0; i < numbers.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(numbers[i]);
  }
  out += ']';
}

void AppendMetricsSection(
    std::string& out, const std::map<std::string, uint64_t>& counters,
    const std::map<std::string, uint64_t>& gauges,
    const std::map<std::string, HistogramSnapshot>& histograms) {
  out += "{\"counters\":";
  AppendNumberMap(out, counters);
  out += ",\"gauges\":";
  AppendNumberMap(out, gauges);
  out += ",\"histograms\":{";
  bool first = true;
  for (const auto& [name, histogram] : histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, name);
    out += ":{\"bounds\":";
    AppendNumberArray(out, histogram.bounds);
    out += ",\"counts\":";
    AppendNumberArray(out, histogram.counts);
    out += ",\"total\":";
    out += std::to_string(histogram.total);
    out += ",\"observations\":";
    out += std::to_string(histogram.observations);
    out += '}';
  }
  out += "}}";
}

/// Files the span statistics of a recorded trace, all stable: span and
/// replayed-span counts, the count per kind, and an examples-per-module
/// histogram over batch spans' "examples" counters.
void AddTraceMetrics(const Tracer& tracer, ParsedMetrics& metrics) {
  const std::vector<TraceSpan> spans = tracer.spans();
  HistogramSnapshot& examples =
      metrics.stable_histograms["trace.examples_per_module"];
  examples.bounds = {0, 1, 2, 4, 8, 16, 32, 64, 128};
  examples.counts.assign(examples.bounds.size() + 1, 0);
  uint64_t replayed = 0;
  for (const TraceSpan& span : spans) {
    metrics.stable_counters[std::string("trace.spans.") +
                            SpanKindName(span.kind)] += 1;
    if (span.replayed) ++replayed;
    if (span.kind != SpanKind::kBatch) continue;
    for (const auto& [name, value] : span.counters) {
      if (name != "examples") continue;
      // The first bucket whose bound holds the value, else the overflow.
      examples.counts[std::lower_bound(examples.bounds.begin(),
                                       examples.bounds.end(), value) -
                      examples.bounds.begin()] += 1;
      examples.total += value;
      examples.observations += 1;
    }
  }
  metrics.stable_counters["trace.spans"] = spans.size();
  metrics.stable_counters["trace.spans_replayed"] = replayed;
}

// ---------------------------------------------------------------------------
// Reading: schema decoding over common/json.h
// ---------------------------------------------------------------------------
//
// The exports are machine-written, so any deviation from the schema (or a
// number outside uint64) is damage and comes back kCorrupted.

/// Verifies the trailing `,"checksum":"<16 hex>"}` seal and returns the
/// document with the seal removed (ready to parse), or kCorrupted.
Result<std::string> Unseal(const std::string& text) {
  std::string trimmed = text;
  while (!trimmed.empty() &&
         (trimmed.back() == '\n' || trimmed.back() == '\r' ||
          trimmed.back() == ' ')) {
    trimmed.pop_back();
  }
  static const std::string kMarker = ",\"checksum\":\"";
  // Seal layout: marker + 16 hex + "\"}" at the very end of the document.
  const size_t kSealLength = kMarker.size() + 16 + 2;
  if (trimmed.size() < kSealLength + 1) {
    return Status::Corrupted("export too short to carry a checksum seal");
  }
  const size_t seal_pos = trimmed.size() - kSealLength;
  if (trimmed.compare(seal_pos, kMarker.size(), kMarker) != 0 ||
      trimmed.compare(trimmed.size() - 2, 2, "\"}") != 0) {
    return Status::Corrupted("export checksum seal missing or malformed");
  }
  const std::string digest =
      trimmed.substr(seal_pos + kMarker.size(), 16);
  for (char c : digest) {
    if (!std::isxdigit(static_cast<unsigned char>(c)) ||
        std::isupper(static_cast<unsigned char>(c))) {
      return Status::Corrupted("export checksum is not lowercase hex");
    }
  }
  std::string doc = trimmed.substr(0, seal_pos) + "}";
  if (Hex16(StableHash64(doc)) != digest) {
    return Status::Corrupted("export checksum mismatch: content damaged");
  }
  return doc;
}

Result<JsonValue> ParseSealedDocument(const std::string& text) {
  DEXA_ASSIGN_OR_RETURN(std::string doc, Unseal(text));
  Result<JsonValue> root = ParseJson(doc);
  if (!root.ok()) {
    return Status::Corrupted("export is not well-formed JSON: " +
                             root.status().message());
  }
  if (root->kind != JsonValue::Kind::kObject) {
    return Status::Corrupted("export root is not a JSON object");
  }
  return root;
}

/// True when `value` is a number in [0, 2^64); stores it in `out`.
bool AsU64(const JsonValue& value, uint64_t& out) {
  return value.kind == JsonValue::Kind::kNumber && ParseU64(value.text, &out);
}

bool GetNumber(const JsonValue& object, const std::string& key,
               uint64_t& out) {
  const JsonValue* value = object.Find(key);
  return value != nullptr && AsU64(*value, out);
}

bool GetString(const JsonValue& object, const std::string& key,
               std::string& out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kString) {
    return false;
  }
  out = value->text;
  return true;
}

Result<ParsedSpan> DecodeTraceEvent(const JsonValue& event) {
  if (event.kind != JsonValue::Kind::kObject) {
    return Status::Corrupted("trace event is not an object");
  }
  ParsedSpan span;
  std::string ph;
  if (!GetString(event, "name", span.name) ||
      !GetString(event, "cat", span.cat) || !GetString(event, "ph", ph) ||
      ph != "X" || !GetNumber(event, "ts", span.ts) ||
      !GetNumber(event, "dur", span.dur) ||
      !GetNumber(event, "id", span.id)) {
    return Status::Corrupted("trace event missing required fields");
  }
  const JsonValue* args = event.Find("args");
  if (args == nullptr || args->kind != JsonValue::Kind::kObject) {
    return Status::Corrupted("trace event has no args object");
  }
  bool saw_parent = false, saw_virtual = false, saw_replayed = false;
  for (const auto& [key, value] : args->object) {
    uint64_t number = 0;
    if (!AsU64(value, number)) {
      return Status::Corrupted("trace arg '" + key + "' is not a uint64");
    }
    if (key == "parent") {
      span.parent = number;
      saw_parent = true;
    } else if (key == "virtual_ns") {
      span.virtual_ns = number;
      saw_virtual = true;
    } else if (key == "replayed") {
      if (number > 1) {
        return Status::Corrupted("trace replayed flag out of range");
      }
      span.replayed = number == 1;
      saw_replayed = true;
    } else {
      span.counters.emplace_back(key, number);
    }
  }
  if (!saw_parent || !saw_virtual || !saw_replayed) {
    return Status::Corrupted("trace event args missing span metadata");
  }
  return span;
}

Result<std::map<std::string, uint64_t>> DecodeNumberMap(
    const JsonValue& object) {
  std::map<std::string, uint64_t> out;
  for (const auto& [key, value] : object.object) {
    if (!AsU64(value, out[key])) {
      return Status::Corrupted("metric '" + key + "' is not a uint64");
    }
  }
  return out;
}

Result<std::vector<uint64_t>> DecodeNumberArray(const JsonValue& value) {
  if (value.kind != JsonValue::Kind::kArray) {
    return Status::Corrupted("expected a JSON array of numbers");
  }
  std::vector<uint64_t> out;
  for (const JsonValue& element : value.array) {
    if (!AsU64(element, out.emplace_back())) {
      return Status::Corrupted("histogram array holds a non-uint64");
    }
  }
  return out;
}

Result<std::map<std::string, HistogramSnapshot>> DecodeHistogramMap(
    const JsonValue& object) {
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [key, value] : object.object) {
    if (value.kind != JsonValue::Kind::kObject) {
      return Status::Corrupted("histogram '" + key + "' is not an object");
    }
    const JsonValue* bounds = value.Find("bounds");
    const JsonValue* counts = value.Find("counts");
    if (bounds == nullptr || counts == nullptr) {
      return Status::Corrupted("histogram '" + key + "' missing buckets");
    }
    HistogramSnapshot histogram;
    DEXA_ASSIGN_OR_RETURN(histogram.bounds, DecodeNumberArray(*bounds));
    DEXA_ASSIGN_OR_RETURN(histogram.counts, DecodeNumberArray(*counts));
    if (histogram.counts.size() != histogram.bounds.size() + 1 ||
        !GetNumber(value, "total", histogram.total) ||
        !GetNumber(value, "observations", histogram.observations)) {
      return Status::Corrupted("histogram '" + key + "' malformed");
    }
    out[key] = std::move(histogram);
  }
  return out;
}

Status DecodeMetricsSection(const JsonValue& root, const std::string& section,
                            std::map<std::string, uint64_t>& counters,
                            std::map<std::string, uint64_t>& gauges,
                            std::map<std::string, HistogramSnapshot>&
                                histograms) {
  const JsonValue* object = root.Find(section);
  if (object == nullptr || object->kind != JsonValue::Kind::kObject) {
    return Status::Corrupted("metrics export missing '" + section +
                             "' section");
  }
  const JsonValue* c = object->Find("counters");
  const JsonValue* g = object->Find("gauges");
  const JsonValue* h = object->Find("histograms");
  if (c == nullptr || c->kind != JsonValue::Kind::kObject || g == nullptr ||
      g->kind != JsonValue::Kind::kObject || h == nullptr ||
      h->kind != JsonValue::Kind::kObject) {
    return Status::Corrupted("metrics section '" + section + "' malformed");
  }
  DEXA_ASSIGN_OR_RETURN(counters, DecodeNumberMap(*c));
  DEXA_ASSIGN_OR_RETURN(gauges, DecodeNumberMap(*g));
  DEXA_ASSIGN_OR_RETURN(histograms, DecodeHistogramMap(*h));
  return Status::OK();
}

}  // namespace

uint64_t RatioPpm(uint64_t numerator, uint64_t denominator) {
  if (denominator == 0) return 0;
  return numerator * 1000000 / denominator;
}

std::string WriteChromeTrace(const Tracer& tracer) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::vector<TraceSpan> spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    AppendJsonString(out, span.name);
    out += ",\"cat\":\"";
    out += SpanKindName(span.kind);
    out += "\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(span.start_tick);
    out += ",\"dur\":";
    uint64_t dur =
        span.end_tick >= span.start_tick ? span.end_tick - span.start_tick : 0;
    out += std::to_string(dur);
    out += ",\"pid\":1,\"tid\":1,\"id\":";
    out += std::to_string(span.id);
    out += ",\"args\":{\"parent\":";
    out += std::to_string(span.parent);
    out += ",\"virtual_ns\":";
    out += std::to_string(span.virtual_ns);
    out += ",\"replayed\":";
    out += span.replayed ? '1' : '0';
    AppendCounterFields(out, span.counters);
    out += "}}";
  }
  out += "]}";
  return SealWithChecksum(std::move(out));
}

std::string WriteMetricsJson(const EngineMetricsSnapshot& counters,
                             const Tracer* tracer) {
  ParsedMetrics metrics;
  for (const EngineCounterInfo& counter : kEngineCounters) {
    std::map<std::string, uint64_t>& section =
        counter.stability == CounterStability::kStable
            ? metrics.stable_counters
            : metrics.volatile_counters;
    section[std::string("engine.") + counter.name] = counters.*counter.field;
  }
  // Phase timings are wall-clock: volatile, reporting-only.
  for (size_t p = 0; p < kNumEnginePhases; ++p) {
    metrics.volatile_counters[std::string("engine.phase_ns.") +
                              EnginePhaseName(static_cast<EnginePhase>(p))] =
        counters.phase_nanos[p];
  }
  metrics.stable_gauges["engine.invocation_error_rate_ppm"] =
      RatioPpm(counters.invocation_errors, counters.invocations);
  if (tracer != nullptr) AddTraceMetrics(*tracer, metrics);

  std::string out = "{\"stable\":";
  AppendMetricsSection(out, metrics.stable_counters, metrics.stable_gauges,
                       metrics.stable_histograms);
  out += ",\"volatile\":";
  AppendMetricsSection(out, metrics.volatile_counters, metrics.volatile_gauges,
                       metrics.volatile_histograms);
  out += '}';
  return SealWithChecksum(std::move(out));
}

Result<ParsedTrace> ReadChromeTrace(const std::string& text) {
  DEXA_ASSIGN_OR_RETURN(JsonValue root, ParseSealedDocument(text));
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return Status::Corrupted("trace export has no traceEvents array");
  }
  ParsedTrace trace;
  for (const JsonValue& event : events->array) {
    DEXA_ASSIGN_OR_RETURN(ParsedSpan span, DecodeTraceEvent(event));
    trace.spans.push_back(std::move(span));
  }
  return trace;
}

Result<ParsedMetrics> ReadMetricsJson(const std::string& text) {
  DEXA_ASSIGN_OR_RETURN(JsonValue root, ParseSealedDocument(text));
  ParsedMetrics metrics;
  DEXA_RETURN_IF_ERROR(
      DecodeMetricsSection(root, "stable", metrics.stable_counters,
                           metrics.stable_gauges, metrics.stable_histograms));
  DEXA_RETURN_IF_ERROR(
      DecodeMetricsSection(root, "volatile", metrics.volatile_counters,
                           metrics.volatile_gauges,
                           metrics.volatile_histograms));
  return metrics;
}

}  // namespace dexa::obs
