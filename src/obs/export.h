#ifndef DEXA_OBS_EXPORT_H_
#define DEXA_OBS_EXPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/metrics.h"
#include "obs/trace.h"

namespace dexa::obs {

/// A fixed-bucket histogram: `counts[i]` holds observations <= bounds[i];
/// the final slot counts overflows (> the last bound).
struct HistogramSnapshot {
  std::vector<uint64_t> bounds;  ///< Ascending upper bounds.
  std::vector<uint64_t> counts;  ///< bounds.size() + 1 slots.
  uint64_t total = 0;            ///< Sum of all observations' values.
  uint64_t observations = 0;     ///< Number of observations.
};

/// `numerator * 1e6 / denominator`, 0 when the denominator is 0 — the
/// fixed-point ratio representation used by gauges, so the export never
/// touches float formatting.
uint64_t RatioPpm(uint64_t numerator, uint64_t denominator);

/// Serializes a recorded trace as a Chrome trace-event JSON document
/// (loadable in chrome://tracing / Perfetto): one complete ("ph":"X") event
/// per span, `ts`/`dur` in logical ticks, span metadata and counters under
/// `args`. The document ends with a `"checksum"` field — StableHash64 of
/// the document with that field removed — which Chrome ignores and
/// ReadChromeTrace verifies. Output is byte-deterministic: same spans, same
/// bytes.
std::string WriteChromeTrace(const Tracer& tracer);

/// Serializes one run's metrics as a flat metrics.json with `stable` and
/// `volatile` sections (counters / gauges / histograms, sorted by name) and
/// the same trailing checksum scheme as WriteChromeTrace. `counters` (a
/// run's RunResult::counters) gives every `engine.<name>` counter, filed
/// under its kEngineCounters tag, the volatile `engine.phase_ns.<phase>`
/// timings and the stable `engine.invocation_error_rate_ppm` gauge. A
/// `tracer` adds the stable span statistics: `trace.spans`,
/// `trace.spans_replayed`, `trace.spans.<kind>` and the
/// `trace.examples_per_module` histogram over batch spans' "examples".
std::string WriteMetricsJson(const EngineMetricsSnapshot& counters,
                             const Tracer* tracer = nullptr);

/// A span decoded from a Chrome-trace export.
struct ParsedSpan {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string cat;  ///< Span kind name ("run", "phase", ...).
  uint64_t ts = 0;
  uint64_t dur = 0;
  uint64_t virtual_ns = 0;
  bool replayed = false;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

struct ParsedTrace {
  std::vector<ParsedSpan> spans;
};

/// A metrics.json's content in per-section maps: what WriteMetricsJson
/// lays out and ReadMetricsJson decodes.
struct ParsedMetrics {
  std::map<std::string, uint64_t> stable_counters;
  std::map<std::string, uint64_t> stable_gauges;
  std::map<std::string, HistogramSnapshot> stable_histograms;
  std::map<std::string, uint64_t> volatile_counters;
  std::map<std::string, uint64_t> volatile_gauges;
  std::map<std::string, HistogramSnapshot> volatile_histograms;
};

/// Decodes and verifies a WriteChromeTrace document. Any damage — a
/// missing or mismatched checksum, malformed JSON, a schema violation —
/// returns kCorrupted (the export is machine-written, so "malformed" can
/// only mean "damaged"). Never crashes or hangs on arbitrary bytes.
Result<ParsedTrace> ReadChromeTrace(const std::string& text);

/// Decodes and verifies a WriteMetricsJson document; same error contract
/// as ReadChromeTrace.
Result<ParsedMetrics> ReadMetricsJson(const std::string& text);

}  // namespace dexa::obs

#endif  // DEXA_OBS_EXPORT_H_
