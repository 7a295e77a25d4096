#include "obs/metrics_registry.h"

#include <utility>

namespace dexa::obs {

uint64_t RatioPpm(uint64_t numerator, uint64_t denominator) {
  if (denominator == 0) return 0;
  return numerator * 1000000 / denominator;
}

void MetricsRegistry::SetCounter(const std::string& name, uint64_t value,
                                 MetricStability stability) {
  counters_[name] = {value, stability};
}

void MetricsRegistry::SetGauge(const std::string& name, uint64_t ppm,
                               MetricStability stability) {
  gauges_[name] = {ppm, stability};
}

void MetricsRegistry::DefineHistogram(const std::string& name,
                                      std::vector<uint64_t> bounds,
                                      MetricStability stability) {
  HistogramSnapshot histogram;
  histogram.bounds = std::move(bounds);
  histogram.counts.assign(histogram.bounds.size() + 1, 0);
  histograms_[name] = {std::move(histogram), stability};
}

void MetricsRegistry::Observe(const std::string& name, uint64_t value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return;
  HistogramSnapshot& histogram = it->second.first;
  size_t slot = histogram.bounds.size();
  for (size_t i = 0; i < histogram.bounds.size(); ++i) {
    if (value <= histogram.bounds[i]) {
      slot = i;
      break;
    }
  }
  histogram.counts[slot] += 1;
  histogram.total += value;
  histogram.observations += 1;
}

void MetricsRegistry::ImportEngineSnapshot(
    const EngineMetricsSnapshot& snapshot) {
  for (const EngineCounterInfo& counter : kEngineCounters) {
    SetCounter(std::string("engine.") + counter.name, snapshot.*counter.field,
               counter.stability);
  }
  // Phase timings are wall-clock: volatile, reporting-only.
  for (size_t i = 0; i < kNumEnginePhases; ++i) {
    SetCounter(std::string("engine.phase_ns.") +
                   EnginePhaseName(static_cast<EnginePhase>(i)),
               snapshot.phase_nanos[i], MetricStability::kVolatile);
  }
  SetGauge("engine.invocation_error_rate_ppm",
           RatioPpm(snapshot.invocation_errors, snapshot.invocations),
           MetricStability::kStable);
}

void MetricsRegistry::ImportTrace(const Tracer& tracer) {
  const std::vector<TraceSpan> spans = tracer.spans();
  uint64_t replayed = 0;
  std::map<std::string, uint64_t> per_kind;
  DefineHistogram("trace.examples_per_module",
                  {0, 1, 2, 4, 8, 16, 32, 64, 128},
                  MetricStability::kStable);
  for (const TraceSpan& span : spans) {
    per_kind[SpanKindName(span.kind)] += 1;
    if (span.replayed) ++replayed;
    if (span.kind == SpanKind::kBatch) {
      for (const auto& [name, value] : span.counters) {
        if (name == "examples") Observe("trace.examples_per_module", value);
      }
    }
  }
  SetCounter("trace.spans", spans.size(), MetricStability::kStable);
  SetCounter("trace.spans_replayed", replayed, MetricStability::kStable);
  for (const auto& [kind, count] : per_kind) {
    SetCounter("trace.spans." + kind, count, MetricStability::kStable);
  }
}

}  // namespace dexa::obs
