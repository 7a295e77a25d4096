#include "engine/metrics.h"

namespace dexa {

const char* EnginePhaseName(EnginePhase phase) {
  switch (phase) {
    case EnginePhase::kGenerate:
      return "generate";
    case EnginePhase::kReplay:
      return "replay";
    case EnginePhase::kCompare:
      return "compare";
    case EnginePhase::kEnact:
      return "enact";
    case EnginePhase::kOther:
      return "other";
  }
  return "unknown";
}

EngineMetricsSnapshot CountedSince(const EngineMetricsSnapshot& before,
                                   const EngineMetricsSnapshot& after) {
  EngineMetricsSnapshot delta;
  for (const EngineCounterInfo& counter : kEngineCounters) {
    delta.*counter.field = after.*counter.field - before.*counter.field;
  }
  for (size_t p = 0; p < kNumEnginePhases; ++p) {
    delta.phase_nanos[p] = after.phase_nanos[p] - before.phase_nanos[p];
  }
  return delta;
}

EngineMetricsSnapshot EngineMetrics::Snapshot() const {
  EngineMetricsSnapshot snapshot;
  for (size_t c = 0; c < kNumEngineCounters; ++c) {
    snapshot.*kEngineCounters[c].field =
        counters_[c].value.load(std::memory_order_relaxed);
  }
  for (size_t p = 0; p < kNumEnginePhases; ++p) {
    snapshot.phase_nanos[p] =
        phase_nanos_[p].value.load(std::memory_order_relaxed);
  }
  return snapshot;
}

}  // namespace dexa
