#include "obs/trace.h"

namespace dexa::obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun:
      return "run";
    case SpanKind::kPhase:
      return "phase";
    case SpanKind::kBatch:
      return "batch";
    case SpanKind::kInvocation:
      return "invocation";
    case SpanKind::kCommit:
      return "commit";
  }
  return "unknown";
}

std::vector<std::pair<std::string, uint64_t>> StableCounters(
    const EngineMetricsSnapshot& snapshot) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const EngineCounterInfo& counter : kEngineCounters) {
    if (counter.stability == CounterStability::kStable) {
      out.emplace_back(counter.name, snapshot.*counter.field);
    }
  }
  return out;
}

std::vector<std::pair<std::string, uint64_t>> StableCounterDeltas(
    const EngineMetricsSnapshot& before, const EngineMetricsSnapshot& after) {
  std::vector<std::pair<std::string, uint64_t>> out;
  std::vector<std::pair<std::string, uint64_t>> b = StableCounters(before);
  std::vector<std::pair<std::string, uint64_t>> a = StableCounters(after);
  for (size_t i = 0; i < a.size(); ++i) {
    // Counters are monotone; a snapshot pair from one run can never go
    // backwards, so the unsigned subtraction is safe.
    uint64_t delta = a[i].second - b[i].second;
    if (delta != 0) out.emplace_back(a[i].first, delta);
  }
  return out;
}

uint64_t Tracer::BeginSpan(SpanKind kind, std::string name, uint64_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Annotate runs open one batch span per module; grow in large steps so
  // the per-span cost stays flat.
  if (spans_.size() == spans_.capacity()) {
    spans_.reserve(spans_.empty() ? 128 : spans_.size() * 2);
  }
  TraceSpan span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.kind = kind;
  span.name = std::move(name);
  span.start_tick = next_tick_++;
  if (clock_ != nullptr) span.virtual_ns = clock_->Now();
  spans_.push_back(std::move(span));
  ++open_;
  return spans_.back().id;
}

void Tracer::EndSpan(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return;
  TraceSpan& span = spans_[id - 1];
  if (span.end_tick != 0) return;  // Already closed.
  span.end_tick = next_tick_++;
  if (open_ > 0) --open_;
}

void Tracer::AddCounter(uint64_t id, std::string name, uint64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].counters.emplace_back(std::move(name), value);
}

void Tracer::AddCounters(
    uint64_t id, std::vector<std::pair<std::string, uint64_t>> deltas) {
  if (deltas.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return;
  std::vector<std::pair<std::string, uint64_t>>& counters =
      spans_[id - 1].counters;
  for (auto& delta : deltas) counters.push_back(std::move(delta));
}

void Tracer::MarkReplayed(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].replayed = true;
}

std::vector<TraceSpan> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

size_t Tracer::open_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_;
}

}  // namespace dexa::obs
