#ifndef DEXA_OBS_TRACE_H_
#define DEXA_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/metrics.h"
#include "engine/virtual_clock.h"

namespace dexa::obs {

/// The hierarchy levels of a run trace: a run owns phases, a phase owns
/// batches (one per annotated module), a batch owns invocations (one per
/// workflow processor in the sequential enactment path), and commits mark
/// journal appends.
enum class SpanKind {
  kRun,
  kPhase,
  kBatch,
  kInvocation,
  kCommit,
};

/// Stable lowercase name of a span kind ("run", "phase", ...).
const char* SpanKindName(SpanKind kind);

/// One closed (or still open) span of a run trace.
///
/// Timestamps are *logical ticks* issued by the owning Tracer in recording
/// order — never wall-clock readings — so two runs that perform the same
/// work record byte-identical tick streams regardless of thread count or
/// scheduling. `virtual_ns` additionally carries the engine's VirtualClock
/// reading at the moment the span opened; spans are only opened at
/// sequential points of the pipeline (phase boundaries, commit loops),
/// where the clock reading is schedule-independent too.
struct TraceSpan {
  uint64_t id = 0;      ///< 1-based, creation order; 0 is "no span".
  uint64_t parent = 0;  ///< Parent span id, 0 for roots.
  SpanKind kind = SpanKind::kRun;
  std::string name;
  uint64_t start_tick = 0;
  uint64_t end_tick = 0;   ///< 0 while the span is still open.
  uint64_t virtual_ns = 0; ///< VirtualClock reading when the span opened.
  bool replayed = false;   ///< Served from a journal, not live work.
  /// Named counter annotations, in recording order. For spans closed at
  /// deterministic points these are engine counter *deltas* restricted to
  /// the schedule-independent subset (see StableCounterDeltas).
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// The engine counters tagged kStable in DEXA_ENGINE_COUNTERS
/// (engine/metrics.h), as (name, value) pairs in table order: their run
/// totals are identical at any thread count for the same seed. Volatile
/// counters and the wall-clock phase timings are left out.
std::vector<std::pair<std::string, uint64_t>> StableCounters(
    const EngineMetricsSnapshot& snapshot);

/// Per-counter difference `after - before` over StableCounters, with
/// zero-delta entries omitted (both runs of a deterministic workload omit
/// the same entries, so traces stay byte-identical).
std::vector<std::pair<std::string, uint64_t>> StableCounterDeltas(
    const EngineMetricsSnapshot& before, const EngineMetricsSnapshot& after);

/// Records a hierarchical span tree for one pipeline run.
///
/// Determinism contract: spans must only be opened/closed from sequential
/// code (phase boundaries, registration-order commit loops, the
/// topological enactment loop) — never from inside a concurrent ForEach
/// task. The tracer is internally locked so a violation corrupts nothing,
/// but span order (and therefore the exported bytes) would become
/// schedule-dependent. All state is logical: no wall clock, no entropy.
///
/// The Begin/End pair below is the low-level surface for this layer's own
/// RAII guard; instrumented layers must hold spans through ScopedSpan so
/// every early return closes them (enforced by the dexa-lint `manual-span`
/// rule).
class Tracer {
 public:
  /// `clock` (optional) stamps each span with the VirtualClock reading at
  /// open; pass the consuming engine's clock.
  explicit Tracer(const VirtualClock* clock = nullptr) : clock_(clock) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; returns its id (parent 0 = root).
  uint64_t BeginSpan(SpanKind kind, std::string name, uint64_t parent = 0);

  /// Closes an open span; closing an unknown or closed id is a no-op.
  void EndSpan(uint64_t id);

  /// Appends a named counter annotation to an open or closed span.
  void AddCounter(uint64_t id, std::string name, uint64_t value);

  /// Appends every entry of `deltas` to the span's counters.
  void AddCounters(uint64_t id,
                   std::vector<std::pair<std::string, uint64_t>> deltas);

  /// Marks the span as replayed from a journal (not live work).
  void MarkReplayed(uint64_t id);

  /// Snapshot of all spans recorded so far, in creation order.
  std::vector<TraceSpan> spans() const;

  /// Number of spans opened but not yet closed.
  size_t open_spans() const;

 private:
  const VirtualClock* clock_;
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
  uint64_t next_tick_ = 0;
  size_t open_ = 0;
};

/// RAII span guard: opens on construction, closes on destruction (or on an
/// explicit End()). Tolerates a null tracer so call sites can instrument
/// unconditionally — every member is a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, std::string name,
             uint64_t parent = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->BeginSpan(kind, std::move(name), parent);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { End(); }

  /// The underlying span id (0 when tracing is off) — pass as `parent` to
  /// child spans.
  uint64_t id() const { return id_; }

  /// Closes the span now; later calls (and the destructor) are no-ops.
  void End() {
    if (tracer_ != nullptr && !ended_) {
      tracer_->EndSpan(id_);
      ended_ = true;
    }
  }

  void Counter(std::string name, uint64_t value) {
    if (tracer_ != nullptr) tracer_->AddCounter(id_, std::move(name), value);
  }

  /// Appends a batch of counters in one locked call — the cheap path for
  /// per-module hot loops (one mutex acquisition instead of one per
  /// counter).
  void Counters(std::vector<std::pair<std::string, uint64_t>> counters) {
    if (tracer_ != nullptr) tracer_->AddCounters(id_, std::move(counters));
  }

  /// Annotates the span with the stable engine-counter deltas over its
  /// lifetime (take `before` when opening the span).
  void CounterDeltas(const EngineMetricsSnapshot& before,
                     const EngineMetricsSnapshot& after) {
    if (tracer_ != nullptr) {
      tracer_->AddCounters(id_, StableCounterDeltas(before, after));
    }
  }

  void MarkReplayed() {
    if (tracer_ != nullptr) tracer_->MarkReplayed(id_);
  }

 private:
  Tracer* tracer_;
  uint64_t id_ = 0;
  bool ended_ = false;
};

}  // namespace dexa::obs

#endif  // DEXA_OBS_TRACE_H_
