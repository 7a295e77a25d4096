#ifndef DEXA_ENGINE_METRICS_H_
#define DEXA_ENGINE_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>

namespace dexa {

/// The phases of the annotation pipeline that route work through the
/// invocation engine. Wall time is accumulated per phase so a run can be
/// broken down into "where did the invocations go".
enum class EnginePhase {
  kGenerate,  ///< ExampleGenerator::Generate (Section 3.2 enumeration).
  kReplay,    ///< ExampleGenerator::ReplayInputs (Section 6 alignment).
  kCompare,   ///< ModuleMatcher comparison / discovery probing.
  kEnact,     ///< Workflow enactment (provenance capture).
  kOther,     ///< Everything else (composition search, ad-hoc callers).
};

inline constexpr size_t kNumEnginePhases = 5;

const char* EnginePhaseName(EnginePhase phase);

/// Whether a counter's run total is schedule-independent (identical at any
/// thread count for the same seed), so that golden traces and the stable
/// metrics section may carry it, or varies with the schedule or deployment.
enum class CounterStability { kStable, kVolatile };

/// Every engine counter, once: X(name, stability). The name is the
/// EngineCounter enumerator, the EngineMetricsSnapshot field and the metric
/// `engine.<name>`. Stable counters come first, in the order spans list
/// their deltas (the golden traces depend on it). Concept-cache lookups
/// are volatile because every caller sharing the engine's metrics counts
/// into them, not only the run being traced; image loads because they
/// vary with --kb-image, not with the annotations.
#define DEXA_ENGINE_COUNTERS(X)                                             \
  X(invocations, kStable)             /* Module invocations routed.     */ \
  X(invocation_errors, kStable)       /* Invocations that were non-OK.  */ \
  X(batches, kStable)                 /* InvokeBatch / ForEach calls.   */ \
  X(retries, kStable)                 /* Retries after transient faults. */ \
  X(deadline_exhaustions, kStable)    /* Invocations cut off by budget. */ \
  X(breaker_trips, kStable)           /* Circuit breakers tripped open. */ \
  X(breaker_short_circuits, kStable)  /* Invocations denied by breaker. */ \
  X(injected_faults, kStable)         /* Faults made by FaultInjectors. */ \
  X(commits, kStable)                 /* Ordered commit-hook calls.     */ \
  X(journal_records, kStable)         /* Records appended to a journal. */ \
  X(journal_segments_sealed, kStable) /* Journal segments sealed/rolled. */ \
  X(torn_tails_discarded, kStable)    /* Damaged journal tails dropped. */ \
  X(modules_replayed, kStable)        /* Units served from the journal. */ \
  X(modules_reinvoked, kStable)       /* Units run live by durable runs. */ \
  X(cache_hits, kVolatile)            /* ConceptCache lookups answered. */ \
  X(cache_queries, kVolatile)         /* ConceptCache lookups.          */ \
  X(kb_image_loads, kVolatile)        /* KB images mapped and verified. */

enum class EngineCounter : size_t {
#define DEXA_ENGINE_COUNTER_ENUM(name, stability) name,
  DEXA_ENGINE_COUNTERS(DEXA_ENGINE_COUNTER_ENUM)
#undef DEXA_ENGINE_COUNTER_ENUM
};

/// A plain, copyable snapshot of the engine's counters, safe to hand to
/// reporting code without touching atomics.
struct EngineMetricsSnapshot {
#define DEXA_ENGINE_COUNTER_FIELD(name, stability) uint64_t name = 0;
  DEXA_ENGINE_COUNTERS(DEXA_ENGINE_COUNTER_FIELD)
#undef DEXA_ENGINE_COUNTER_FIELD

  uint64_t phase_nanos[kNumEnginePhases] = {0, 0, 0, 0, 0};
};

/// One row of the counter table, for code that walks every counter.
struct EngineCounterInfo {
  const char* name;
  CounterStability stability;
  uint64_t EngineMetricsSnapshot::*field;
};

/// The counter table in declaration order, indexed by EngineCounter.
inline constexpr EngineCounterInfo kEngineCounters[] = {
#define DEXA_ENGINE_COUNTER_INFO(name, stability) \
  {#name, CounterStability::stability, &EngineMetricsSnapshot::name},
    DEXA_ENGINE_COUNTERS(DEXA_ENGINE_COUNTER_INFO)
#undef DEXA_ENGINE_COUNTER_INFO
};
inline constexpr size_t kNumEngineCounters = std::size(kEngineCounters);

/// Thread-safe run counters for the invocation engine: plain atomics bumped
/// from worker threads, snapshotted into EngineMetricsSnapshot for
/// reporting. Per-module GenerationStats is a projection of these counters
/// over one Generate() call, so bench output stays unchanged while the
/// engine-wide totals become observable.
class EngineMetrics {
 public:
  EngineMetrics() = default;

  EngineMetrics(const EngineMetrics&) = delete;
  EngineMetrics& operator=(const EngineMetrics&) = delete;

  void Add(EngineCounter counter, uint64_t n = 1) {
    counters_[static_cast<size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }
  void AddPhaseNanos(EnginePhase phase, uint64_t nanos) {
    phase_nanos_[static_cast<size_t>(phase)].fetch_add(
        nanos, std::memory_order_relaxed);
  }

  EngineMetricsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> counters_[kNumEngineCounters] = {};
  std::atomic<uint64_t> phase_nanos_[kNumEnginePhases] = {};
};

/// RAII wall-clock accumulator: adds the scope's duration to the metrics'
/// per-phase counter on destruction. Null metrics are tolerated so callers
/// can time unconditionally.
///
/// This is the one sanctioned wall-clock in the deterministic layers: phase
/// timings are *reporting-only* observability (BENCH_*.json, metrics.json) and
/// never feed an output-affecting decision — retry schedules, deadlines and
/// breaker cooldowns all run on the VirtualClock instead.
class PhaseTimer {
 public:
  PhaseTimer(EngineMetrics* metrics, EnginePhase phase)
      : metrics_(metrics),
        phase_(phase),
        // dexa-lint: allow(wall-clock) — reporting-only, see class comment.
        start_(std::chrono::steady_clock::now()) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    if (metrics_ == nullptr) return;
    // dexa-lint: allow(wall-clock) — reporting-only, see class comment.
    auto elapsed = std::chrono::steady_clock::now() - start_;
    metrics_->AddPhaseNanos(
        phase_, static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()));
  }

 private:
  EngineMetrics* metrics_;
  EnginePhase phase_;
  // dexa-lint: allow(wall-clock) — reporting-only, see class comment.
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dexa

#endif  // DEXA_ENGINE_METRICS_H_
