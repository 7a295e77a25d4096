#ifndef DEXA_ENGINE_INVOCATION_ENGINE_H_
#define DEXA_ENGINE_INVOCATION_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "engine/metrics.h"
#include "engine/virtual_clock.h"
#include "modules/module.h"
#include "types/value.h"

namespace dexa {

/// How the engine reacts to module faults: bounded exponential backoff with
/// deterministic jitter for transient-class errors, a virtual-time deadline
/// budget per invocation, and a per-module circuit breaker for
/// permanent-class errors. The defaults disable everything, so engines
/// constructed without a policy behave exactly as before.
///
/// All durations are *virtual* nanoseconds on the engine's VirtualClock:
/// backoffs never sleep, they only advance the clock, so retry schedules
/// are reproducible bit-for-bit and cost no wall time.
struct RetryPolicy {
  /// Total attempts per invocation (1 = no retries). Only statuses with
  /// IsRetryable() — kTransient, kTimeout — are retried; the dispatch is on
  /// codes, never on message strings.
  int max_attempts = 1;

  /// Virtual backoff before retry k is
  /// min(initial_backoff_ns * multiplier^k, max_backoff_ns), scaled by a
  /// deterministic jitter factor in [1 - jitter, 1 + jitter] drawn from
  /// (engine seed, invocation key, attempt) — identical at any thread count.
  uint64_t initial_backoff_ns = 1'000'000;  // 1 virtual ms
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_ns = 64'000'000;  // 64 virtual ms
  double jitter = 0.25;

  /// Virtual budget for one invocation including all its retries, injected
  /// latency and backoff waits; 0 = unbounded. Exhaustion yields kTimeout.
  uint64_t deadline_ns = 0;

  /// Consecutive permanent-class failures (IsPermanentFailure(): kPermanent,
  /// kDecayed, kUnavailable) after which the module's breaker trips open;
  /// 0 disables the breaker.
  int breaker_threshold = 0;

  /// Virtual time a tripped breaker stays open before admitting a
  /// half-open probe; the probe's success closes the breaker, its failure
  /// re-opens it for another cooldown.
  uint64_t breaker_cooldown_ns = 100'000'000;  // 100 virtual ms

  bool retries_enabled() const { return max_attempts > 1; }
  bool breaker_enabled() const { return breaker_threshold > 0; }
};

/// The deterministic backoff wait before retry `attempt` (0-based) of the
/// invocation identified by `key`, jittered from (`seed`, `key`, attempt).
/// Exposed so tests can assert the schedule independently of the engine.
uint64_t RetryBackoffNanos(const RetryPolicy& policy, uint64_t seed,
                           uint64_t key, int attempt);

/// Observable state of one module's circuit breaker.
enum class BreakerStage {
  kClosed,    ///< Normal operation.
  kOpen,      ///< Tripped; invocations short-circuit with kDecayed.
  kHalfOpen,  ///< Cooldown elapsed; the next invocation is a probe.
};

const char* BreakerStageName(BreakerStage stage);

/// Snapshot of a breaker for reporting/tests.
struct BreakerView {
  BreakerStage stage = BreakerStage::kClosed;
  int consecutive_permanent_failures = 0;
  uint64_t trips = 0;
};

/// Configuration of an InvocationEngine.
///
/// Aggregate initialization and the fluent EngineConfig builder
/// (core/engine_config.h) are both public API, by decision: a call site
/// that sets one knob spells the struct (`EngineOptions{.threads = 1}`),
/// and one that sets engine, retry and generator knobs together chains the
/// builder. The perfbench harness relies on both spellings.
struct EngineOptions {
  /// Worker threads in the pool. 0 means hardware concurrency; 1 means no
  /// pool is spawned and every batch runs inline on the caller.
  size_t threads = 0;

  /// Base seed for RngFor(): per-task generators are forked from it, never
  /// shared across workers. Also salts the retry-jitter streams.
  uint64_t seed = 0x5eed;

  /// Fault-tolerance policy; the default (no retries, no breaker) preserves
  /// the fail-fast behavior of the pre-fault-tolerance engine.
  RetryPolicy retry = {};
};

/// The shared invocation layer: a fixed worker pool that fans module
/// invocations (and arbitrary index loops) out across threads while
/// preserving input-order results, plus the run metrics every consumer
/// reports into.
///
/// Contracts:
///  * Determinism — InvokeBatch writes result i of input i, regardless of
///    which worker ran it or in what order; serial and parallel runs are
///    bit-identical. Stochastic tasks must draw randomness from
///    RngFor(task_index), never from shared mutable RNG state.
///  * Re-entrancy — a task running on a worker may itself call ForEach /
///    InvokeBatch; the inner caller participates in executing its own batch
///    (it does not merely wait), so nested batches cannot deadlock the pool
///    even when every worker is busy. When no worker is idle, a nested
///    batch of the same engine runs inline on its caller instead of being
///    queued for nobody (see ForEach).
///  * Module thread-safety — Module::Invoke is const and dexa modules are
///    pure functions over immutable state (closures over a const
///    KnowledgeBase); an engine with threads > 1 requires that purity of
///    any module it is handed.
class InvocationEngine {
 public:
  explicit InvocationEngine(EngineOptions options = {});
  ~InvocationEngine();

  InvocationEngine(const InvocationEngine&) = delete;
  InvocationEngine& operator=(const InvocationEngine&) = delete;

  /// Worker threads actually running (>= 1; the caller always counts).
  size_t threads() const { return threads_; }

  const EngineOptions& options() const { return options_; }

  EngineMetrics& metrics() { return metrics_; }
  const EngineMetrics& metrics() const { return metrics_; }

  /// The engine's virtual clock: advanced by injected latency, retry
  /// backoffs and breaker cooldowns. Tests advance it explicitly to move a
  /// tripped breaker through its cooldown.
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }

  /// The breaker state of module `module_id` (kClosed view for modules the
  /// engine never saw fail).
  BreakerView BreakerOf(const std::string& module_id) const;

  /// The RNG stream for task `task_index`: forked from the engine seed, so
  /// streams are independent per task and stable across thread counts.
  Rng RngFor(uint64_t task_index) const {
    return Rng(options_.seed).Fork(task_index);
  }

  /// Invokes `module` once, counting the invocation into the engine
  /// metrics. The single-combination path every sequential consumer
  /// (enactor, discovery, composition) routes through.
  ///
  /// Under a RetryPolicy this is the resilient path: the module's breaker
  /// is consulted first (an open breaker short-circuits with kDecayed),
  /// transient-class failures are retried with deterministic backoff inside
  /// the invocation's virtual deadline budget, and the outcome advances the
  /// breaker state machine.
  [[nodiscard]] Result<std::vector<Value>> Invoke(const Module& module,
                                    const std::vector<Value>& inputs,
                                    EnginePhase phase = EnginePhase::kOther);

  /// Invokes `module` on every input vector of the batch, in parallel when
  /// the pool has workers, and returns per-combination results in input
  /// order regardless of scheduling.
  ///
  /// Breaker evaluation is batch-atomic: admission is decided once before
  /// the fan-out (an open breaker short-circuits the whole batch), and the
  /// breaker is advanced afterwards by folding the results in input order —
  /// so thread scheduling can never influence a breaker transition, and
  /// runs stay byte-identical at any thread count. Retries happen inside
  /// each task with jitter keyed on the task index, which is equally
  /// schedule-independent.
  std::vector<Result<std::vector<Value>>> InvokeBatch(
      const Module& module, std::span<const std::vector<Value>> input_vectors,
      EnginePhase phase = EnginePhase::kOther);

  /// Runs `fn(0) .. fn(n-1)` across the pool; the calling thread
  /// participates. Blocks until every index completed. `fn` must be safe to
  /// call concurrently from multiple threads for distinct indices.
  ///
  /// Called from inside a task of this engine while no worker is idle (the
  /// pool is saturated by the outer batch), it runs `fn(0) .. fn(n-1)`
  /// inline on the caller: queueing the batch would only cost a lock, a
  /// wakeup and a reap with nobody to take it. Either way the call counts
  /// as one batch.
  void ForEach(size_t n, const std::function<void(size_t)>& fn);

  /// Workers currently blocked on an empty queue, waiting for a batch.
  size_t idle_workers() const {
    return idle_workers_.load(std::memory_order_relaxed);
  }

  /// A process-wide serial engine (threads = 1): the default every
  /// refactored constructor falls back to, so call sites migrate to the
  /// engine layer without changing behavior or spawning threads.
  static InvocationEngine& Serial();

 private:
  /// One fan-out in flight: workers and the submitting caller claim indices
  /// from `next` until exhausted; `done` counts completions.
  struct Batch {
    explicit Batch(size_t size, const std::function<void(size_t)>& body)
        : n(size), fn(body) {}
    const size_t n;
    const std::function<void(size_t)>& fn;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mutex;
    std::condition_variable completed;
  };

  /// One module's circuit-breaker record. `reopen_at` is the virtual time
  /// at which an open breaker admits a half-open probe; the kHalfOpen stage
  /// is derived (open && clock >= reopen_at), never stored.
  struct Breaker {
    int consecutive_permanent = 0;
    bool open = false;
    uint64_t reopen_at = 0;
    uint64_t trips = 0;
  };

  /// Claims and runs indices of `batch` until none are left, marking the
  /// thread as running this engine's tasks meanwhile. Returns after the
  /// last index it completed (not necessarily the batch's last).
  void DrainBatch(Batch& batch) const;

  void WorkerLoop(const std::stop_token& stop);

  /// Runs one invocation with retries and the deadline budget, but without
  /// touching the breaker (admission and state advance are the caller's
  /// job, so batches can evaluate the breaker atomically). `key` seeds the
  /// jitter stream; it must be stable across thread counts.
  [[nodiscard]] Result<std::vector<Value>> InvokeWithRetries(const Module& module,
                                               const std::vector<Value>& inputs,
                                               uint64_t key);

  /// True if the module's breaker admits an invocation right now (closed,
  /// or open with the cooldown elapsed = half-open probe).
  bool BreakerAdmits(const std::string& module_id);

  /// Advances the breaker with one invocation outcome.
  void BreakerObserve(const std::string& module_id, const Status& status);

  /// The breaker record of `module_id`, created closed on first touch.
  /// Callers hold breaker_mutex_ for the whole read-modify-write.
  Breaker& BreakerSlot(const std::string& module_id)
      DEXA_REQUIRES(breaker_mutex_);

  // dexa-lint: allow(guarded-field) — set in the ctor, immutable after.
  EngineOptions options_;
  // dexa-lint: allow(guarded-field) — set in the ctor, immutable after.
  size_t threads_ = 1;
  // dexa-lint: allow(guarded-field) — internally synchronized (atomics).
  EngineMetrics metrics_;
  // dexa-lint: allow(guarded-field) — internally synchronized (own mutex).
  VirtualClock clock_;

  mutable std::mutex breaker_mutex_;
  std::map<std::string, Breaker> breakers_ DEXA_GUARDED_BY(breaker_mutex_);

  std::mutex queue_mutex_;
  std::condition_variable_any queue_cv_;
  std::deque<std::shared_ptr<Batch>> queue_ DEXA_GUARDED_BY(queue_mutex_);
  // dexa-lint: allow(guarded-field) — atomic, read only as a hint.
  std::atomic<size_t> idle_workers_{0};
  // dexa-lint: allow(guarded-field) — written once in the ctor, joined in the dtor.
  std::vector<std::jthread> workers_;
};

}  // namespace dexa

#endif  // DEXA_ENGINE_INVOCATION_ENGINE_H_
