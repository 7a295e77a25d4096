#ifndef DEXA_CORE_ENGINE_CONFIG_H_
#define DEXA_CORE_ENGINE_CONFIG_H_

#include <cstdint>
#include <memory>

#include "core/example_generator.h"
#include "engine/invocation_engine.h"

namespace dexa {

/// One fluent surface for the three option structs a dexa pipeline is
/// configured through — EngineOptions (threading + seed), RetryPolicy
/// (fault tolerance) and GeneratorOptions (example generation) — so call
/// sites state their intent in one chained expression instead of three
/// aggregate initializations:
///
///   EngineConfig config = EngineConfig()
///       .Threads(8)
///       .Seed(0xD5)
///       .MaxAttempts(4)
///       .DeadlineNanos(50'000'000)
///       .Breaker(/*threshold=*/3, /*cooldown_ns=*/100'000'000)
///       .MaxCombinations(1024);
///   auto engine = config.BuildEngine();
///   ExampleGenerator generator = config.MakeGenerator(ontology, pool,
///                                                     engine.get());
///
/// The underlying aggregate structs remain public API, and every setter is
/// a thin assignment into them. A knob without a setter here (such as
/// use_realization) is set on the struct, which the ExampleGenerator and
/// InvocationEngine constructors take directly. Defaults are the structs'
/// defaults — a default EngineConfig builds the exact engine and generator
/// the pre-config constructors did.
class EngineConfig {
 public:
  EngineConfig() = default;

  // -- Engine: threading and determinism ----------------------------------

  /// Worker threads (0 = hardware concurrency, 1 = serial inline).
  EngineConfig& Threads(size_t threads) {
    engine_.threads = threads;
    return *this;
  }

  /// Base seed for per-task RNG streams and retry jitter.
  EngineConfig& Seed(uint64_t seed) {
    engine_.seed = seed;
    return *this;
  }

  // -- Retry policy: fault tolerance --------------------------------------

  /// Total attempts per invocation (1 = fail fast, no retries).
  EngineConfig& MaxAttempts(int max_attempts) {
    engine_.retry.max_attempts = max_attempts;
    return *this;
  }

  /// Exponential-backoff schedule for retried attempts.
  EngineConfig& Backoff(uint64_t initial_ns, double multiplier,
                        uint64_t max_ns) {
    engine_.retry.initial_backoff_ns = initial_ns;
    engine_.retry.backoff_multiplier = multiplier;
    engine_.retry.max_backoff_ns = max_ns;
    return *this;
  }

  /// Deterministic jitter amplitude (backoffs scale by [1 - j, 1 + j]).
  EngineConfig& Jitter(double jitter) {
    engine_.retry.jitter = jitter;
    return *this;
  }

  /// Virtual deadline budget per invocation including retries; 0 = none.
  EngineConfig& DeadlineNanos(uint64_t deadline_ns) {
    engine_.retry.deadline_ns = deadline_ns;
    return *this;
  }

  /// Per-module circuit breaker: trip after `threshold` consecutive
  /// permanent-class failures, admit a half-open probe after `cooldown_ns`
  /// of virtual time. threshold = 0 disables the breaker.
  EngineConfig& Breaker(int threshold, uint64_t cooldown_ns = 100'000'000) {
    engine_.retry.breaker_threshold = threshold;
    engine_.retry.breaker_cooldown_ns = cooldown_ns;
    return *this;
  }

  // -- Generator: example generation --------------------------------------

  /// Hard cap on input combinations enumerated per module.
  EngineConfig& MaxCombinations(size_t max_combinations) {
    generator_.max_combinations = max_combinations;
    return *this;
  }

  /// Full cartesian enumeration vs the pinned-tail ablation strategy.
  EngineConfig& FullCartesian(bool full_cartesian) {
    generator_.full_cartesian = full_cartesian;
    return *this;
  }

  // -- Products ------------------------------------------------------------

  const EngineOptions& engine_options() const { return engine_; }
  const RetryPolicy& retry_policy() const { return engine_.retry; }
  const GeneratorOptions& generator_options() const { return generator_; }

  /// Builds an InvocationEngine with the accumulated engine + retry options.
  std::unique_ptr<InvocationEngine> BuildEngine() const {
    return std::make_unique<InvocationEngine>(engine_);
  }

  /// Builds an ExampleGenerator with the accumulated generator options,
  /// reasoning through `cache` and running on `engine` (nullptr = the
  /// shared serial engine).
  ExampleGenerator MakeGenerator(std::shared_ptr<const ConceptCache> cache,
                                 const AnnotatedInstancePool* pool,
                                 InvocationEngine* engine = nullptr) const {
    return ExampleGenerator(std::move(cache), pool, generator_, engine);
  }

 private:
  EngineOptions engine_;
  GeneratorOptions generator_;
};

}  // namespace dexa

#endif  // DEXA_CORE_ENGINE_CONFIG_H_
