#ifndef DEXA_CORE_EXAMPLE_GENERATOR_H_
#define DEXA_CORE_EXAMPLE_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/partitioner.h"
#include "engine/invocation_engine.h"
#include "modules/data_example.h"
#include "modules/module.h"
#include "modules/registry.h"
#include "pool/instance_pool.h"

namespace dexa {

namespace obs {
class Tracer;  // obs/trace.h — optional run tracing, forward-declared so
               // the core layer's header does not depend on obs.
}  // namespace obs

/// Tuning knobs for the data-example generator; the defaults implement the
/// paper's heuristic, the alternatives exist for the ablation benches.
///
/// Aggregate initialization and the fluent EngineConfig builder
/// (core/engine_config.h) are both public API, by decision: perfbench
/// constructs `GeneratorOptions{}` directly and builds its engines through
/// EngineConfig, so neither spelling can go. The builder configures
/// generator, engine and retry policy in one chained expression.
struct GeneratorOptions {
  /// Hard cap on input combinations enumerated for one module.
  size_t max_combinations = 4096;

  /// Realization semantics (Section 3.2): pick pool instances of the
  /// partition concept itself, never of a strict sub-concept. The ablation
  /// disables this to measure what annotating with arbitrary (possibly more
  /// specific) instances does to completeness.
  bool use_realization = true;

  /// When false, only the first input keeps all its partitions and every
  /// other input is pinned to its first coverable partition ("pinned"
  /// strategy) instead of the full cartesian product. Ablation knob for the
  /// cost/completeness trade-off of combination enumeration.
  bool full_cartesian = true;
};

/// Statistics the generator reports alongside the examples: the per-call
/// projection of the engine-wide EngineMetrics counters onto one module's
/// Generate() run (the engine accumulates the same events globally).
struct GenerationStats {
  size_t input_partitions = 0;
  size_t coverable_input_partitions = 0;  ///< Partitions with a pool instance.
  size_t combinations_tried = 0;
  size_t combinations_skipped = 0;  ///< Lost to the max_combinations cap.
  size_t invocation_errors = 0;  ///< Combinations discarded per Section 3.2.
  /// Combinations lost to the transient error class even after the engine's
  /// retries (kTransient / kTimeout): unlike invocation_errors these are
  /// not "abnormal terminations" of the module's behavior, they are
  /// infrastructure faults — a retry policy shrinks this number, never
  /// invocation_errors.
  size_t transient_exhausted = 0;
  /// True when the module failed with a permanent-class error (kPermanent /
  /// kDecayed / kUnavailable, including a tripped breaker) during
  /// generation: the examples collected so far are a partial annotation and
  /// the module is a repair candidate.
  bool decayed = false;
  size_t examples = 0;
};

/// The generated annotation for one module.
struct GenerationOutcome {
  DataExampleSet examples;
  GenerationStats stats;
};

/// The paper's heuristic for generating data examples (Section 3.2):
///  1. partition the domain of every input by its semantic annotation;
///  2. select a realization instance per partition from the annotated pool
///     (structurally compatible with the parameter);
///  3. invoke the module on every combination of selected values;
///  4. keep a data example for each combination that terminated normally.
///
/// Step 3 is routed through an InvocationEngine: combinations are batched
/// and fanned across the engine's worker pool, with results folded back in
/// enumeration order so any thread count yields an identical example set.
class ExampleGenerator {
 public:
  /// Reasons through `cache`, shared with the other pipeline components
  /// (matcher, classifier, suggester). `engine` defaults to the shared
  /// serial engine; pass a pooled engine to parallelize invocation.
  ExampleGenerator(std::shared_ptr<const ConceptCache> cache,
                   const AnnotatedInstancePool* pool,
                   GeneratorOptions options = {},
                   InvocationEngine* engine = nullptr)
      : partitioner_(std::move(cache)),
        pool_(pool),
        options_(options),
        engine_(engine != nullptr ? engine : &InvocationEngine::Serial()) {}

  /// Generates `∆(m)` for `module`. Fails only on internal errors; a module
  /// for which no combination terminates normally yields an empty set.
  [[nodiscard]] Result<GenerationOutcome> Generate(const Module& module) const;

  /// Invokes `module` on the input vectors of `examples` (e.g. examples of
  /// another module being compared, Section 6) and returns the examples it
  /// produces; combinations the module rejects are skipped.
  [[nodiscard]] Result<DataExampleSet> ReplayInputs(const Module& module,
                                      const DataExampleSet& examples) const;

  const DomainPartitioner& partitioner() const { return partitioner_; }
  const GeneratorOptions& options() const { return options_; }
  InvocationEngine& engine() const { return *engine_; }

 private:
  DomainPartitioner partitioner_;
  const AnnotatedInstancePool* pool_;
  GeneratorOptions options_;
  InvocationEngine* engine_;
};

/// One module's annotation as it takes effect: everything AnnotateRegistry
/// stores into the registry and counts into its report for that module.
/// Durable runs journal exactly this (durability/commit_codec.h).
struct ModuleCommit {
  std::string module_id;
  bool decayed = false;
  uint64_t transient_exhausted = 0;
  DataExampleSet examples;
};

/// The outcome of annotating a registry: how much worked, and which modules
/// turned out to be decayed along the way.
struct AnnotateReport {
  size_t annotated = 0;  ///< Modules whose generation completed cleanly.
  size_t decayed = 0;    ///< Modules that failed with permanent-class errors.
  size_t examples = 0;   ///< Data examples committed (incl. partial sets).
  /// Combinations lost to exhausted retries, summed across modules.
  size_t transient_exhausted = 0;
  /// Ids of the decayed modules, in registration order — candidates for the
  /// repair subsystem.
  std::vector<std::string> decayed_ids;

  /// Modules served from a durable journal instead of being re-invoked
  /// (always 0 for non-durable runs).
  size_t replayed = 0;

  /// Final engine counters, captured even when the run aborts partway —
  /// a crashed run's report still accounts for the work it did.
  EngineMetricsSnapshot metrics;

  /// OK for runs that committed every module; otherwise the cause of the
  /// abort (kCancelled for an injected crash, kInternal for a generator
  /// bug, an IO error from the journal, ...). The counters above cover
  /// whatever committed before the abort.
  Status run_status;

  bool complete() const { return run_status.ok(); }
};

/// Makes `commit` take effect: stores its examples into the module at
/// `index` of `registry` and counts the module into `report`. Live,
/// replayed and shard-merged commits all go through here, each with the
/// index of the module it names; Internal if `index` holds another module.
[[nodiscard]] Status ApplyCommit(ModuleCommit commit, ModuleIndex index,
                                 ModuleRegistry& registry,
                                 AnnotateReport& report);

/// What a write-ahead commit callback decided for one module.
struct CommitVerdict {
  /// OK lets the run go on; anything else ends it with this status.
  Status status;
  /// When `status` ends the run: true if the module's commit takes effect
  /// first (the run dies right after its record landed), false if it never
  /// does (the run dies before the record, or the record did not land).
  bool after_commit = false;
};

/// The durability seam of AnnotateRegistry, the annotate counterpart of
/// EnactHooks: the durable runner (durability/run_api.cc) journals through
/// it and serves a recovered prefix from it, while the loop itself stays
/// storage-agnostic. A run is durable exactly when `on_commit` is set.
struct AnnotateHooks {
  /// Modules committed by a previous run, in registration order: commit k
  /// must name available module k (AvailableIndices()[k]). Each takes effect
  /// (registry and report) under a "replay" phase without invoking the
  /// module; generation starts after the prefix. The replay consumes the
  /// prefix: each commit's examples move into the registry, so the vector
  /// holds moved-from commits afterwards. Null opens no replay phase;
  /// durable runs always pass one, empty when they start fresh.
  std::vector<ModuleCommit>* replayed = nullptr;

  /// Runs once, before the replay, inside the run span: a fresh durable
  /// run appends its journal header here.
  std::function<Status()> on_begin;

  /// The write-ahead point: called for each live module, in registration
  /// order, before its commit takes effect. The verdict can end the run
  /// before or right after that commit.
  std::function<CommitVerdict(const ModuleCommit& commit)> on_commit;
};

/// Runs `generator` over every available module of `registry` and stores
/// the resulting data examples back into the registry (step 2 of the
/// architecture in Figure 3). This is the only generate→commit loop: the
/// in-memory, durable, resumed and sharded runs all go through it.
///
/// Modules are annotated concurrently across the generator's engine (the
/// corpus has 252 independent modules); results are committed to the
/// registry in registration order, so the resulting registry is
/// byte-identical at any thread count.
///
/// Fault tolerance: a module that fails with a permanent-class error does
/// not abort the run — its partial example set (possibly empty) is
/// committed, the module is reported in `decayed_ids`, and annotation
/// continues with the next module. Only internal errors abort.
///
/// `tracer` (optional) records a run → phase → batch span tree: a
/// "generate" phase around the concurrent fan-out and a "commit" phase with
/// one batch span per module carrying its GenerationStats counters. Durable
/// runs (see AnnotateHooks) name the run "annotate_registry_durable", and a
/// replay prefix adds a "replay" phase before "generate" whose batch spans
/// are marked replayed. All spans open/close at sequential points, so the
/// trace is byte-identical at any thread count.
[[nodiscard]] Result<AnnotateReport> AnnotateRegistry(
    const ExampleGenerator& generator, ModuleRegistry& registry,
    obs::Tracer* tracer = nullptr, const AnnotateHooks& hooks = {});

}  // namespace dexa

#endif  // DEXA_CORE_EXAMPLE_GENERATOR_H_
