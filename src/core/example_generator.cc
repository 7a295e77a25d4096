#include "core/example_generator.h"

#include <limits>
#include <optional>
#include <utility>

#include "obs/trace.h"

namespace dexa {

namespace {

/// Annotates a module's commit-phase span with its per-module generation
/// counters. These are projections of the module's own Generate() call, so
/// they are schedule-independent even though the fan-out was concurrent.
/// Zero-valued counters are omitted (mirroring StableCounterDeltas) and the
/// batch lands in one locked call — this runs once per module on the
/// sequential commit path, so it must stay cheap.
void AnnotateBatchSpan(obs::ScopedSpan& span, const GenerationStats& stats) {
  std::vector<std::pair<std::string, uint64_t>> counters;
  counters.reserve(5);
  auto add = [&counters](const char* name, uint64_t value) {
    if (value != 0) counters.emplace_back(name, value);
  };
  add("combinations_tried", stats.combinations_tried);
  add("invocation_errors", stats.invocation_errors);
  add("transient_exhausted", stats.transient_exhausted);
  add("decayed", stats.decayed ? 1 : 0);
  add("examples", stats.examples);
  span.Counters(std::move(counters));
}

}  // namespace

namespace {

/// A candidate value for one input parameter: the partition it covers plus
/// the selected instance.
struct Candidate {
  ConceptId partition;
  Value value;
};

/// Saturating product, for counting the full combination space without
/// overflowing on wide modules.
size_t SaturatingMul(size_t a, size_t b) {
  if (a != 0 && b > std::numeric_limits<size_t>::max() / a) {
    return std::numeric_limits<size_t>::max();
  }
  return a * b;
}

}  // namespace

Result<GenerationOutcome> ExampleGenerator::Generate(
    const Module& module) const {
  const ModuleSpec& spec = module.spec();
  const ConceptCache& cache = partitioner_.cache();
  GenerationOutcome outcome;

  // Step 1 + 2: partition every input domain and select one instance per
  // coverable partition.
  std::vector<std::vector<Candidate>> candidates(spec.inputs.size());
  for (size_t i = 0; i < spec.inputs.size(); ++i) {
    const Parameter& param = spec.inputs[i];
    ParameterPartitions partitions = partitioner_.Partition(param);
    outcome.stats.input_partitions += partitions.partitions.size();
    for (ConceptId partition : partitions.partitions) {
      Result<Value> instance = Status::NotFound("unset");
      if (options_.use_realization) {
        instance = pool_->GetInstanceCompatible(partition,
                                                param.structural_type);
      } else {
        // Ablation: accept an instance of the partition or of any of its
        // sub-concepts (ignoring realization semantics).
        for (ConceptId d : cache.Descendants(partition)) {
          instance = pool_->GetInstanceCompatible(d, param.structural_type);
          if (instance.ok()) break;
        }
      }
      if (!instance.ok()) continue;  // Partition not coverable from the pool.
      ++outcome.stats.coverable_input_partitions;
      candidates[i].push_back(
          Candidate{partition, std::move(instance).value()});
    }
    if (param.optional) {
      // Section 2: optional parameters may carry null values.
      candidates[i].push_back(Candidate{kInvalidConcept, Value::Null()});
    }
    if (candidates[i].empty()) {
      // A required input with no coverable partition: the module cannot be
      // invoked at all, so its annotation is empty (the paper's pool always
      // covered the inputs; this arises with impoverished pools).
      return outcome;
    }
  }

  // Step 3: enumerate the combinations (odometer order) up to the cap, then
  // fan the whole batch through the engine. Results come back in
  // enumeration order, so the example set is identical at any thread count.
  const bool pin_tail = !options_.full_cartesian;
  size_t total_combinations = 1;
  if (pin_tail) {
    total_combinations = spec.inputs.empty() ? 1 : candidates[0].size();
  } else {
    for (const std::vector<Candidate>& options : candidates) {
      total_combinations = SaturatingMul(total_combinations, options.size());
    }
  }

  std::vector<std::vector<Value>> batch_inputs;
  std::vector<std::vector<ConceptId>> batch_partitions;
  std::vector<size_t> odometer(spec.inputs.size(), 0);
  for (;;) {
    if (outcome.stats.combinations_tried >= options_.max_combinations) break;
    ++outcome.stats.combinations_tried;

    std::vector<Value> inputs;
    std::vector<ConceptId> input_partitions;
    inputs.reserve(spec.inputs.size());
    input_partitions.reserve(spec.inputs.size());
    for (size_t i = 0; i < spec.inputs.size(); ++i) {
      const Candidate& candidate = candidates[i][odometer[i]];
      inputs.push_back(candidate.value);
      input_partitions.push_back(candidate.partition);
    }
    batch_inputs.push_back(std::move(inputs));
    batch_partitions.push_back(std::move(input_partitions));

    // Advance the odometer.
    size_t wheel = 0;
    if (pin_tail) {
      // Pinned strategy: only the first input enumerates its candidates.
      if (spec.inputs.empty() || ++odometer[0] >= candidates[0].size()) break;
      continue;
    }
    for (;;) {
      if (wheel >= odometer.size()) break;
      if (++odometer[wheel] < candidates[wheel].size()) break;
      odometer[wheel] = 0;
      ++wheel;
    }
    if (wheel >= odometer.size()) break;  // Odometer wrapped: done.
    if (spec.inputs.empty()) break;       // Nullary module: one invocation.
  }
  outcome.stats.combinations_skipped =
      total_combinations > outcome.stats.combinations_tried
          ? total_combinations - outcome.stats.combinations_tried
          : 0;

  auto results = engine_->InvokeBatch(module, batch_inputs,
                                      EnginePhase::kGenerate);

  // Step 4: keep normal terminations, in enumeration order.
  for (size_t i = 0; i < results.size(); ++i) {
    Result<std::vector<Value>>& outputs = results[i];
    if (outputs.ok()) {
      DataExample example;
      example.inputs = std::move(batch_inputs[i]);
      example.input_partitions = std::move(batch_partitions[i]);
      example.outputs = std::move(outputs).value();
      outcome.examples.push_back(std::move(example));
    } else if (outputs.status().IsInvalidArgument() ||
               outputs.status().IsNotFound()) {
      // Abnormal termination: discard the combination (Section 3.2).
      ++outcome.stats.invocation_errors;
    } else if (outputs.status().IsRetryable()) {
      // Transient fault that survived the engine's retries: the
      // combination is lost to infrastructure, not to module behavior.
      ++outcome.stats.transient_exhausted;
    } else if (outputs.status().IsPermanentFailure()) {
      // The module decayed under us (provider withdrew it, backend gone,
      // breaker tripped): keep what was collected as a partial annotation
      // and flag the module as a repair candidate.
      outcome.stats.decayed = true;
    } else {
      return outputs.status();  // Internal: a real failure.
    }
  }

  outcome.stats.examples = outcome.examples.size();
  return outcome;
}

Result<DataExampleSet> ExampleGenerator::ReplayInputs(
    const Module& module, const DataExampleSet& examples) const {
  std::vector<std::vector<Value>> batch_inputs;
  batch_inputs.reserve(examples.size());
  for (const DataExample& reference : examples) {
    batch_inputs.push_back(reference.inputs);
  }
  auto results =
      engine_->InvokeBatch(module, batch_inputs, EnginePhase::kReplay);

  DataExampleSet out;
  for (size_t i = 0; i < results.size(); ++i) {
    Result<std::vector<Value>>& outputs = results[i];
    if (!outputs.ok()) {
      if (outputs.status().IsInvalidArgument() ||
          outputs.status().IsNotFound()) {
        continue;
      }
      return outputs.status();
    }
    DataExample example;
    example.inputs = examples[i].inputs;
    example.input_partitions = examples[i].input_partitions;
    example.outputs = std::move(outputs).value();
    out.push_back(std::move(example));
  }
  return out;
}

Status ApplyCommit(ModuleCommit commit, ModuleIndex index,
                   ModuleRegistry& registry, AnnotateReport& report) {
  if (index >= registry.size() ||
      registry.At(index)->spec().id != commit.module_id) {
    return Status::Internal("commit of module '" + commit.module_id +
                            "' applied at registry index " +
                            std::to_string(index) + ", which holds another");
  }
  const size_t examples = commit.examples.size();
  registry.SetDataExamplesAt(index, std::move(commit.examples));
  report.transient_exhausted += commit.transient_exhausted;
  report.examples += examples;
  if (commit.decayed) {
    ++report.decayed;
    report.decayed_ids.push_back(std::move(commit.module_id));
  } else {
    ++report.annotated;
  }
  return Status::OK();
}

Result<AnnotateReport> AnnotateRegistry(const ExampleGenerator& generator,
                                        ModuleRegistry& registry,
                                        obs::Tracer* tracer,
                                        const AnnotateHooks& hooks) {
  const std::vector<ModuleIndex> modules = registry.AvailableIndices();
  EngineMetrics& metrics = generator.engine().metrics();
  const bool durable = static_cast<bool>(hooks.on_commit);

  obs::ScopedSpan run(tracer, obs::SpanKind::kRun,
                      durable ? "annotate_registry_durable"
                              : "annotate_registry");
  const EngineMetricsSnapshot run_before = metrics.Snapshot();
  if (hooks.on_begin) DEXA_RETURN_IF_ERROR(hooks.on_begin());

  AnnotateReport report;
  size_t start = 0;
  if (hooks.replayed != nullptr) {
    if (hooks.replayed->size() > modules.size()) {
      return Status::InvalidArgument(
          "replay prefix is longer than the registry");
    }
    // Serve the committed prefix without invoking it. Replay spans are
    // marked `replayed` and carry only the counters a commit preserves —
    // no live invocation deltas, because no invocation happened.
    obs::ScopedSpan replay(tracer, obs::SpanKind::kPhase, "replay", run.id());
    for (size_t k = 0; k < hooks.replayed->size(); ++k) {
      ModuleCommit& commit = (*hooks.replayed)[k];
      obs::ScopedSpan module_span(tracer, obs::SpanKind::kBatch,
                                  commit.module_id, replay.id());
      module_span.MarkReplayed();
      if (tracer != nullptr) {  // Untraced replays allocate no counters.
        std::vector<std::pair<std::string, uint64_t>> counters;
        counters.reserve(3);
        if (!commit.examples.empty()) {
          counters.emplace_back("examples", commit.examples.size());
        }
        if (commit.decayed) counters.emplace_back("decayed", 1);
        if (commit.transient_exhausted != 0) {
          counters.emplace_back("transient_exhausted",
                                commit.transient_exhausted);
        }
        module_span.Counters(std::move(counters));
      }
      DEXA_RETURN_IF_ERROR(
          ApplyCommit(std::move(commit), modules[k], registry, report));
      ++report.replayed;
      metrics.Add(EngineCounter::modules_replayed);
    }
    start = hooks.replayed->size();
  }

  // Generate concurrently (modules are independent), commit sequentially in
  // registration order so the registry content is thread-count-invariant.
  std::vector<std::optional<Result<GenerationOutcome>>> outcomes(
      modules.size());
  {
    obs::ScopedSpan generate(tracer, obs::SpanKind::kPhase, "generate",
                             run.id());
    const EngineMetricsSnapshot before = metrics.Snapshot();
    generator.engine().ForEach(modules.size() - start, [&](size_t k) {
      outcomes[start + k] =
          generator.Generate(*registry.At(modules[start + k]));
    });
    generate.CounterDeltas(before, metrics.Snapshot());
  }

  obs::ScopedSpan commit_phase(tracer, obs::SpanKind::kPhase, "commit",
                               run.id());
  for (size_t i = start; i < modules.size(); ++i) {
    Result<GenerationOutcome>& outcome = *outcomes[i];
    if (!outcome.ok()) {
      // Generate() degrades gracefully on module faults, so a failed
      // outcome is an internal error — those still abort the run. The
      // report survives the abort: its counters cover the committed prefix
      // and run_status carries the cause.
      report.run_status = outcome.status();
      break;
    }
    // A decayed module keeps its partial example set: an incomplete
    // annotation still supports matching and repair (Sections 5-6), and the
    // module is reported as a repair candidate instead of aborting the run.
    ModuleCommit commit;
    commit.module_id = registry.At(modules[i])->spec().id;
    commit.decayed = outcome->stats.decayed;
    commit.transient_exhausted = outcome->stats.transient_exhausted;
    commit.examples = std::move(outcome->examples);

    // Write-ahead: the callback runs before the commit takes effect, and
    // before the module's span opens, so a run that dies before the commit
    // traces no span for the module.
    CommitVerdict verdict;
    if (durable) verdict = hooks.on_commit(commit);
    if (!verdict.status.ok() && !verdict.after_commit) {
      report.run_status = std::move(verdict.status);
      break;
    }
    obs::ScopedSpan module_span(tracer, obs::SpanKind::kBatch,
                                commit.module_id, commit_phase.id());
    // Untraced commits build no counter vector.
    if (tracer != nullptr) AnnotateBatchSpan(module_span, outcome->stats);
    Status applied =
        ApplyCommit(std::move(commit), modules[i], registry, report);
    if (!applied.ok()) {
      report.run_status = std::move(applied);
      break;
    }
    if (!verdict.status.ok()) {
      report.run_status = std::move(verdict.status);
      break;
    }
  }
  commit_phase.End();
  report.metrics = metrics.Snapshot();
  run.CounterDeltas(run_before, report.metrics);
  return report;
}

}  // namespace dexa
