#ifndef DEXA_WORKFLOW_ENACTOR_H_
#define DEXA_WORKFLOW_ENACTOR_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/invocation_engine.h"
#include "workflow/workflow.h"

namespace dexa {

namespace obs {
class Tracer;  // obs/trace.h — optional run tracing, forward-declared so
               // the workflow layer's header does not depend on obs.
}  // namespace obs

/// What one module invocation inside an enactment consumed and produced —
/// the unit of workflow provenance (Section 4.1: "traces of past workflow
/// executions including the data values used as input and obtained as
/// output of the scientific modules").
struct InvocationRecord {
  std::string workflow_id;
  std::string processor_name;
  std::string module_id;
  std::vector<Value> inputs;
  std::vector<Value> outputs;
};

/// The result of enacting a workflow: the parts of the workflow that ran,
/// plus an account of what decayed along the way.
struct EnactmentResult {
  /// One slot per workflow output, in declaration order. Slots fed by a
  /// skipped processor hold Value::Null(); `missing_outputs` counts them.
  std::vector<Value> outputs;
  size_t missing_outputs = 0;

  /// Provenance for the invocations that did run.
  std::vector<InvocationRecord> invocations;

  /// Module ids that failed with a permanent-class error (kPermanent /
  /// kDecayed / kUnavailable — a withdrawn provider, a dead backend, or a
  /// tripped circuit breaker), deduplicated, in topological encounter
  /// order. These are repair candidates (see ScanForDecay).
  std::vector<std::string> decayed_modules;

  /// Processor names that did not run: either their module failed, or an
  /// upstream dependency was skipped. Topological order.
  std::vector<std::string> skipped_processors;

  /// True when every processor ran. Callers that need the whole workflow
  /// (provenance harvest, repair verification) treat an incomplete result
  /// as a failure of their own.
  bool complete() const { return skipped_processors.empty(); }
};

/// Durability seams of an enactment. The durable enactment runner
/// (durability/run_api.cc) uses these to journal every step and to serve
/// already-committed steps from a recovered journal; the enactor itself
/// stays storage-agnostic. AnnotateHooks (core/example_generator.h) is the
/// annotate counterpart.
struct EnactHooks {
  /// One slot per workflow processor (by processor index). A present entry
  /// is a step committed by a previous run: its record is re-emitted as
  /// provenance and its outputs feed downstream steps, without invoking
  /// the module. nullptr (or all-empty) enacts everything live.
  const std::vector<std::optional<InvocationRecord>>* replayed = nullptr;

  /// Called after each live processor invocation, before its outputs
  /// become visible to downstream steps — the write-ahead point. A non-OK
  /// status aborts the enactment with that status: a step whose commit did
  /// not reach durable storage must not feed consumers that would then be
  /// unrepeatable.
  std::function<Status(int processor, const InvocationRecord& record)>
      on_commit;

  /// Optional span-tree sink (obs/trace.h): a run span per enactment, an
  /// "enact" phase, and one invocation span per processor — replayed steps
  /// marked as such, live steps annotated with their stable engine-counter
  /// deltas (the topological loop is sequential, so per-step deltas are
  /// schedule-independent).
  obs::Tracer* tracer = nullptr;
};

/// Enacts `workflow` on `inputs` (one value per workflow input), invoking
/// modules from `registry` in topological order and threading values along
/// the data links. Provenance is captured for every invocation that ran.
///
/// Decay is data, not an error: a processor whose module fails with a
/// permanent-class status is skipped with everything downstream of it, the
/// rest of the workflow still runs, and the module id is reported in
/// `decayed_modules`. A retryable failure the engine's retry policy could
/// not outlast skips the processor without marking the module decayed.
///
/// Fails on structural errors — wrong input arity, a cycle, an unknown
/// module id, a module rejecting its inputs (InvalidArgument, ...) — and
/// with the status of a failed `hooks.on_commit`. `hooks.replayed`, when
/// non-null, must have exactly one slot per processor.
///
/// Invocations are routed through `engine` (counted under the enact
/// phase). Enactment order is the workflow's deterministic topological
/// order at any thread count.
[[nodiscard]] Result<EnactmentResult> Enact(const Workflow& workflow,
                                            const ModuleRegistry& registry,
                                            const std::vector<Value>& inputs,
                                            InvocationEngine& engine,
                                            const EnactHooks& hooks = {});

/// Extracts the sub-workflow induced by `processor_indices` (Section 6:
/// validating substitutes on sub-workflows). Dangling inputs — links from
/// processors outside the selection — become new workflow-level inputs with
/// the parameters of their original sources; outputs of selected processors
/// that fed excluded processors (or were workflow outputs) become workflow
/// outputs.
[[nodiscard]] Result<Workflow> ExtractSubWorkflow(const Workflow& workflow,
                                    const ModuleRegistry& registry,
                                    const std::vector<int>& processor_indices);

}  // namespace dexa

#endif  // DEXA_WORKFLOW_ENACTOR_H_
