#ifndef DEXA_WORKFLOW_ENACTOR_H_
#define DEXA_WORKFLOW_ENACTOR_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/invocation_engine.h"
#include "obs/run_observability.h"
#include "workflow/workflow.h"

namespace dexa {

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

/// The result of enacting a workflow: the workflow-level outputs plus the
/// captured provenance.
struct EnactmentResult {
  std::vector<Value> outputs;
  std::vector<InvocationRecord> invocations;
};

/// Enacts `workflow` on `inputs` (one value per workflow input), invoking
/// modules from `registry` in topological order and threading values along
/// the data links. Fails with:
///  * Decayed if any referenced module has been withdrawn (or a permanent-
///    class fault surfaces mid-run — see EnactResilient for the variant
///    that degrades instead of failing);
///  * InvalidArgument if the workflow is malformed, `inputs` has the wrong
///    arity, or a module rejects its input combination.
/// Provenance is captured for the invocations that did run.
///
/// Module invocations are routed through `engine` (counted under the
/// enact phase); the 3-argument overload uses the shared serial engine.
/// Enactment order is the workflow's deterministic topological order
/// regardless of the engine's thread count — data dependencies serialize
/// the steps; the engine is the metering and (for batched consumers)
/// fan-out point.
[[nodiscard]] Result<EnactmentResult> Enact(const Workflow& workflow,
                              const ModuleRegistry& registry,
                              const std::vector<Value>& inputs,
                              InvocationEngine& engine);

[[nodiscard]] Result<EnactmentResult> Enact(const Workflow& workflow,
                              const ModuleRegistry& registry,
                              const std::vector<Value>& inputs);

/// The result of a resilient enactment: the parts of the workflow that ran,
/// plus an account of what decayed along the way.
struct ResilientEnactmentResult {
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

  bool complete() const { return skipped_processors.empty(); }
};

/// Enacts `workflow` like Enact(), but degrades gracefully instead of
/// failing when a module decays mid-run: the failing processor and every
/// processor downstream of it are skipped, the surviving portion of the
/// workflow still runs (with its provenance captured), and the decayed
/// module ids are reported so the caller can hand them to the repair
/// subsystem. Retryable failures that survive the engine's retry policy
/// skip the processor without marking the module decayed.
///
/// Still fails on structural errors (malformed workflow, wrong input
/// arity, InvalidArgument from a module rejecting its inputs): those are
/// bugs in the workflow or corpus, not infrastructure decay.
[[nodiscard]] Result<ResilientEnactmentResult> EnactResilient(const Workflow& workflow,
                                                const ModuleRegistry& registry,
                                                const std::vector<Value>& inputs,
                                                InvocationEngine& engine);

/// Durability seams of a resilient enactment. The durable enactment runner
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

  /// Optional run observability (obs/run_observability.h): a run span per
  /// enactment, an "enact" phase, and one invocation span per processor —
  /// replayed steps marked as such, live steps annotated with their stable
  /// engine-counter deltas (the topological loop is sequential, so per-step
  /// deltas are schedule-independent).
  obs::RunObservability obs;
};

/// EnactResilient with durability hooks. `hooks.replayed`, when non-null,
/// must have exactly one slot per processor.
[[nodiscard]] Result<ResilientEnactmentResult> EnactResilient(const Workflow& workflow,
                                                const ModuleRegistry& registry,
                                                const std::vector<Value>& inputs,
                                                InvocationEngine& engine,
                                                const EnactHooks& hooks);

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
