#ifndef DEXA_CORE_RUN_API_H_
#define DEXA_CORE_RUN_API_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/example_generator.h"
#include "engine/metrics.h"
#include "modules/registry.h"
#include "workflow/enactor.h"
#include "workflow/workflow.h"

namespace dexa {

// Durability machinery, forward-declared: a RunRequest carries these by
// pointer so the facade header stays includable from layers below
// durability (the definitions live in durability/journal.h and
// corpus/fault_injector.h).
class RunJournal;
struct JournalRecovery;
struct CrashPlan;

/// Which of the two run families a RunRequest describes. Either family
/// is durable exactly when the request carries a journal.
enum class RunKind {
  kAnnotate = 0,  ///< Generate data examples over a module registry.
  kEnact = 1,     ///< Enact a workflow, capturing provenance.
};

const char* RunKindName(RunKind kind);

/// One run, fully described: the single struct the CLI, the serve daemon's
/// RunManager, the shard runner and tests hand to SubmitRun(). All pointers
/// are non-owning and must outlive the SubmitRun call; which fields are
/// required depends on `kind` and on whether `journal` is set (SubmitRun
/// validates and fails with kInvalidArgument on a mismatch).
struct RunRequest {
  RunKind kind = RunKind::kAnnotate;

  // -- Annotate family ---------------------------------------------------
  /// Generator to run over every available module of `registry`; the run
  /// executes on the generator's engine.
  const ExampleGenerator* generator = nullptr;
  ModuleRegistry* registry = nullptr;
  /// Required for durable annotate runs (the journal codec needs it for
  /// concepts).
  const Ontology* ontology = nullptr;

  // -- Enact family ------------------------------------------------------
  const Workflow* workflow = nullptr;
  /// One value per workflow input.
  std::vector<Value> inputs;
  /// Engine the enactment's invocations route through. Enact runs take the
  /// registry via `registry` as well (const access only).
  InvocationEngine* engine = nullptr;

  // -- Durability (set `journal` to make the run durable) -----------------
  /// Write-ahead journal: every committed unit (module or workflow step) is
  /// appended here before it takes effect, so a killed run can resume.
  RunJournal* journal = nullptr;
  /// Resume from a crashed run's recovered journal; null starts fresh. The
  /// recovery must come from a journal of the same run configuration,
  /// which the run-header fingerprint checks.
  const JournalRecovery* resume = nullptr;
  /// In-process crash injection; null is an unarmed plan. Annotate runs
  /// stop with run_status kCancelled at the chosen commit, enact runs fail
  /// with kCancelled; the torn variant also damages the journal tail.
  const CrashPlan* crash = nullptr;
  /// Seal of the compiled KB image (CompiledKb checksum) pinned into durable
  /// annotate run headers, 0 for the in-memory backend. A resume against a
  /// different KB is refused.
  uint64_t kb_checksum = 0;

  // -- Observability (all kinds) -----------------------------------------
  /// Span-tree sink (obs/trace.h), optional and non-owning. Spans are
  /// recorded only at sequential points of a run, so the tree is
  /// byte-identical at any thread count. Durable runs add a "replay" phase
  /// whose spans are marked replayed.
  obs::Tracer* tracer = nullptr;
};

/// What a run produced. Exactly one of the two payloads is meaningful,
/// selected by `kind`; `run_status` mirrors the payload's completion status
/// so callers can triage without dispatching on the kind first.
struct RunResult {
  RunKind kind = RunKind::kAnnotate;

  /// Payload of the annotate family.
  AnnotateReport annotate;

  /// Payload of the enact family.
  EnactmentResult enact;

  /// What the run's engine counted from SubmitRun's entry to its return:
  /// the run's own counters, not the engine's lifetime totals. Other work
  /// on a shared engine in that window counts too. obs::WriteMetricsJson
  /// exports them.
  EngineMetricsSnapshot counters;

  /// OK for runs that ran to completion; the abort cause otherwise
  /// (kCancelled for an injected crash of a durable annotate run, which
  /// still returns the partial report of its committed prefix).
  Status run_status;

  bool complete() const { return run_status.ok(); }
};

/// Runs one RunRequest to completion and returns what it produced. This is
/// the only run entry point: the CLI, the serve daemon's RunManager and the
/// shard runner all describe their runs as RunRequests.
///
/// Runs are deterministic at any thread count. Durable runs append their
/// commits, in order, to their own journal, and one that completes seals
/// the journal before it returns, so all of it is durable (a failed seal
/// fails the run typed). A resumed run (replaying the committed prefix,
/// generating only the remainder) ends byte-identical to an uninterrupted
/// one. Injected crashes surface as run_status=kCancelled (annotate) or an
/// error Result (enact).
///
/// Defined in the durability layer (durability/run_api.cc): the facade must
/// reach the journal and crash machinery, which core cannot depend on.
[[nodiscard]] Result<RunResult> SubmitRun(const RunRequest& request);

// -- Convenience builders --------------------------------------------------
// Fill the required fields of each kind; callers tweak the optional ones
// (resume/crash/kb_checksum/tracer) on the returned struct.

RunRequest MakeAnnotateRun(const ExampleGenerator& generator,
                           ModuleRegistry& registry);

RunRequest MakeDurableAnnotateRun(const ExampleGenerator& generator,
                                  ModuleRegistry& registry,
                                  const Ontology& ontology,
                                  RunJournal& journal);

RunRequest MakeEnactRun(const Workflow& workflow, ModuleRegistry& registry,
                        std::vector<Value> inputs, InvocationEngine& engine);

RunRequest MakeDurableEnactRun(const Workflow& workflow,
                               ModuleRegistry& registry,
                               std::vector<Value> inputs,
                               InvocationEngine& engine, RunJournal& journal);

}  // namespace dexa

#endif  // DEXA_CORE_RUN_API_H_
