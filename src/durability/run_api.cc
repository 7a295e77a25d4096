#include "core/run_api.h"

#include <utility>

#include "durability/run_api_internal.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace dexa {

namespace {

/// Checks the fields `kind` requires, plus the ontology a journaled
/// annotate run encodes with, and that resume/crash come with a journal.
/// Pointer presence only — the run implementations validate semantics
/// (arity, fingerprints, ...).
Status ValidateRequest(const RunRequest& request) {
  const bool durable = request.journal != nullptr;
  auto require = [&](const void* field, const char* name) -> Status {
    if (field != nullptr) return Status::OK();
    return Status::InvalidArgument(std::string(durable ? "durable " : "") +
                                   RunKindName(request.kind) +
                                   " run requires " + name);
  };
  if (!durable && (request.resume != nullptr || request.crash != nullptr)) {
    return Status::InvalidArgument(
        "resume and crash apply to durable runs only; set journal");
  }
  switch (request.kind) {
    case RunKind::kAnnotate:
      DEXA_RETURN_IF_ERROR(require(request.generator, "generator"));
      DEXA_RETURN_IF_ERROR(require(request.registry, "registry"));
      if (durable) DEXA_RETURN_IF_ERROR(require(request.ontology, "ontology"));
      return Status::OK();
    case RunKind::kEnact:
      DEXA_RETURN_IF_ERROR(require(request.workflow, "workflow"));
      DEXA_RETURN_IF_ERROR(require(request.registry, "registry"));
      DEXA_RETURN_IF_ERROR(require(request.engine, "engine"));
      return Status::OK();
  }
  return Status::InvalidArgument("unknown run kind");
}

/// Exports the finished run into `obs.metrics` when the caller attached a
/// registry: the engine snapshot, and the trace when one was recorded.
void ExportObservability(const obs::RunObservability& obs,
                         const EngineMetricsSnapshot& snapshot) {
  if (obs.metrics == nullptr) return;
  obs.metrics->ImportEngineSnapshot(snapshot);
  if (obs.tracer != nullptr) obs.metrics->ImportTrace(*obs.tracer);
}

}  // namespace

const char* RunKindName(RunKind kind) {
  switch (kind) {
    case RunKind::kAnnotate:
      return "annotate";
    case RunKind::kEnact:
      return "enact";
  }
  return "unknown";
}

Result<RunResult> SubmitRun(const RunRequest& request) {
  DEXA_RETURN_IF_ERROR(ValidateRequest(request));
  const bool durable = request.journal != nullptr;

  RunResult result;
  result.kind = request.kind;

  switch (request.kind) {
    case RunKind::kAnnotate: {
      auto report = durable ? internal::AnnotateDurableImpl(request)
                            : AnnotateRegistry(*request.generator,
                                               *request.registry,
                                               request.obs.tracer);
      if (!report.ok()) return report.status();
      result.annotate = std::move(report).value();
      result.run_status = result.annotate.run_status;
      ExportObservability(request.obs, result.annotate.metrics);
      return result;
    }
    case RunKind::kEnact: {
      EnactHooks hooks;
      hooks.obs = request.obs;
      auto enacted =
          durable ? internal::EnactDurableImpl(request)
                  : EnactResilient(*request.workflow, *request.registry,
                                   request.inputs, *request.engine, hooks);
      if (!enacted.ok()) return enacted.status();
      result.enact = std::move(enacted).value();
      ExportObservability(request.obs, request.engine->metrics().Snapshot());
      return result;
    }
  }
  return Status::InvalidArgument("unknown run kind");
}

RunRequest MakeAnnotateRun(const ExampleGenerator& generator,
                           ModuleRegistry& registry) {
  RunRequest request;
  request.kind = RunKind::kAnnotate;
  request.generator = &generator;
  request.registry = &registry;
  return request;
}

RunRequest MakeDurableAnnotateRun(const ExampleGenerator& generator,
                                  ModuleRegistry& registry,
                                  const Ontology& ontology,
                                  RunJournal& journal) {
  RunRequest request = MakeAnnotateRun(generator, registry);
  request.ontology = &ontology;
  request.journal = &journal;
  return request;
}

RunRequest MakeEnactRun(const Workflow& workflow, ModuleRegistry& registry,
                        std::vector<Value> inputs, InvocationEngine& engine) {
  RunRequest request;
  request.kind = RunKind::kEnact;
  request.workflow = &workflow;
  request.registry = &registry;
  request.inputs = std::move(inputs);
  request.engine = &engine;
  return request;
}

RunRequest MakeDurableEnactRun(const Workflow& workflow,
                               ModuleRegistry& registry,
                               std::vector<Value> inputs,
                               InvocationEngine& engine, RunJournal& journal) {
  RunRequest request = MakeEnactRun(workflow, registry, std::move(inputs),
                                    engine);
  request.journal = &journal;
  return request;
}

}  // namespace dexa
