#include "core/run_api.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "corpus/fault_injector.h"
#include "durability/commit_codec.h"
#include "durability/journal.h"

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

/// How a torn-write crash damages the journal tail: the flip positions
/// are drawn from kTornSeed, so every torn journal is the same bytes.
constexpr uint64_t kTornSeed = 0xC4A5;
constexpr int kTornFlips = 2;
constexpr size_t kTornTruncateBytes = 5;

/// The write-ahead side of one durable run: appends its records to the
/// run's own journal. Each run has its own DurableCommits and commits
/// sequentially, so concurrent durable runs sharing one engine cannot
/// interleave each other's journals.
class DurableCommits {
 public:
  DurableCommits(const RunRequest& request, InvocationEngine& engine)
      : journal_(*request.journal),
        crash_(request.crash != nullptr ? *request.crash : CrashPlan{}),
        metrics_(engine.metrics()) {}

  /// Appends the run header, which no crash plan keys on.
  [[nodiscard]] Status AppendHeader(const std::string& payload) {
    return Append(payload);
  }

  /// The crash-plan step, shared by annotate and enact: appends the record
  /// of the unit keyed `key` (a module id), with the crash plan consulted
  /// where a real crash would interleave with the append. `noun` and `name`
  /// ("module", "m010" / "step", "align") name the unit in crash messages.
  CommitVerdict Commit(const std::string& key, const char* noun,
                       const std::string& name, const std::string& payload) {
    auto crashed = [&](const char* where, bool after_commit) {
      return CommitVerdict{Status::Cancelled(std::string(where) + noun +
                                             " '" + name + "'"),
                           after_commit};
    };
    if (crash_.point == CrashPoint::kCrashBeforeCommit &&
        crash_.Matches(key)) {
      return crashed("crash injected before commit of ", false);
    }
    Status appended = Append(payload);
    if (!appended.ok()) return CommitVerdict{std::move(appended), false};
    metrics_.Add(EngineCounter::modules_reinvoked);
    if (!crash_.Matches(key)) return CommitVerdict{};
    if (crash_.point == CrashPoint::kCrashAfterCommit) {
      return crashed("crash injected after commit of ", true);
    }
    if (crash_.point == CrashPoint::kTornWrite) {
      // The record lands half-written: seal the stream, then damage the
      // tail the way an interrupted flush would.
      Status torn = journal_.Seal();
      if (torn.ok()) {
        torn = TearJournalTail(journal_.dir(), kTornSeed, kTornFlips,
                               kTornTruncateBytes, journal_.io());
      }
      if (!torn.ok()) return CommitVerdict{std::move(torn), true};
      return crashed("torn-write crash injected at commit of ", true);
    }
    return CommitVerdict{};
  }

 private:
  /// Counts the commit, then appends it: a failed append still counts.
  Status Append(const std::string& payload) {
    metrics_.Add(EngineCounter::commits);
    return journal_.Append(payload);
  }

  RunJournal& journal_;
  const CrashPlan crash_;
  EngineMetrics& metrics_;
};

/// Parses and validates the committed prefix of a recovered annotate
/// journal against the run about to resume: header fingerprint must match,
/// and the commit records must be a prefix of the registration order (the
/// sequential commit phase guarantees they were written that way).
Result<std::vector<ModuleCommit>> ValidateAnnotateResume(
    const JournalRecovery& recovery, const ModuleRegistry& registry,
    const GeneratorOptions& options, const Ontology& ontology,
    uint64_t kb_checksum) {
  if (recovery.records.empty()) {
    // Nothing committed (the crash beat even the header): resume is just a
    // fresh run.
    return std::vector<ModuleCommit>{};
  }
  auto header = DecodeAnnotateRunHeader(recovery.records[0]);
  if (!header.ok()) {
    return Status::Corrupted("journal's first record is not a run header: " +
                             header.status().message());
  }
  const std::vector<ModuleIndex> modules = registry.AvailableIndices();
  const uint64_t fingerprint = AnnotateConfigFingerprint(registry, options);
  if (header->fingerprint != fingerprint ||
      header->modules != modules.size()) {
    return Status::InvalidArgument(
        "journal belongs to a different run configuration (fingerprint " +
        std::to_string(header->fingerprint) + " vs " +
        std::to_string(fingerprint) + ")");
  }
  if (header->kb_checksum != kb_checksum) {
    return Status::InvalidArgument(
        "journal is pinned to a different knowledge base (kb_checksum " +
        std::to_string(header->kb_checksum) + " vs " +
        std::to_string(kb_checksum) +
        "); resume with the same KB image the run started with");
  }
  std::vector<ModuleCommit> committed;
  committed.reserve(recovery.records.size() - 1);
  for (size_t r = 1; r < recovery.records.size(); ++r) {
    auto commit = DecodeModuleCommit(recovery.records[r], ontology);
    if (!commit.ok()) {
      return Status::Corrupted("journal record " + std::to_string(r) +
                               " is not a module commit: " +
                               commit.status().message());
    }
    const size_t index = committed.size();
    if (index >= modules.size() ||
        commit->module_id != registry.At(modules[index])->spec().id) {
      return Status::Corrupted(
          "journal commit order diverges from registration order at record " +
          std::to_string(r) + " ('" + commit->module_id + "')");
    }
    committed.push_back(std::move(commit).value());
  }
  return committed;
}

/// A journaled annotate run: validates the resume, writes the run header of
/// a fresh journal, and journals every live module through the write-ahead
/// callback. AnnotateRegistry does everything else.
Result<AnnotateReport> AnnotateDurable(const RunRequest& request) {
  const ExampleGenerator& generator = *request.generator;
  ModuleRegistry& registry = *request.registry;
  const Ontology& ontology = *request.ontology;

  std::vector<ModuleCommit> committed;
  bool fresh = true;
  if (request.resume != nullptr) {
    auto validated =
        ValidateAnnotateResume(*request.resume, registry, generator.options(),
                               ontology, request.kb_checksum);
    if (!validated.ok()) return validated.status();
    committed = std::move(validated).value();
    // A recovered journal with any records already carries its header —
    // even when zero commits follow it (crash before the first commit).
    fresh = request.resume->records.empty();
  }

  DurableCommits commits(request, generator.engine());
  AnnotateHooks hooks;
  hooks.replayed = &committed;
  if (fresh) {
    hooks.on_begin = [&]() {
      AnnotateRunHeader header;
      header.modules = registry.AvailableIndices().size();
      header.fingerprint =
          AnnotateConfigFingerprint(registry, generator.options());
      header.kb_checksum = request.kb_checksum;
      return commits.AppendHeader(EncodeAnnotateRunHeader(header));
    };
  }
  hooks.on_commit = [&](const ModuleCommit& commit) {
    return commits.Commit(commit.module_id, "module", commit.module_id,
                          EncodeModuleCommit(commit, ontology));
  };
  auto report = AnnotateRegistry(generator, registry, request.tracer, hooks);
  if (report.ok() && report->run_status.ok()) {
    // The group commit of the open segment: a completed run is durable
    // when SubmitRun returns. A failed sync fails the run typed.
    report->run_status = request.journal->Seal();
  }
  return report;
}

/// Decodes the committed steps of a recovered enactment journal into a
/// per-processor replay vector, validating the header against this run and
/// each step against the processor it names: same workflow, processor name
/// and module id, and at most one commit per processor. Step order is not
/// checked — a resumed degraded run can append a retried upstream step
/// after an independent downstream one.
Result<std::vector<std::optional<InvocationRecord>>> ValidateEnactResume(
    const JournalRecovery& recovery, const Workflow& workflow,
    const std::vector<Value>& inputs) {
  std::vector<std::optional<InvocationRecord>> replayed(
      workflow.processors.size());
  if (recovery.records.empty()) return replayed;

  auto header = DecodeEnactRunHeader(recovery.records[0]);
  if (!header.ok()) {
    return Status::Corrupted("journal's first record is not a run header: " +
                             header.status().message());
  }
  const uint64_t fingerprint = EnactConfigFingerprint(workflow.id, inputs);
  if (header->fingerprint != fingerprint ||
      header->processors != workflow.processors.size()) {
    return Status::InvalidArgument(
        "journal belongs to a different enactment (workflow '" +
        header->workflow_id + "')");
  }
  for (size_t r = 1; r < recovery.records.size(); ++r) {
    auto commit = DecodeStepCommit(recovery.records[r]);
    if (!commit.ok()) {
      return Status::Corrupted("journal record " + std::to_string(r) +
                               " is not a step commit: " +
                               commit.status().message());
    }
    if (commit->processor < 0 ||
        static_cast<size_t>(commit->processor) >= replayed.size()) {
      return Status::Corrupted("journal step commit names processor " +
                               std::to_string(commit->processor) +
                               ", out of range");
    }
    const size_t p = static_cast<size_t>(commit->processor);
    const Processor& processor = workflow.processors[p];
    const InvocationRecord& record = commit->record;
    if (record.workflow_id != workflow.id ||
        record.processor_name != processor.name ||
        record.module_id != processor.module_id) {
      return Status::Corrupted(
          "journal record " + std::to_string(r) + " commits step '" +
          record.processor_name + "' (module '" + record.module_id +
          "') under processor " + std::to_string(p) + " ('" +
          processor.name + "')");
    }
    if (replayed[p].has_value()) {
      return Status::Corrupted("journal record " + std::to_string(r) +
                               " commits processor " + std::to_string(p) +
                               " ('" + processor.name + "') a second time");
    }
    replayed[p] = std::move(commit->record);
  }
  return replayed;
}

/// A journaled enactment: validates the resume, writes the run header of a
/// fresh journal, and journals every live step through EnactHooks, before
/// its outputs feed downstream processors.
Result<EnactmentResult> EnactDurable(const RunRequest& request) {
  const Workflow& workflow = *request.workflow;
  InvocationEngine& engine = *request.engine;
  std::vector<std::optional<InvocationRecord>> replayed(
      workflow.processors.size());
  bool fresh = true;
  if (request.resume != nullptr) {
    auto validated =
        ValidateEnactResume(*request.resume, workflow, request.inputs);
    if (!validated.ok()) return validated.status();
    replayed = std::move(validated).value();
    fresh = request.resume->records.empty();
  }
  for (const std::optional<InvocationRecord>& slot : replayed) {
    if (slot.has_value()) engine.metrics().Add(EngineCounter::modules_replayed);
  }

  DurableCommits commits(request, engine);
  if (fresh) {
    EnactRunHeader header;
    header.workflow_id = workflow.id;
    header.processors = workflow.processors.size();
    header.fingerprint = EnactConfigFingerprint(workflow.id, request.inputs);
    DEXA_RETURN_IF_ERROR(commits.AppendHeader(EncodeEnactRunHeader(header)));
  }

  EnactHooks hooks;
  hooks.replayed = &replayed;
  hooks.tracer = request.tracer;
  hooks.on_commit = [&](int processor,
                        const InvocationRecord& record) -> Status {
    StepCommit commit;
    commit.processor = processor;
    commit.record = record;
    return commits
        .Commit(record.module_id, "step", record.processor_name,
                EncodeStepCommit(commit))
        .status;
  };
  auto enacted =
      Enact(workflow, *request.registry, request.inputs, engine, hooks);
  if (!enacted.ok()) return enacted;
  // As for annotate: a completed enactment is durable when it returns.
  DEXA_RETURN_IF_ERROR(request.journal->Seal());
  return enacted;
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
  const EngineMetrics& engine_metrics =
      request.kind == RunKind::kAnnotate ? request.generator->engine().metrics()
                                         : request.engine->metrics();
  const EngineMetricsSnapshot start = engine_metrics.Snapshot();

  switch (request.kind) {
    case RunKind::kAnnotate: {
      auto report = durable ? AnnotateDurable(request)
                            : AnnotateRegistry(*request.generator,
                                               *request.registry,
                                               request.tracer);
      if (!report.ok()) return report.status();
      result.annotate = std::move(report).value();
      result.run_status = result.annotate.run_status;
      break;
    }
    case RunKind::kEnact: {
      EnactHooks hooks;
      hooks.tracer = request.tracer;
      auto enacted =
          durable ? EnactDurable(request)
                  : Enact(*request.workflow, *request.registry,
                          request.inputs, *request.engine, hooks);
      if (!enacted.ok()) return enacted.status();
      result.enact = std::move(enacted).value();
      break;
    }
  }
  result.counters = CountedSince(start, engine_metrics.Snapshot());
  return result;
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
