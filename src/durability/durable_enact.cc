#include <optional>
#include <string>
#include <utility>

#include "corpus/fault_injector.h"
#include "durability/commit_codec.h"
#include "durability/journal.h"
#include "durability/run_api_internal.h"

namespace dexa {

namespace {

/// Decodes the committed steps of a recovered enactment journal into a
/// per-processor replay vector, validating the header against this run.
Result<std::vector<std::optional<InvocationRecord>>> ValidateResume(
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
    replayed[static_cast<size_t>(commit->processor)] =
        std::move(commit->record);
  }
  return replayed;
}

}  // namespace

Result<ResilientEnactmentResult> internal::EnactDurableImpl(
    const RunRequest& request) {
  const Workflow& workflow = *request.workflow;
  const std::vector<Value>& inputs = request.inputs;
  InvocationEngine& engine = *request.engine;
  RunJournal& journal = *request.journal;
  std::vector<std::optional<InvocationRecord>> replayed(
      workflow.processors.size());
  bool fresh = true;
  if (request.resume != nullptr) {
    auto validated = ValidateResume(*request.resume, workflow, inputs);
    if (!validated.ok()) return validated.status();
    replayed = std::move(validated).value();
    fresh = request.resume->records.empty();
  }
  for (const std::optional<InvocationRecord>& slot : replayed) {
    if (slot.has_value()) engine.metrics().Add(EngineCounter::modules_replayed);
  }

  // Per-run commit stream: see durable_annotate.cc — concurrent durable
  // runs sharing one engine must not interleave journals.
  CommitStream commits(engine,
                       [&journal](uint64_t, const std::string& payload) {
                         return journal.Append(payload);
                       });

  if (fresh) {
    EnactRunHeader header;
    header.workflow_id = workflow.id;
    header.processors = workflow.processors.size();
    header.fingerprint = EnactConfigFingerprint(workflow.id, inputs);
    DEXA_RETURN_IF_ERROR(commits.Commit(EncodeEnactRunHeader(header)));
  }

  const CrashPlan crash =
      request.crash != nullptr ? *request.crash : CrashPlan{};
  EnactHooks hooks;
  hooks.replayed = &replayed;
  hooks.obs = request.obs;
  hooks.on_commit = [&](int processor,
                        const InvocationRecord& record) -> Status {
    if (crash.point == CrashPoint::kCrashBeforeCommit &&
        crash.Matches(record.module_id)) {
      return Status::Cancelled("crash injected before commit of step '" +
                               record.processor_name + "'");
    }
    StepCommit commit;
    commit.processor = processor;
    commit.record = record;
    DEXA_RETURN_IF_ERROR(commits.Commit(EncodeStepCommit(commit)));
    engine.metrics().Add(EngineCounter::modules_reinvoked);
    if (crash.Matches(record.module_id)) {
      if (crash.point == CrashPoint::kCrashAfterCommit) {
        return Status::Cancelled("crash injected after commit of step '" +
                                 record.processor_name + "'");
      }
      if (crash.point == CrashPoint::kTornWrite) {
        DEXA_RETURN_IF_ERROR(journal.Seal());
        DEXA_RETURN_IF_ERROR(TearJournalTail(journal.dir(), crash.seed,
                                             crash.torn_flips,
                                             crash.torn_truncate_bytes));
        return Status::Cancelled("torn-write crash injected at step '" +
                                 record.processor_name + "'");
      }
    }
    return Status::OK();
  };

  return EnactResilient(workflow, *request.registry, inputs, engine, hooks);
}

}  // namespace dexa
