#include <optional>
#include <utility>
#include <vector>

#include "corpus/fault_injector.h"
#include "durability/commit_codec.h"
#include "durability/journal.h"
#include "durability/run_api_internal.h"
#include "obs/trace.h"

namespace dexa {

namespace {

/// Parses and validates the committed prefix of a recovered journal against
/// the run about to resume: header fingerprint must match, and the commit
/// records must be a prefix of the registration order (the sequential
/// commit phase guarantees they were written that way).
Result<std::vector<ModuleCommit>> ValidateResume(
    const JournalRecovery& recovery, const std::vector<ModulePtr>& modules,
    const ModuleRegistry& registry, const GeneratorOptions& options,
    const Ontology& ontology, uint64_t kb_checksum) {
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
        commit->module_id != modules[index]->spec().id) {
      return Status::Corrupted(
          "journal commit order diverges from registration order at record " +
          std::to_string(r) + " ('" + commit->module_id + "')");
    }
    committed.push_back(std::move(commit).value());
  }
  return committed;
}

}  // namespace

Result<AnnotateReport> internal::AnnotateDurableImpl(
    const RunRequest& request) {
  const ExampleGenerator& generator = *request.generator;
  ModuleRegistry& registry = *request.registry;
  const Ontology& ontology = *request.ontology;
  RunJournal& journal = *request.journal;
  const std::vector<ModulePtr> modules = registry.AvailableModules();
  InvocationEngine& engine = generator.engine();

  std::vector<ModuleCommit> committed;
  bool fresh = true;
  if (request.resume != nullptr) {
    auto validated = ValidateResume(*request.resume, modules, registry,
                                    generator.options(), ontology,
                                    request.kb_checksum);
    if (!validated.ok()) return validated.status();
    committed = std::move(validated).value();
    // A recovered journal with any records already carries its header —
    // even when zero commits follow it (crash before the first commit).
    fresh = request.resume->records.empty();
  }

  // Route commits through this run's own ordered stream into the journal:
  // streams are per-run state, so concurrent durable runs sharing one
  // engine cannot interleave each other's journals.
  CommitStream commits(engine,
                       [&journal](uint64_t, const std::string& payload) {
                         return journal.Append(payload);
                       });

  obs::Tracer* tracer = request.obs.tracer;
  obs::ScopedSpan run(tracer, obs::SpanKind::kRun,
                      "annotate_registry_durable");
  const EngineMetricsSnapshot run_before = engine.metrics().Snapshot();

  AnnotateReport report;
  if (fresh) {
    AnnotateRunHeader header;
    header.modules = modules.size();
    header.fingerprint =
        AnnotateConfigFingerprint(registry, generator.options());
    header.kb_checksum = request.kb_checksum;
    Status appended = commits.Commit(EncodeAnnotateRunHeader(header));
    if (!appended.ok()) return appended;
  }

  // Replay the committed prefix: served from the journal, not re-invoked.
  // Replay spans are marked `replayed` and carry only the counters the
  // journal preserves — no live invocation deltas, because no invocation
  // happened.
  {
    obs::ScopedSpan replay(tracer, obs::SpanKind::kPhase, "replay", run.id());
    for (const ModuleCommit& commit : committed) {
      obs::ScopedSpan module_span(tracer, obs::SpanKind::kBatch,
                                  commit.module_id, replay.id());
      module_span.MarkReplayed();
      std::vector<std::pair<std::string, uint64_t>> counters;
      counters.reserve(3);
      if (!commit.examples.empty()) {
        counters.emplace_back("examples", commit.examples.size());
      }
      if (commit.decayed) counters.emplace_back("decayed", 1);
      if (commit.transient_exhausted != 0) {
        counters.emplace_back("transient_exhausted", commit.transient_exhausted);
      }
      module_span.Counters(std::move(counters));
      size_t examples = commit.examples.size();
      DEXA_RETURN_IF_ERROR(
          registry.SetDataExamples(commit.module_id, commit.examples));
      report.transient_exhausted += commit.transient_exhausted;
      report.examples += examples;
      if (commit.decayed) {
        ++report.decayed;
        report.decayed_ids.push_back(commit.module_id);
      } else {
        ++report.annotated;
      }
      ++report.replayed;
      engine.metrics().Add(EngineCounter::modules_replayed);
    }
  }

  // Generate the remainder concurrently; outcomes are schedule-independent
  // so this fan-out cannot perturb the byte-identical-resume contract.
  const size_t start = committed.size();
  std::vector<std::optional<Result<GenerationOutcome>>> outcomes(
      modules.size());
  {
    obs::ScopedSpan generate(tracer, obs::SpanKind::kPhase, "generate",
                             run.id());
    const EngineMetricsSnapshot before = engine.metrics().Snapshot();
    engine.ForEach(modules.size() - start, [&](size_t k) {
      outcomes[start + k] = generator.Generate(*modules[start + k]);
    });
    generate.CounterDeltas(before, engine.metrics().Snapshot());
  }

  // Sequential commit phase, registration order: journal record first
  // (write-ahead), then the registry — with the crash plan consulted at
  // each unit the way a real crash would interleave with the appends.
  const CrashPlan crash =
      request.crash != nullptr ? *request.crash : CrashPlan{};
  obs::ScopedSpan commit_phase(tracer, obs::SpanKind::kPhase, "commit",
                               run.id());
  for (size_t i = start; i < modules.size(); ++i) {
    const std::string& id = modules[i]->spec().id;
    if (crash.point == CrashPoint::kCrashBeforeCommit && crash.Matches(id)) {
      report.run_status = Status::Cancelled(
          "crash injected before commit of module '" + id + "'");
      break;
    }

    Result<GenerationOutcome>& outcome = *outcomes[i];
    if (!outcome.ok()) {
      report.run_status = outcome.status();
      break;
    }

    obs::ScopedSpan module_span(tracer, obs::SpanKind::kBatch, id,
                                commit_phase.id());
    {
      // Same omit-zero, single-locked-call shape as the plain annotate
      // path, so a resumed run's live suffix traces identically.
      std::vector<std::pair<std::string, uint64_t>> counters;
      counters.reserve(5);
      auto add = [&counters](const char* name, uint64_t value) {
        if (value != 0) counters.emplace_back(name, value);
      };
      add("combinations_tried", outcome->stats.combinations_tried);
      add("invocation_errors", outcome->stats.invocation_errors);
      add("transient_exhausted", outcome->stats.transient_exhausted);
      add("decayed", outcome->stats.decayed ? 1 : 0);
      add("examples", outcome->examples.size());
      module_span.Counters(std::move(counters));
    }

    ModuleCommit commit;
    commit.module_id = id;
    commit.decayed = outcome->stats.decayed;
    commit.transient_exhausted = outcome->stats.transient_exhausted;
    commit.examples = std::move(outcome->examples);

    Status appended = commits.Commit(EncodeModuleCommit(commit, ontology));
    if (!appended.ok()) {
      report.run_status = appended;
      break;
    }

    size_t examples = commit.examples.size();
    Status stored =
        registry.SetDataExamples(id, std::move(commit.examples));
    if (!stored.ok()) {
      report.run_status = stored;
      break;
    }
    report.transient_exhausted += commit.transient_exhausted;
    report.examples += examples;
    if (commit.decayed) {
      ++report.decayed;
      report.decayed_ids.push_back(id);
    } else {
      ++report.annotated;
    }
    engine.metrics().Add(EngineCounter::modules_reinvoked);

    if (crash.Matches(id)) {
      if (crash.point == CrashPoint::kCrashAfterCommit) {
        report.run_status = Status::Cancelled(
            "crash injected after commit of module '" + id + "'");
        break;
      }
      if (crash.point == CrashPoint::kTornWrite) {
        // The record for `id` lands half-written: seal the stream, then
        // damage the tail the way an interrupted flush would.
        DEXA_RETURN_IF_ERROR(journal.Seal());
        DEXA_RETURN_IF_ERROR(TearJournalTail(journal.dir(), crash.seed,
                                             crash.torn_flips,
                                             crash.torn_truncate_bytes));
        report.run_status = Status::Cancelled(
            "torn-write crash injected at commit of module '" + id + "'");
        break;
      }
    }
  }

  commit_phase.End();
  report.metrics = engine.metrics().Snapshot();
  run.CounterDeltas(run_before, report.metrics);
  return report;
}

}  // namespace dexa
