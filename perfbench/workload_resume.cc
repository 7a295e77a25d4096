// resume_durable: a 10k durable annotate crashed after the commit at module
// index 9,900 is recovered and resumed to completion, from a fresh copy of
// the crashed journal each time.

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "durability/commit_codec.h"
#include "durability/journal.h"
#include "modules/registry_io.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kModules = 10'000;
constexpr size_t kCrashIndex = 9'900;
/// Records the crashed journal holds: the run header and commits
/// 0..kCrashIndex.
constexpr size_t kCrashedRecords = kCrashIndex + 2;

/// Runs the fixture's durable annotate into a fresh `dir`, crashes it right
/// after the commit of module kCrashIndex and seals the journal. It syncs
/// once per segment: the bytes on disk are those a per-record-fsync run
/// leaves, without the 9,900 fsyncs that made set-up time follow the disk.
void PrepareCrashedJournal(ScaleFixture& fixture, const std::string& dir) {
  FreshDir(dir);
  dexa::JournalOptions batched;
  batched.sync_each_record = false;
  auto journal = dexa::RunJournal::Create(dir, batched);
  if (!journal.ok()) Die("RunJournal::Create", journal.status());
  dexa::CrashPlan crash;
  crash.point = dexa::CrashPoint::kCrashAfterCommit;
  crash.key = fixture.corpus.module_ids[kCrashIndex];
  dexa::RunRequest request = dexa::MakeDurableAnnotateRun(
      *fixture.generator, *fixture.corpus.registry, *fixture.corpus.ontology,
      *journal);
  request.crash = &crash;
  auto run = dexa::SubmitRun(request);
  if (!run.ok()) Die("crashing run", run.status());
  if (run->annotate.run_status.code() != dexa::StatusCode::kCancelled) {
    Die("crashing run did not crash", run->annotate.run_status);
  }
  dexa::Status sealed = journal->Seal();
  if (!sealed.ok()) Die("crashed journal seal", sealed);
}

/// Phases of one timed resume.
struct ResumeTiming {
  double recover_ms = 0.0;
  double reopen_ms = 0.0;
  double total_ms = 0.0;
  /// io_env append + sync time of the resumed run itself (after reopen).
  double run_io_ms = 0.0;
};

}  // namespace

void RunResume(const Options& options, Report& report) {
  report.Note(
      "flush policy: fsync after every record, 65536-byte segments (default "
      "JournalOptions)");
  const std::string crashed_dir = options.work_dir + "/crashed";
  const std::string run_dir = options.work_dir + "/run";

  // -- Set-up: corpus, engine and the crashed journal, timed, repeated -----
  // More set-ups are timed between the measured resumes below, into a
  // spare fixture and directory.
  std::vector<double> setup_s, corpus_ms;
  auto set_up = [&](ScaleFixture& into, const std::string& dir) {
    into = ScaleFixture{};  // Drop the previous build outside the timing.
    SyncFilesystem(options.work_dir);
    const Clock::time_point start = Clock::now();
    into = BuildScaleFixture(options.seed, kModules);
    PrepareCrashedJournal(into, dir);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    corpus_ms.push_back(into.corpus_build_ms);
    return setup_s.back();
  };
  ScaleFixture fixture;
  while (setup_s.size() < kMinSetups) set_up(fixture, crashed_dir);
  ClearAnnotations(*fixture.corpus.registry);
  const dexa::Ontology& ontology = *fixture.corpus.ontology;

  // -- References, untimed -------------------------------------------------
  const std::string reference_dir = options.work_dir + "/reference";
  const uint64_t reference = ReferenceDurableRun(fixture, reference_dir);
  const uint64_t reference_frames = Digest(JournalFrames(reference_dir));
  FreshDir(reference_dir);

  ModuleLedger module_ledger;
  std::unique_ptr<dexa::ModuleRegistry> decorated;
  if (options.trace) {
    decorated = DecoratedRegistry(*fixture.corpus.registry, &module_ledger);
  }

  // One checked resume from a fresh copy of the crashed journal; `traced`
  // routes it through the decorated registry and the timing IoEnv. An
  // untraced resume adds its peak RSS to `peak_mb`, before the output check.
  size_t run_index = 0;
  std::vector<double> peak_mb;
  auto resume_once = [&](TracedRun* traced_run, ResumeTiming* timing) {
    const bool traced = traced_run != nullptr;
    dexa::ModuleRegistry& registry =
        traced ? *decorated : *fixture.corpus.registry;
    FreshDir(run_dir);
    std::error_code ec;
    std::filesystem::copy(crashed_dir, run_dir, ec);
    if (ec) Die("copy crashed journal", dexa::Status::Internal(ec.message()));
    SyncFilesystem(options.work_dir);
    IoLedger io;
    TimingIoEnv timing_io(&io);
    dexa::IoEnv* env = traced ? &timing_io : nullptr;
    module_ledger.Reset();
    const dexa::EngineMetricsSnapshot before =
        fixture.engine->metrics().Snapshot();

    std::string problem;
    ResetPeakRss();
    const Clock::time_point start = Clock::now();
    auto recovery = dexa::RecoverJournal(run_dir, nullptr, env);
    const Clock::time_point recovered = Clock::now();
    if (!recovery.ok()) Die("RecoverJournal", recovery.status());
    auto reopened_journal =
        dexa::RunJournal::Resume(run_dir, *recovery, {}, nullptr, env);
    const Clock::time_point reopened = Clock::now();
    if (!reopened_journal.ok()) {
      Die("RunJournal::Resume", reopened_journal.status());
    }
    std::optional<dexa::RunJournal> journal(
        std::move(reopened_journal).value());
    const uint64_t reopen_io_ns = io.append_ns + io.sync_ns;
    dexa::RunRequest request = dexa::MakeDurableAnnotateRun(
        *fixture.generator, registry, ontology, *journal);
    request.resume = &*recovery;
    auto run = dexa::SubmitRun(request);
    const Clock::time_point end = Clock::now();
    if (!traced) peak_mb.push_back(PeakRssMb());

    timing->recover_ms = MsBetween(start, recovered);
    timing->reopen_ms = MsBetween(recovered, reopened);
    timing->total_ms = MsBetween(start, end);
    timing->run_io_ms = (io.append_ns + io.sync_ns - reopen_io_ns) / 1e6;
    if (!run.ok()) {
      problem = run.status().ToString();
    } else if (!run->complete()) {
      problem = run->run_status.ToString();
    } else if (run->annotate.replayed != kCrashedRecords - 1 ||
               run->annotate.annotated + run->annotate.decayed != kModules) {
      problem = "replayed " + std::to_string(run->annotate.replayed) +
                " and committed " +
                std::to_string(run->annotate.annotated +
                               run->annotate.decayed) +
                " modules";
    }
    if (traced && run.ok()) {
      traced_run->wall_ms = timing->total_ms;
      CaptureLayers(module_ledger, before, run->annotate, traced_run);
      traced_run->journal_records = journal->records_appended();
      traced_run->journal_segments = journal->segments_sealed();
      traced_run->io = io;
    }
    journal.reset();  // Close the open segment before reading it back.
    if (problem.empty() &&
        Digest(dexa::SaveAnnotations(registry, ontology)) != reference) {
      problem = "annotations differ from the one-shot reference";
    }
    if (problem.empty() && Digest(JournalFrames(run_dir)) != reference_frames) {
      problem = "journal records differ from the one-shot reference";
    }
    report.Check(problem.empty(), "resume " + std::to_string(run_index++) +
                                      ": " + problem);
    ClearAnnotations(registry);
  };

  // -- Measurement ---------------------------------------------------------
  ResumeTiming warmup;
  resume_once(nullptr, &warmup);
  std::vector<double> resume_ms, recover_ms, reopen_ms, run_io_ms;
  std::vector<TracedRun> traced;
  double interleaved_setup_s = 0.0;
  const Clock::time_point loop_start = Clock::now();
  while (resume_ms.size() < kMinSamples ||
         MsBetween(loop_start, Clock::now()) < options.seconds * 1000.0) {
    ResumeTiming timing;
    resume_once(nullptr, &timing);
    resume_ms.push_back(timing.total_ms);
    if (options.trace) {
      traced.emplace_back();
      resume_once(&traced.back(), &timing);
      recover_ms.push_back(timing.recover_ms);
      reopen_ms.push_back(timing.reopen_ms);
      run_io_ms.push_back(timing.run_io_ms);
    }
    if (SetupDue(interleaved_setup_s,
                 MsBetween(loop_start, Clock::now()) / 1000.0)) {
      ScaleFixture spare;
      interleaved_setup_s += set_up(spare, options.work_dir + "/spare");
    }
  }

  const Stretch setup = *QuietestStretch(setup_s);
  const Stretch quiet = *QuietestStretch(resume_ms);
  const size_t quiet_n = quiet.end - quiet.begin;
  report.Note("timing " + DescribeStretch("setup_s", "s", setup_s, setup));
  report.Note("timing " + DescribeStretch("resume_ms", "ms", resume_ms, quiet));
  report.Metric("setup_s", setup.median, "s", setup.end - setup.begin);
  report.Metric("modules_per_s", kModules / (quiet.median / 1000.0), "1/s",
                quiet_n);
  report.Metric("latency_p50_ms", quiet.median, "ms", quiet_n);
  report.Metric("resume_ms", quiet.median, "ms", quiet_n);
  report.Metric("peak_rss_mb", *Median(peak_mb), "MB", peak_mb.size());
  if (!options.trace) return;
  // Traced and untraced resumes alternate, so their whole-run medians saw
  // the same host.
  const double median_ms = *Median(resume_ms);

  // -- Per-layer ledger (traced run) ---------------------------------------
  // Decomposed pass over the recovered prefix: decode every commit, and
  // install its examples into a registry the way the replay does.
  auto recovery = dexa::RecoverJournal(crashed_dir);
  if (!recovery.ok()) Die("RecoverJournal", recovery.status());
  double decode_ms = 0.0, install_ms = 0.0;
  uint64_t replayed_examples = 0;
  auto replay_registry = FreshRegistry(*fixture.corpus.registry);
  for (size_t r = 1; r < recovery->records.size(); ++r) {
    const Clock::time_point start = Clock::now();
    auto commit = dexa::DecodeModuleCommit(recovery->records[r], ontology);
    const Clock::time_point decoded = Clock::now();
    if (!commit.ok()) Die("DecodeModuleCommit", commit.status());
    dexa::Status installed =
        replay_registry->SetDataExamples(commit->module_id, commit->examples);
    install_ms += MsBetween(decoded, Clock::now());
    decode_ms += MsBetween(start, decoded);
    if (!installed.ok()) Die("SetDataExamples", installed);
    replayed_examples += commit->examples.size();
  }
  // The live suffix's examples are what its invocations kept.
  for (TracedRun& run : traced) run.examples -= replayed_examples;

  const size_t live = kModules - (kCrashedRecords - 1);
  const double traced_wall = ReportCommonLayers(report, traced, median_ms, live);
  report.Metric("corpus.build_ms", *Median(corpus_ms), "ms");
  const TracedRun& last = traced.back();
  report.Metric("journal.records", last.journal_records, "count");
  report.Metric("journal.segments", last.journal_segments, "count");
  report.Metric("journal.replayed", kCrashedRecords - 1, "count");
  const double recover = *Median(recover_ms);
  const double reopen = *Median(reopen_ms);
  report.Metric("journal.recover_ms", recover, "ms");
  report.Metric("journal.reopen_ms", reopen, "ms");

  report.Metric("codec.decode_ms", decode_ms, "ms");
  // Generate and encode the live suffix the resumed run commits.
  const DecomposedPass pass =
      RunDecomposedPass(fixture, kCrashedRecords - 1, /*encode=*/true);
  report.Metric("core.generate_ms", pass.generate_ms, "ms");
  report.Metric("codec.encode_ms", pass.encode_ms, "ms");
  report.Metric("codec.bytes_per_commit",
                static_cast<double>(pass.commit_bytes) / pass.commits, "B");

  // The resume is recovery, reopen, then a sequential replay of the decoded
  // prefix, a parallel generate of the suffix and its sequential commits.
  // Recovery's reads and reopen's segment open sit inside recover_ms and
  // reopen_ms, so only the run's own io_env calls count beside them.
  const double window_ms =
      MedianOf(traced, [](const TracedRun& r) { return r.generate_window_ms; });
  ReportLedger(report, traced_wall,
               {{"journal: recover (incl. reads)", recover},
                {"journal: reopen", reopen},
                {"codec: decode (decomposed)", decode_ms},
                {"modules: registry install (decomposed)", install_ms},
                {"modules: generate window", window_ms},
                {"codec: encode (decomposed)", pass.encode_ms},
                {"io_env: append + sync (run)", *Median(run_io_ms)}});
}

}  // namespace perfbench
