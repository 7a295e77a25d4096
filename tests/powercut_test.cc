// Power-cut crash-consistency checker. Each scenario runs a small durable
// run on a PowerCutIoEnv, which logs every seam operation. The checker
// replays that log into a second env one operation at a time, and after
// each operation builds every post-cut state the env enumerates (volatile
// file bytes and pending directory operations kept or lost, each file cut
// at every append boundary and inside its last append, each pending
// directory operation applied or not). For each distinct post-cut file
// system it
//   - recovers every journal: each record whose covering Sync returned
//     before the cut must be there, and no record the run did not write;
//   - restarts the run as the product would (resume the committed prefix,
//     or start over when there is none) and requires its output and its
//     journals byte-identical to the uninterrupted run's;
//   - requires every failure on the way to be typed.
// A run that returned complete has acknowledged all of its records, so
// after the last operation every one must survive. A scenario may prepare
// the file system first, unchecked: a run killed mid-way, whose unsynced
// bytes the checked resume inherits.
// The self-test runs a writer that never syncs a directory: the checker
// must report that as a loss.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_config.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "corpus/scale.h"
#include "durability/journal.h"
#include "engine/concept_cache.h"
#include "modules/registry_io.h"
#include "serve/run_manager.h"
#include "serve/serve_env.h"
#include "shard/manifest.h"
#include "shard/sharded_annotate.h"
#include "tests/power_cut_env.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

/// What a run left behind: its output digest (annotations or enactment;
/// empty when a restart only inspected a finished run's journal) and the
/// records of each of the scenario's journals, in journal_dirs() order.
struct Outcome {
  std::string digest;
  std::vector<std::vector<std::string>> journals;
};

/// A durable run the checker cuts, and what a restart does after the cut.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual std::string name() const = 0;
  /// The directory the run works under; it exists, durably, before the run.
  virtual std::string root() const = 0;
  /// The journal directories whose acknowledged records must survive.
  virtual std::vector<std::string> journal_dirs() const = 0;
  /// Runs before the checked run, on the same file system, with no cut
  /// checked. By default nothing.
  virtual Status Prepare(IoEnv& io) {
    (void)io;
    return Status::OK();
  }
  /// The uninterrupted durable run, through `io`.
  virtual Result<Outcome> Run(IoEnv& io) = 0;
  /// Recover, resume or start over, and run to the end, on the file system
  /// a power cut left. By default the run itself, which resumes whatever
  /// committed prefix it finds.
  virtual Result<Outcome> Restart(IoEnv& io) { return Run(io); }
};

/// The records of the journal in `dir`, which must be undamaged.
Result<std::vector<std::string>> JournalRecords(IoEnv& io,
                                                const std::string& dir) {
  DEXA_ASSIGN_OR_RETURN(JournalRecovery recovery,
                        RecoverJournal(dir, nullptr, &io));
  if (recovery.tail_discarded()) return recovery.tail_status;
  return std::move(recovery.records);
}

/// Opens the journal of a durable run in `dir` the way the shard runner
/// does: a resume when the journal holds a committed prefix (recovered into
/// `recovery`), a fresh journal otherwise.
Result<RunJournal> OpenJournal(IoEnv& io, const std::string& dir,
                               const JournalOptions& options,
                               JournalRecovery* recovery, bool* resume) {
  auto recovered = RecoverJournal(dir, nullptr, &io);
  if (!recovered.ok() && !recovered.status().IsNotFound()) {
    return recovered.status();
  }
  *resume = recovered.ok() && !recovered->records.empty();
  if (!*resume) return RunJournal::Create(dir, options, nullptr, &io);
  *recovery = std::move(recovered).value();
  return RunJournal::Resume(dir, *recovery, options, nullptr, &io);
}

const ScaleCorpus& CheckerCorpus() {
  static const ScaleCorpus corpus = [] {
    auto built = BuildScaleCorpus({/*seed=*/7, /*modules=*/24});
    EXPECT_TRUE(built.ok()) << built.status();
    return std::move(built).value();
  }();
  return corpus;
}

std::unique_ptr<ModuleRegistry> FreshCheckerRegistry() {
  auto registry = std::make_unique<ModuleRegistry>();
  for (const ModulePtr& module : CheckerCorpus().registry->AllModules()) {
    EXPECT_TRUE(registry->Register(module).ok());
  }
  return registry;
}

EngineConfig CheckerConfig() { return EngineConfig().Threads(1).Seed(0xD5); }

/// A durable annotate of the 24-module scale corpus over 1 KiB segments
/// (five of them). With an armed `crash`, Prepare runs it first and kills it
/// at that commit, its open segment written but unsynced, as a process
/// kill leaves it; the checked run is the resume.
class AnnotateScenario final : public Scenario {
 public:
  explicit AnnotateScenario(std::string name = "annotate",
                            std::string root = "/pc/annotate",
                            std::string journal_dir = "/pc/annotate/journal",
                            CrashPlan crash = {})
      : name_(std::move(name)),
        root_(std::move(root)),
        journal_dir_(std::move(journal_dir)),
        crash_(std::move(crash)),
        engine_(CheckerConfig().BuildEngine()),
        cache_(std::make_shared<ConceptCache>(
            CheckerCorpus().ontology.get(), &engine_->metrics())),
        generator_(CheckerConfig().MakeGenerator(
            cache_, CheckerCorpus().pool.get(), engine_.get())) {
    options_.segment_bytes = 1024;
  }

  std::string name() const override { return name_; }
  std::string root() const override { return root_; }
  std::vector<std::string> journal_dirs() const override {
    return {journal_dir_};
  }
  /// Records the killed run left; 0 before Prepare.
  size_t crashed_records() const { return crashed_records_; }

  Status Prepare(IoEnv& io) override {
    if (!crash_.armed()) return Status::OK();
    DEXA_ASSIGN_OR_RETURN(
        RunJournal journal,
        RunJournal::Create(journal_dir_, options_, nullptr, &io));
    auto registry = FreshCheckerRegistry();
    RunRequest request = MakeDurableAnnotateRun(
        generator_, *registry, *CheckerCorpus().ontology, journal);
    request.crash = &crash_;
    DEXA_ASSIGN_OR_RETURN(const RunResult result, SubmitRun(request));
    if (!result.run_status.IsCancelled()) {
      return Status::Internal("the crash at " + crash_.key +
                              " did not stop the run: " +
                              result.run_status.ToString());
    }
    crashed_records_ = journal.records_appended();
    return Status::OK();
  }

  Result<Outcome> Run(IoEnv& io) override {
    JournalRecovery recovery;
    bool resume = false;
    DEXA_ASSIGN_OR_RETURN(
        RunJournal journal,
        OpenJournal(io, journal_dir_, options_, &recovery, &resume));
    auto registry = FreshCheckerRegistry();
    RunRequest request = MakeDurableAnnotateRun(
        generator_, *registry, *CheckerCorpus().ontology, journal);
    if (resume) request.resume = &recovery;
    DEXA_ASSIGN_OR_RETURN(const RunResult result, SubmitRun(request));
    if (!result.complete()) return result.run_status;
    Outcome out;
    out.digest = SaveAnnotations(*registry, *CheckerCorpus().ontology);
    DEXA_ASSIGN_OR_RETURN(std::vector<std::string> records,
                          JournalRecords(io, journal_dir_));
    out.journals.push_back(std::move(records));
    return out;
  }

 private:
  std::string name_;
  std::string root_;
  std::string journal_dir_;
  CrashPlan crash_;
  size_t crashed_records_ = 0;
  JournalOptions options_;
  std::unique_ptr<InvocationEngine> engine_;
  std::shared_ptr<ConceptCache> cache_;
  ExampleGenerator generator_;
};

/// A crash plan that kills a run right after the commit of module
/// `index` of the checker corpus, in registration order.
CrashPlan KillAfterModule(size_t index) {
  CrashPlan crash;
  crash.point = CrashPoint::kCrashAfterCommit;
  crash.key = CheckerCorpus().registry->AllModules().at(index)->spec().id;
  return crash;
}

/// A durable enactment of the paper corpus's largest generated workflow.
class EnactScenario final : public Scenario {
 public:
  EnactScenario()
      : env_(testing_env::GetEnvironment()),
        engine_(CheckerConfig().BuildEngine()) {
    for (const GeneratedWorkflow& item : env_.workflows.items) {
      if (item_ == nullptr || item.workflow.processors.size() >
                                  item_->workflow.processors.size()) {
        item_ = &item;
      }
    }
  }

  std::string name() const override { return "enact"; }
  std::string root() const override { return "/pc/enact"; }
  std::vector<std::string> journal_dirs() const override {
    return {root() + "/journal"};
  }
  size_t processors() const { return item_->workflow.processors.size(); }

  Result<Outcome> Run(IoEnv& io) override {
    const std::string dir = journal_dirs()[0];
    JournalRecovery recovery;
    bool resume = false;
    DEXA_ASSIGN_OR_RETURN(RunJournal journal,
                          OpenJournal(io, dir, {}, &recovery, &resume));
    RunRequest request =
        MakeDurableEnactRun(item_->workflow, *env_.corpus.registry,
                            item_->seeds, *engine_, journal);
    if (resume) request.resume = &recovery;
    DEXA_ASSIGN_OR_RETURN(const RunResult result, SubmitRun(request));
    Outcome out;
    out.digest = std::to_string(serve::ServeEnv::EnactDigest(result.enact));
    DEXA_ASSIGN_OR_RETURN(std::vector<std::string> records,
                          JournalRecords(io, dir));
    out.journals.push_back(std::move(records));
    return out;
  }

 private:
  const EvaluationEnv& env_;
  std::unique_ptr<InvocationEngine> engine_;
  const GeneratedWorkflow* item_ = nullptr;
};

/// A 3-shard annotate of the 24-module scale corpus plus its merge; the
/// restart re-submits it, which resumes the unfinished shards and merges
/// again.
class ShardScenario final : public Scenario {
 public:
  std::string name() const override { return "shard"; }
  std::string root() const override { return "/pc/shards"; }
  std::vector<std::string> journal_dirs() const override {
    return {MergedDir(root()), ShardDir(root(), 0), ShardDir(root(), 1),
            ShardDir(root(), 2)};
  }

  Result<Outcome> Run(IoEnv& io) override {
    const ScaleCorpus& corpus = CheckerCorpus();
    ShardOptions options;
    options.shards = 3;
    options.root = root();
    auto registry = FreshCheckerRegistry();
    DEXA_ASSIGN_OR_RETURN(
        const ShardedAnnotateReport report,
        RunShardedAnnotate(*registry, *corpus.ontology, *corpus.pool,
                           CheckerConfig(), options, &io));
    if (!report.merged.run_status.ok()) return report.merged.run_status;
    Outcome out;
    out.digest = SaveAnnotations(*registry, *corpus.ontology);
    for (const std::string& dir : journal_dirs()) {
      DEXA_ASSIGN_OR_RETURN(std::vector<std::string> records,
                            JournalRecords(io, dir));
      out.journals.push_back(std::move(records));
    }
    return out;
  }
};

/// Forwards every call to `target`. The serve scenario swaps the target
/// between runs, so one ServeEnv (the expensive part: the paper corpus and
/// its KB) serves every restart; with `drop_dir_syncs` it is the self-test's
/// writer, which fsyncs files but never a directory.
class ForwardingIoEnv final : public IoEnv {
 public:
  IoEnv* target = nullptr;
  bool drop_dir_syncs = false;

  Result<std::unique_ptr<WritableIoFile>> NewWritableFile(
      const std::string& path) override {
    return target->NewWritableFile(path);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return target->ReadFile(path);
  }
  Result<MmapRegion> MapReadOnly(const std::string& path) override {
    return target->MapReadOnly(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return target->Rename(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return target->RemoveFile(path);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return target->Truncate(path, size);
  }
  Status CreateDirs(const std::string& dir) override {
    return target->CreateDirs(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return target->CreateDir(dir);
  }
  Result<std::vector<DirEntry>> ListDir(const std::string& dir) override {
    return target->ListDir(dir);
  }
  Status SyncDir(const std::string& dir) override {
    return drop_dir_syncs ? Status::OK() : target->SyncDir(dir);
  }
};

/// One served annotate_durable through its DONE marker. The restart is a
/// daemon restart: it resumes every run the unfinished scan finds; a run
/// whose DONE marker survived is finished, so only its journal is read; a
/// run whose RUN descriptor did not survive was never accepted, so the
/// client submits it again.
class ServeScenario final : public Scenario {
 public:
  ServeScenario() {
    PowerCutIoEnv startup;
    startup.MakeDurableDirs(root());
    io_.target = &startup;
    serve::ServeEnvOptions options;
    options.journal_root = root();
    options.threads = 2;
    options.io = &io_;
    auto env = serve::ServeEnv::Create(options);
    EXPECT_TRUE(env.ok()) << env.status();
    if (env.ok()) env_ = std::move(env).value();
    io_.target = nullptr;
  }

  std::string name() const override { return "serve"; }
  std::string root() const override { return "/pc/serve"; }
  std::vector<std::string> journal_dirs() const override {
    return {root() + "/run-0"};
  }

  Result<Outcome> Run(IoEnv& io) override {
    io_.target = &io;
    serve::RunManager manager(env_->engine());
    serve::RunSpec spec;
    spec.kind = "annotate_durable";
    DEXA_ASSIGN_OR_RETURN(serve::PreparedRun run, env_->Prepare(spec));
    if (run.journal_dir != journal_dirs()[0]) {
      return Status::Internal("first run journals in " + run.journal_dir);
    }
    DEXA_ASSIGN_OR_RETURN(const uint64_t id,
                          manager.Submit("t", std::move(run)));
    manager.Drain();
    return Finished(manager, id, io);
  }

  Result<Outcome> Restart(IoEnv& io) override {
    io_.target = &io;
    serve::RunManager manager(env_->engine());
    DEXA_ASSIGN_OR_RETURN(const std::vector<std::string> unfinished,
                          env_->UnfinishedJournalDirs());
    if (unfinished.size() > 1) {
      return Status::Internal(std::to_string(unfinished.size()) +
                              " unfinished runs after one submit");
    }
    if (unfinished.size() == 1) {
      DEXA_ASSIGN_OR_RETURN(serve::PreparedRun run,
                            env_->PrepareResume(unfinished[0]));
      DEXA_ASSIGN_OR_RETURN(const uint64_t id,
                            manager.Submit("t", std::move(run)));
      manager.Drain();
      return Finished(manager, id, io);
    }
    const std::string dir = journal_dirs()[0];
    if (Holds(io, dir, serve::kDoneMarker)) {
      Outcome out;
      DEXA_ASSIGN_OR_RETURN(std::vector<std::string> records,
                            JournalRecords(io, dir));
      out.journals.push_back(std::move(records));
      return out;
    }
    // Never accepted: the client submits again, into the next run dir.
    serve::RunSpec spec;
    spec.kind = "annotate_durable";
    DEXA_ASSIGN_OR_RETURN(serve::PreparedRun run, env_->Prepare(spec));
    DEXA_ASSIGN_OR_RETURN(const uint64_t id,
                          manager.Submit("t", std::move(run)));
    manager.Drain();
    return Finished(manager, id, io);
  }

 private:
  /// True when `dir` lists an entry `name`.
  static bool Holds(IoEnv& io, const std::string& dir, const char* name) {
    auto entries = io.ListDir(dir);
    return entries.ok() &&
           std::any_of(entries->begin(), entries->end(),
                       [&](const DirEntry& e) { return e.name == name; });
  }

  Result<Outcome> Finished(serve::RunManager& manager, uint64_t id,
                           IoEnv& io) {
    DEXA_ASSIGN_OR_RETURN(const RunResult* result, manager.ResultOf(id));
    if (!result->complete()) return result->run_status;
    DEXA_ASSIGN_OR_RETURN(const serve::PreparedRun* run, manager.RunOf(id));
    if (!Holds(io, run->journal_dir, serve::kDoneMarker)) {
      return Status::Internal("a completed run left no DONE marker in " +
                              run->journal_dir);
    }
    Outcome out;
    out.digest = std::to_string(env_->AnnotationsDigest(*run->registry));
    DEXA_ASSIGN_OR_RETURN(std::vector<std::string> records,
                          JournalRecords(io, run->journal_dir));
    out.journals.push_back(std::move(records));
    return out;
  }

  ForwardingIoEnv io_;
  std::unique_ptr<serve::ServeEnv> env_;
};

struct CheckReport {
  Outcome outcome;  ///< The checked run's.
  size_t operations = 0;  ///< Operations of the checked run.
  size_t states = 0;  ///< (cut, post-cut state) pairs checked.
  size_t images = 0;  ///< Distinct post-cut file systems restarted.
  size_t segments = 0;  ///< Most segments any journal of the run held.
  size_t violations = 0;
  size_t typed_failures = 0;
  std::vector<std::string> first_violations;
};

void Violate(CheckReport& report, std::string what) {
  ++report.violations;
  if (report.first_violations.size() < 8) {
    report.first_violations.push_back(std::move(what));
  }
}

/// Recovers the journals of one post-cut file system (returning how many
/// records each held), then restarts the run on it and compares the
/// outcome with the uninterrupted run's.
std::vector<size_t> CheckImage(Scenario& scenario, PowerCutIoEnv& image,
                               const Outcome& fresh, const std::string& where,
                               CheckReport& report) {
  const std::vector<std::string> dirs = scenario.journal_dirs();
  std::vector<size_t> recovered(dirs.size(), 0);
  for (size_t d = 0; d < dirs.size(); ++d) {
    auto recovery = RecoverJournal(dirs[d], nullptr, &image);
    if (!recovery.ok()) {
      if (recovery.status().IsNotFound()) continue;
      if (recovery.status().IsInternal()) {
        Violate(report, where + ": untyped recovery failure of " + dirs[d] +
                            ": " + recovery.status().ToString());
      } else {
        ++report.typed_failures;
      }
      continue;
    }
    recovered[d] = recovery->records.size();
    const std::vector<std::string>& written = fresh.journals[d];
    for (size_t r = 0; r < recovery->records.size(); ++r) {
      if (r >= written.size() || recovery->records[r] != written[r]) {
        Violate(report, where + ": " + dirs[d] + " recovered record " +
                            std::to_string(r) + " the run never wrote");
        break;
      }
    }
  }

  auto restarted = scenario.Restart(image);
  if (!restarted.ok()) {
    if (restarted.status().IsInternal()) {
      Violate(report, where + ": untyped restart failure: " +
                          restarted.status().ToString());
    } else {
      ++report.typed_failures;
      Violate(report, where + ": restart failed: " +
                          restarted.status().ToString());
    }
    return recovered;
  }
  if (!restarted->digest.empty() && restarted->digest != fresh.digest) {
    Violate(report, where + ": restarted output differs from the fresh run's");
  }
  for (size_t d = 0; d < dirs.size(); ++d) {
    if (restarted->journals[d] != fresh.journals[d]) {
      Violate(report, where + ": " + dirs[d] + " holds " +
                          std::to_string(restarted->journals[d].size()) +
                          " records after the restart, not the fresh run's " +
                          std::to_string(fresh.journals[d].size()));
    }
  }
  return recovered;
}

/// Prepares `scenario` and runs it once on a logging power-cut file
/// system, then cuts after every operation of the run and checks every
/// post-cut state (see the file comment). With `skip_dir_syncs` directory
/// syncs never reach the file system.
CheckReport CheckPowerCuts(Scenario& scenario, bool skip_dir_syncs = false) {
  const auto start = std::chrono::steady_clock::now();
  CheckReport report;
  PowerCutIoEnv live;
  live.MakeDurableDirs(scenario.root());
  ForwardingIoEnv writer;
  writer.target = &live;
  writer.drop_dir_syncs = skip_dir_syncs;
  const Status prepared = scenario.Prepare(writer);
  if (!prepared.ok()) {
    Violate(report, "preparing the file system failed: " +
                        prepared.ToString());
    return report;
  }
  const size_t first_cut = live.log().size();
  auto fresh = scenario.Run(writer);
  if (!fresh.ok()) {
    Violate(report, "the uninterrupted run failed: " +
                        fresh.status().ToString());
    return report;
  }
  report.outcome = *fresh;
  const std::vector<std::string> dirs = scenario.journal_dirs();
  for (const std::string& dir : dirs) {
    auto entries = live.ListDir(dir);
    if (entries.ok()) report.segments = std::max(report.segments, entries->size());
  }

  const std::vector<PowerCutIoEnv::Op> log = live.log();
  report.operations = log.size() - first_cut;
  PowerCutIoEnv model;
  model.MakeDurableDirs(scenario.root());
  std::map<std::string, std::vector<size_t>> recovered_by_image;
  for (size_t k = 0; k <= log.size(); ++k) {
    if (k > 0) model.Apply(log[k - 1]);
    if (k < first_cut) continue;
    std::vector<size_t> acknowledged;
    for (size_t d = 0; d < dirs.size(); ++d) {
      // After the last operation the run has returned complete, which
      // acknowledges every record of its journals.
      acknowledged.push_back(k == log.size()
                                 ? fresh->journals[d].size()
                                 : model.AcknowledgedRecords(dirs[d]));
    }
    const std::string cut =
        scenario.name() + ": cut after op " + std::to_string(k) +
        (k == 0 ? "" : " (" + log[k - 1].Describe() + ")");
    for (const PowerCutIoEnv::CutChoice& choice : model.CutChoices()) {
      ++report.states;
      const std::string key = model.Signature(choice);
      auto it = recovered_by_image.find(key);
      if (it == recovered_by_image.end()) {
        ++report.images;
        std::unique_ptr<PowerCutIoEnv> image = model.Crash(choice);
        it = recovered_by_image
                 .emplace(key, CheckImage(scenario, *image, *fresh,
                                          cut + ", " + choice.Describe(),
                                          report))
                 .first;
      }
      for (size_t d = 0; d < dirs.size(); ++d) {
        if (it->second[d] < acknowledged[d]) {
          Violate(report, cut + ", " + choice.Describe() + ": " + dirs[d] +
                              " lost acknowledged records: " +
                              std::to_string(acknowledged[d]) +
                              " acknowledged, " +
                              std::to_string(it->second[d]) + " survived");
        }
      }
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf(
      "powercut %s%s: %zu operations, %zu post-cut states, %zu file "
      "systems restarted, %zu violations, %zu typed failures (%.2f s)\n",
      scenario.name().c_str(), skip_dir_syncs ? " (no directory syncs)" : "",
      report.operations, report.states, report.images, report.violations,
      report.typed_failures, seconds);
  for (const std::string& violation : report.first_violations) {
    std::printf("  %s\n", violation.c_str());
  }
  return report;
}

void ExpectNoViolations(const CheckReport& report) {
  EXPECT_GT(report.operations, 0u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.typed_failures, 0u);
  for (const std::string& violation : report.first_violations) {
    ADD_FAILURE() << violation;
  }
}

TEST(PowerCutTest, DurableAnnotateOverFiveSegments) {
  AnnotateScenario scenario;
  const CheckReport report = CheckPowerCuts(scenario);
  ExpectNoViolations(report);
  EXPECT_GE(report.segments, 3u);
}

// A run killed mid-way leaves its open segment unsynced; the resume must
// make those records durable before it reports them complete.
TEST(PowerCutTest, ResumeOfAKilledRun) {
  AnnotateScenario plain;
  PowerCutIoEnv reference_fs;
  reference_fs.MakeDurableDirs(plain.root());
  auto reference = plain.Run(reference_fs);
  ASSERT_TRUE(reference.ok()) << reference.status();

  AnnotateScenario scenario("annotate killed after module 12",
                            "/pc/annotate", "/pc/annotate/journal",
                            KillAfterModule(12));
  const CheckReport report = CheckPowerCuts(scenario);
  ExpectNoViolations(report);
  EXPECT_EQ(report.outcome.digest, reference->digest);
  EXPECT_EQ(report.outcome.journals, reference->journals);
  EXPECT_GT(scenario.crashed_records(), 0u);
  EXPECT_LT(scenario.crashed_records(), reference->journals[0].size());
}

// Killed after its last commit, the resume appends nothing and seals
// nothing: only the resume itself can sync what the killed run wrote.
TEST(PowerCutTest, ResumeThatAppendsNothing) {
  const size_t last = CheckerCorpus().registry->AllModules().size() - 1;
  AnnotateScenario scenario("annotate killed after its last module",
                            "/pc/annotate", "/pc/annotate/journal",
                            KillAfterModule(last));
  const CheckReport report = CheckPowerCuts(scenario);
  ExpectNoViolations(report);
  EXPECT_EQ(scenario.crashed_records(), report.outcome.journals[0].size());
}

// The journal's directory and two parents above it do not exist yet: each
// new directory's entry must be durable before a record is acknowledged.
TEST(PowerCutTest, DurableAnnotateIntoANewDirectoryTree) {
  AnnotateScenario scenario("annotate into a new tree", "/pc",
                            "/pc/new/a/b/journal");
  ExpectNoViolations(CheckPowerCuts(scenario));
}

TEST(PowerCutTest, DurableEnactment) {
  EnactScenario scenario;
  ASSERT_GE(scenario.processors(), 2u);
  ExpectNoViolations(CheckPowerCuts(scenario));
}

TEST(PowerCutTest, ThreeShardsAndTheirMerge) {
  ShardScenario scenario;
  ExpectNoViolations(CheckPowerCuts(scenario));
}

TEST(PowerCutTest, ServedDurableAnnotateThroughDone) {
  ServeScenario scenario;
  const CheckReport report = CheckPowerCuts(scenario);
  ExpectNoViolations(report);
  EXPECT_GE(report.segments, 3u);
}

// A daemon started on a journal root that does not exist yet: once
// startup returns, every post-cut state still holds the root.
TEST(PowerCutTest, ServeStartupMakesANewJournalRootDurable) {
  PowerCutIoEnv fs;
  fs.MakeDurableDirs("/pc");
  serve::ServeEnvOptions options;
  options.journal_root = "/pc/new/a/runs";
  options.threads = 1;
  options.io = &fs;
  auto env = serve::ServeEnv::Create(options);
  ASSERT_TRUE(env.ok()) << env.status();
  for (const PowerCutIoEnv::CutChoice& choice : fs.CutChoices()) {
    EXPECT_TRUE(fs.Crash(choice)->ListDir(options.journal_root).ok())
        << choice.Describe();
  }
}

// The checker's self-test: a journal whose directory syncs never happen
// acknowledges records (at each segment's seal) whose segment a power cut
// can unlink. The checker must see the loss.
TEST(PowerCutTest, SeesASegmentWhoseDirectoryWasNeverSynced) {
  AnnotateScenario scenario;
  const CheckReport report = CheckPowerCuts(scenario, /*skip_dir_syncs=*/true);
  ASSERT_GT(report.violations, 0u);
  ASSERT_FALSE(report.first_violations.empty());
  EXPECT_NE(report.first_violations[0].find("lost acknowledged records"),
            std::string::npos)
      << report.first_violations[0];
}

}  // namespace
}  // namespace dexa
