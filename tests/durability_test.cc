// Tests for the durability layer: journal framing and CRC32, segment
// rolling, group commit (every acknowledged record on disk before any
// seal; one sync per segment; a failed directory sync fails typed and
// resumes), torn-tail detection and discard, crash-point injection,
// crash-resume determinism (byte-identical state at any thread count), a
// resume that appends nothing adding no file, journal record decoding,
// atomic snapshot/restore, and durable workflow enactment.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_config.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "corpus/scale.h"
#include "common/crc32.h"
#include "common/strings.h"
#include "durability/commit_codec.h"
#include "durability/evaluation_env.h"
#include "durability/journal.h"
#include "durability/snapshot.h"
#include "durability/trace_io.h"
#include "engine/concept_cache.h"
#include "modules/registry_io.h"
#include "pool/pool_io.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;

using testing_env::GetEnvironment;

/// A fresh directory under the test temp root, wiped on creation.
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / "dexa_durability" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A fresh, unannotated registry with the environment's module ids (every
/// module wrapped in a pass-through injector).
std::unique_ptr<ModuleRegistry> FreshRegistry() {
  const auto& env = GetEnvironment();
  auto wrapped = WrapRegistryWithFaults(*env.corpus.registry, FaultProfile{});
  EXPECT_TRUE(wrapped.ok()) << wrapped.status();
  return std::move(wrapped).value();
}

/// Submits a durable annotate run of `registry` into `journal`, resuming
/// from `resume` and armed with `crash` when they are set.
Result<AnnotateReport> AnnotateDurable(const ExampleGenerator& generator,
                                       ModuleRegistry& registry,
                                       RunJournal& journal,
                                       const JournalRecovery* resume = nullptr,
                                       const CrashPlan* crash = nullptr) {
  RunRequest request = MakeDurableAnnotateRun(
      generator, registry, *GetEnvironment().corpus.ontology, journal);
  request.resume = resume;
  request.crash = crash;
  auto result = SubmitRun(request);
  if (!result.ok()) return result.status();
  return std::move(result->annotate);
}

/// Submits a durable enactment of `item`'s workflow on its seeds.
Result<EnactmentResult> EnactDurable(
    const GeneratedWorkflow& item, InvocationEngine& engine,
    RunJournal& journal, const JournalRecovery* resume = nullptr,
    const CrashPlan* crash = nullptr) {
  RunRequest request =
      MakeDurableEnactRun(item.workflow, *GetEnvironment().corpus.registry,
                          item.seeds, engine, journal);
  request.resume = resume;
  request.crash = crash;
  auto result = SubmitRun(request);
  if (!result.ok()) return result.status();
  return std::move(result->enact);
}

TEST(Crc32Test, MatchesTheIeeeCheckVector) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Incremental form agrees with the one-shot form.
  uint32_t crc = Crc32Update(0, "1234");
  EXPECT_EQ(Crc32Update(crc, "56789"), Crc32("123456789"));
}

TEST(RunJournalTest, AppendRecoverRoundTrip) {
  const std::string dir = FreshDir("roundtrip");
  auto journal = RunJournal::Create(dir);
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::vector<std::string> payloads = {"alpha", "beta\nwith lines",
                                       std::string(1000, 'x'), ""};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(journal->Append(payload).ok());
  }
  ASSERT_TRUE(journal->Seal().ok());

  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovery->tail_discarded());
  EXPECT_EQ(recovery->records, payloads);
}

TEST(RunJournalTest, RollsSegmentsPastTheSizeCap) {
  const std::string dir = FreshDir("rolling");
  JournalOptions options;
  options.segment_bytes = 256;
  auto journal = RunJournal::Create(dir, options);
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::vector<std::string> payloads;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back("record-" + std::to_string(i) + "-" +
                       std::string(100, 'p'));
    ASSERT_TRUE(journal->Append(payloads.back()).ok());
  }
  ASSERT_TRUE(journal->Seal().ok());
  EXPECT_GT(journal->segments_sealed(), 3u);

  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovery->tail_discarded());
  EXPECT_EQ(recovery->records, payloads);
  EXPECT_GT(recovery->segments_scanned, 3u);
}

TEST(RunJournalTest, TornTailIsDetectedDiscardedAndResumable) {
  const std::string dir = FreshDir("torn");
  auto journal = RunJournal::Create(dir);
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        journal->Append("payload-" + std::to_string(i) + std::string(64, 'q'))
            .ok());
  }
  ASSERT_TRUE(journal->Seal().ok());

  // A crash lands mid-write: the tail is truncated and bit-flipped.
  ASSERT_TRUE(TearJournalTail(dir, /*seed=*/7, /*flips=*/3,
                              /*truncate_bytes=*/5)
                  .ok());

  EngineMetrics metrics;
  auto recovery = RecoverJournal(dir, &metrics);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->tail_discarded());
  EXPECT_TRUE(recovery->tail_status.IsCorrupted());
  EXPECT_GT(recovery->bytes_discarded, 0u);
  EXPECT_LT(recovery->records.size(), 8u);
  EXPECT_EQ(metrics.Snapshot().torn_tails_discarded, 1u);
  // The surviving prefix is intact.
  for (size_t i = 0; i < recovery->records.size(); ++i) {
    EXPECT_EQ(recovery->records[i],
              "payload-" + std::to_string(i) + std::string(64, 'q'));
  }

  // Resume truncates the damage; appends land behind the valid prefix.
  auto resumed = RunJournal::Resume(dir, *recovery);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->Append("after-the-crash").ok());
  ASSERT_TRUE(resumed->Seal().ok());

  auto again = RecoverJournal(dir);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->tail_discarded());
  ASSERT_EQ(again->records.size(), recovery->records.size() + 1);
  EXPECT_EQ(again->records.back(), "after-the-crash");
}

TEST(RunJournalTest, ResumeNumberingSurvivesSegmentGaps) {
  const std::string dir = FreshDir("gaps");
  {
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE(journal->Append("one").ok());
    ASSERT_TRUE(journal->Append("two").ok());
    ASSERT_TRUE(journal->Seal().ok());
  }
  // A crash left the next segment header-less (0 bytes): recovery drops it
  // whole, leaving a numbering gap after the resume writes wal-00002.
  { std::ofstream stub(fs::path(dir) / "wal-00001.seg", std::ios::binary); }
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->tail_discarded());
  {
    auto resumed = RunJournal::Resume(dir, *recovery);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_TRUE(resumed->Append("three").ok());
    ASSERT_TRUE(resumed->Seal().ok());
  }

  // Live segments are now {00000, 00002}: a clean resume must number past
  // the gap, not derive an index from the list position and truncate the
  // live wal-00002 (destroying "three").
  auto clean = RecoverJournal(dir);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_FALSE(clean->tail_discarded());
  ASSERT_EQ(clean->records,
            (std::vector<std::string>{"one", "two", "three"}));
  {
    auto resumed = RunJournal::Resume(dir, *clean);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_TRUE(resumed->Append("four").ok());
    ASSERT_TRUE(resumed->Seal().ok());
  }
  auto final_pass = RecoverJournal(dir);
  ASSERT_TRUE(final_pass.ok()) << final_pass.status();
  EXPECT_FALSE(final_pass->tail_discarded());
  EXPECT_EQ(final_pass->records,
            (std::vector<std::string>{"one", "two", "three", "four"}));
}

TEST(RunJournalTest, ResumeRefusesANextSegmentTheListingHolds) {
  // wal-<2^64-1> parses, but its successor wraps and is not counted, so the
  // next index names that very segment: resume must refuse, not truncate.
  const std::string dir = FreshDir("collision");
  const std::string last = dir + "/wal-18446744073709551615.seg";
  std::ofstream(dir + "/wal-18446744073709551614.seg", std::ios::binary)
      << kJournalSegmentMagic;
  std::ofstream(last, std::ios::binary) << kJournalSegmentMagic << "DR";
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->tail_discarded());

  auto resumed = RunJournal::Resume(dir, *recovery);
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsInternal()) << resumed.status();
  EXPECT_NE(resumed.status().message().find("refusing to resume: next "
                                            "segment '" + last + "'"),
            std::string::npos)
      << resumed.status();
  // Refused before the damaged tail was truncated.
  EXPECT_EQ(fs::file_size(last), kJournalSegmentMagicLen + 2);
}

TEST(RunJournalTest, DamagedHeaderEndsTheJournalBeforeAnyRecord) {
  SegmentScan scan = ScanSegment("GARBAGE!not a segment");
  EXPECT_TRUE(scan.status.IsCorrupted());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
}

/// Batched-sync journal options: fsync once per segment, at its seal.
JournalOptions Batched(size_t segment_bytes = 64 * 1024) {
  JournalOptions options;
  options.segment_bytes = segment_bytes;
  options.sync_each_record = false;
  return options;
}

std::string BatchedPayload(int i) {
  return "batched-" + std::to_string(i) + "-" + std::string(100, 'b');
}

// A batched journal that dies without Seal() (a process exit or kill) keeps
// every record Append acknowledged, in every segment, the open one too.
TEST(RunJournalTest, BatchedJournalDroppedUnsealedKeepsEveryRecord) {
  const std::string dir = FreshDir("batched-unsealed");
  std::vector<std::string> payloads;
  {
    auto journal = RunJournal::Create(dir, Batched(/*segment_bytes=*/512));
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (int i = 0; i < 40; ++i) {
      payloads.push_back(BatchedPayload(i));
      ASSERT_TRUE(journal->Append(payloads.back()).ok());
    }
    ASSERT_GE(journal->segments_sealed(), 3u);
  }
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->tail_status.ok()) << recovery->tail_status;
  EXPECT_GE(recovery->segments_scanned, 4u);
  ASSERT_EQ(recovery->records.size(), payloads.size());
  EXPECT_EQ(recovery->records, payloads);
}

// Nothing is staged above the env: each acknowledged record is already
// readable through the journal's own env before any Seal().
TEST(RunJournalTest, BatchedAppendIsReadableBeforeSeal) {
  const std::string dir = FreshDir("batched-visible");
  auto journal = RunJournal::Create(dir, Batched());
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::vector<std::string> payloads;
  for (int i = 0; i < 12; ++i) {
    payloads.push_back(BatchedPayload(i));
    ASSERT_TRUE(journal->Append(payloads.back()).ok());
    auto recovery = RecoverJournal(dir, nullptr, journal->io());
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    EXPECT_TRUE(recovery->tail_status.ok()) << recovery->tail_status;
    ASSERT_EQ(recovery->records.size(), payloads.size())
        << "after append " << i;
    EXPECT_EQ(recovery->records, payloads);
  }
  ASSERT_TRUE(journal->Seal().ok());
}

// A fault profile counts a batched journal's writes as it does a
// per-record one's: the header is write 1, so the 6th write is the 5th
// Append, which fails typed and leaves the first four records on disk.
TEST(RunJournalTest, BatchedJournalFaultsAtTheRecordThatHitsEio) {
  const std::string dir = FreshDir("batched-eio");
  IoFaultProfile profile;
  profile.eio_write_at = 6;
  FaultyIoEnv io(profile);
  auto journal = RunJournal::Create(dir, Batched(), nullptr, &io);
  ASSERT_TRUE(journal.ok()) << journal.status();
  int acknowledged = 0;
  Status failed;
  for (int i = 0; i < 40 && failed.ok(); ++i) {
    failed = journal->Append(BatchedPayload(i));
    if (failed.ok()) ++acknowledged;
  }
  EXPECT_EQ(acknowledged, 4);
  EXPECT_TRUE(failed.IsCorrupted()) << failed;
  EXPECT_EQ(io.faults_injected(), 1u);
  const Status refused = journal->Append(BatchedPayload(99));
  EXPECT_TRUE(refused.IsUnavailable()) << refused;

  auto recovery = RecoverJournal(dir, nullptr, &io);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_EQ(recovery->records.size(), 4u);
  for (size_t i = 0; i < recovery->records.size(); ++i) {
    EXPECT_EQ(recovery->records[i], BatchedPayload(static_cast<int>(i)));
  }
}

TEST(SnapshotTest, AtomicWriteLeavesNoTemporaries) {
  const std::string dir = FreshDir("atomic");
  const std::string path = (fs::path(dir) / "artifact.txt").string();
  ASSERT_TRUE(WriteFileAtomic(IoEnv::Real(), path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(IoEnv::Real(), path, "second").ok());
  auto content = IoEnv::Real().ReadFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "second");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SnapshotTest, RunStateRoundTripAndCorruptionSafety) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("snapshot");

  ASSERT_TRUE(WriteRunStateSnapshot(dir, *env.pool, *env.corpus.registry,
                                    *env.corpus.ontology, env.provenance)
                  .ok());

  // Round trip into a fresh registry: byte-identical serialized state.
  auto restored_registry = FreshRegistry();
  auto restored =
      RestoreRunState(dir, *env.corpus.ontology, *restored_registry);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_GT(restored->modules_restored, 0u);
  EXPECT_EQ(SavePool(restored->pool), SavePool(*env.pool));
  EXPECT_EQ(SaveTraces(restored->provenance), SaveTraces(env.provenance));
  EXPECT_EQ(SaveAnnotations(*restored_registry, *env.corpus.ontology),
            SaveAnnotations(*env.corpus.registry, *env.corpus.ontology));

  // Truncate the annotations artifact mid-example: restore reports
  // kCorrupted and leaves the target registry untouched.
  const std::string annotations_path =
      (fs::path(dir) / kSnapshotAnnotationsFile).string();
  auto annotations = IoEnv::Real().ReadFile(annotations_path);
  ASSERT_TRUE(annotations.ok());
  // Cut just before an "end" line: every surviving line is complete, but
  // the document stops inside an example — damage, not a grammar error.
  size_t cut = annotations->rfind("\nend\n");
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(annotations_path, std::ios::binary | std::ios::trunc);
    out << annotations->substr(0, cut + 1);
  }
  auto clean_registry = FreshRegistry();
  auto damaged =
      RestoreRunState(dir, *env.corpus.ontology, *clean_registry);
  ASSERT_FALSE(damaged.ok());
  EXPECT_TRUE(damaged.status().IsCorrupted()) << damaged.status();
  for (const ModulePtr& module : clean_registry->AllModules()) {
    EXPECT_TRUE(clean_registry->DataExamplesOf(module->spec().id).empty());
  }
}

TEST(TraceIoTest, TruncatedTraceFileIsCorruptedNotParseError) {
  const auto& env = GetEnvironment();
  std::string rendered = SaveTraces(env.provenance);
  size_t cut = rendered.rfind("\nend\n");
  ASSERT_NE(cut, std::string::npos);
  auto result = LoadTraces(rendered.substr(0, cut + 1));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorrupted()) << result.status();
}

TEST(RegistryIoTest, TruncatedAnnotationsAreCorruptedAndAtomic) {
  const auto& env = GetEnvironment();
  std::string rendered =
      SaveAnnotations(*env.corpus.registry, *env.corpus.ontology);
  size_t cut = rendered.find("\nend\n");
  ASSERT_NE(cut, std::string::npos);
  auto registry = FreshRegistry();
  auto result = LoadAnnotations(rendered.substr(0, cut + 1),
                                *env.corpus.ontology, *registry);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorrupted()) << result.status();
  // Stage-then-commit: the failed load left nothing behind.
  for (const ModulePtr& module : registry->AllModules()) {
    EXPECT_TRUE(registry->DataExamplesOf(module->spec().id).empty());
  }
}

/// One full durable annotation run (no crash) into `dir`; returns the
/// annotated registry.
std::unique_ptr<ModuleRegistry> UninterruptedRun(size_t threads,
                                                 const std::string& dir) {
  const auto& env = GetEnvironment();
  EngineConfig config = EngineConfig().Threads(threads).Seed(0xD0D0);
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.cache, env.pool.get(), engine.get());
  auto registry = FreshRegistry();
  auto journal = RunJournal::Create(dir, {}, &engine->metrics());
  EXPECT_TRUE(journal.ok()) << journal.status();
  auto report = AnnotateDurable(generator, *registry, *journal);
  EXPECT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE((*report).complete()) << (*report).run_status;
  EXPECT_GT((*report).metrics.commits, 0u);
  return registry;
}

// Group commit, the default schedule: a journal syncs its directory entry
// at Create, each segment's entry when it opens and each segment's bytes
// once, at its seal — 2 * segments + 1 syncs, however many records.
TEST(RunJournalTest, GroupCommitSyncsOncePerSegment) {
  const std::string dir = FreshDir("group-commit");
  FaultyIoEnv io(IoFaultProfile{});
  JournalOptions options;
  options.segment_bytes = 512;
  auto journal = RunJournal::Create(dir, options, nullptr, &io);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_EQ(io.syncs(), 2u);  // The journal directory's entry, segment 0's.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(journal->Append(BatchedPayload(i)).ok());
  }
  ASSERT_TRUE(journal->Seal().ok());
  ASSERT_GE(journal->segments_sealed(), 3u);
  EXPECT_EQ(io.syncs(), 2 * journal->segments_sealed() + 1);
}

// A failed directory sync is a disk fault like a failed file sync: the
// append that rolls into a new segment fails kCorrupted, the journal
// refuses further appends, and a resume on a healthy disk finishes the run
// to the bytes of a fault-free one.
TEST(RunJournalTest, FailedDirectorySyncFailsTypedAndResumes) {
  const auto& env = GetEnvironment();
  const std::string baseline_dir = FreshDir("dir-sync-baseline");
  const std::unique_ptr<ModuleRegistry> baseline =
      UninterruptedRun(/*threads=*/1, baseline_dir);
  auto baseline_records = RecoverJournal(baseline_dir);
  ASSERT_TRUE(baseline_records.ok()) << baseline_records.status();

  const std::string dir = FreshDir("dir-sync");
  const EngineConfig config = EngineConfig().Threads(1).Seed(0xD0D0);
  JournalOptions options;
  options.segment_bytes = 4096;
  auto registry = FreshRegistry();
  {
    // Syncs #1 and #2 are Create's (the journal directory's entry and the
    // first segment's); the first roll seals segment 0 (#3) and syncs the
    // entry of segment 1 (#4), which fails.
    IoFaultProfile profile;
    profile.fsync_fail_at = 4;
    FaultyIoEnv faulty(profile);
    auto engine = config.BuildEngine();
    ExampleGenerator generator =
        config.MakeGenerator(env.cache, env.pool.get(), engine.get());
    auto journal = RunJournal::Create(dir, options, nullptr, &faulty);
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto report = AnnotateDurable(generator, *registry, *journal);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->run_status.IsCorrupted()) << report->run_status;
    EXPECT_NE(report->run_status.message().find("sync #4"),
              std::string::npos)
        << report->run_status;
    EXPECT_EQ(faulty.faults_injected(), 1u);
    EXPECT_TRUE(journal->Append("more").IsUnavailable());
  }

  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_GT(recovery->records.size(), 1u);
  auto engine = config.BuildEngine();
  ExampleGenerator generator =
      config.MakeGenerator(env.cache, env.pool.get(), engine.get());
  auto resumed_registry = FreshRegistry();
  auto journal = RunJournal::Resume(dir, *recovery, options);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto report =
      AnnotateDurable(generator, *resumed_registry, *journal, &*recovery);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->complete()) << report->run_status;
  EXPECT_EQ(report->replayed, recovery->records.size() - 1);
  EXPECT_EQ(SaveAnnotations(*resumed_registry, *env.corpus.ontology),
            SaveAnnotations(*baseline, *env.corpus.ontology));
  auto resumed_records = RecoverJournal(dir);
  ASSERT_TRUE(resumed_records.ok()) << resumed_records.status();
  EXPECT_TRUE(resumed_records->tail_status.ok())
      << resumed_records->tail_status;
  EXPECT_EQ(resumed_records->records, baseline_records->records);
}

struct CrashCase {
  CrashPoint point;
  size_t module_index;  // Which available module the crash keys on.
};

class CrashResumeTest
    : public ::testing::TestWithParam<std::tuple<size_t, CrashCase>> {};

TEST_P(CrashResumeTest, ResumedRunIsByteIdenticalToUninterrupted) {
  const auto& env = GetEnvironment();
  const size_t threads = std::get<0>(GetParam());
  const CrashCase crash_case = std::get<1>(GetParam());

  const std::string label =
      std::string(CrashPointName(crash_case.point)) + "-t" +
      std::to_string(threads);
  const std::unique_ptr<ModuleRegistry> baseline_registry =
      UninterruptedRun(threads, FreshDir("baseline-" + label));
  const std::string baseline =
      SaveAnnotations(*baseline_registry, *env.corpus.ontology);

  EngineConfig config = EngineConfig().Threads(threads).Seed(0xD0D0);

  // Phase 1: the run is killed at the chosen crash point.
  const std::string dir = FreshDir("crash-" + label);
  auto crashed_registry = FreshRegistry();
  std::string crash_module_id;
  {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.cache, env.pool.get(), engine.get());
    auto journal = RunJournal::Create(dir, {}, &engine->metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    const auto modules = crashed_registry->AvailableModules();
    ASSERT_GT(modules.size(), crash_case.module_index);
    crash_module_id = modules[crash_case.module_index]->spec().id;

    CrashPlan crash;
    crash.point = crash_case.point;
    crash.key = crash_module_id;
    auto report = AnnotateDurable(generator, *crashed_registry, *journal,
                                  nullptr, &crash);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_FALSE(report->complete());
    EXPECT_TRUE(report->run_status.IsCancelled()) << report->run_status;
    // The aborted run's report still carries the final engine counters.
    EXPECT_GT(report->metrics.invocations, 0u);
    EXPECT_GT(report->metrics.commits, 0u);

    // The report and the registry cover exactly the modules whose commit
    // took effect: the crash module itself only when the run died after
    // its record was appended.
    const size_t committed =
        crash_case.point == CrashPoint::kCrashBeforeCommit
            ? crash_case.module_index
            : crash_case.module_index + 1;
    EXPECT_EQ(report->annotated + report->decayed, committed);
    size_t annotated_modules = 0;
    for (size_t i = 0; i < modules.size(); ++i) {
      const std::string& id = modules[i]->spec().id;
      const DataExampleSet expected = i < committed
                                          ? baseline_registry->DataExamplesOf(id)
                                          : DataExampleSet{};
      EXPECT_EQ(crashed_registry->DataExamplesOf(id), expected)
          << "module " << i << " ('" << id << "')";
      if (!expected.empty()) ++annotated_modules;
    }
    EXPECT_GT(annotated_modules, 0u);
  }

  // Phase 2: a new process recovers the journal and resumes.
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.cache, env.pool.get(), engine.get());
  auto resumed_registry = FreshRegistry();
  auto recovery = RecoverJournal(dir, &engine->metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  if (crash_case.point == CrashPoint::kTornWrite) {
    EXPECT_TRUE(recovery->tail_discarded());
    EXPECT_TRUE(recovery->tail_status.IsCorrupted());
  } else {
    EXPECT_FALSE(recovery->tail_discarded());
  }
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto report =
      AnnotateDurable(generator, *resumed_registry, *journal, &*recovery);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->complete()) << report->run_status;

  // The committed prefix was served from the journal, never re-invoked.
  EXPECT_GT(report->replayed, 0u);
  const EngineMetricsSnapshot resumed_metrics = engine->metrics().Snapshot();
  EXPECT_EQ(report->replayed, resumed_metrics.modules_replayed);
  // Every other module ran live and was journaled once: the replayed and
  // the re-invoked modules together cover the registry.
  EXPECT_EQ(report->replayed + resumed_metrics.modules_reinvoked,
            resumed_registry->AvailableModules().size());
  switch (crash_case.point) {
    case CrashPoint::kCrashBeforeCommit:
      // The crash module's own commit did not survive.
      EXPECT_EQ(report->replayed, crash_case.module_index);
      break;
    case CrashPoint::kTornWrite:
      // The torn commit — and possibly a neighbor clipped by the damage
      // radius — was discarded and re-invoked.
      EXPECT_LE(report->replayed, crash_case.module_index);
      break;
    case CrashPoint::kCrashAfterCommit:
      EXPECT_EQ(report->replayed, crash_case.module_index + 1);
      break;
    default:
      FAIL() << "unexpected crash point";
  }

  // The acceptance bar: byte-identical final state.
  EXPECT_EQ(SaveAnnotations(*resumed_registry, *env.corpus.ontology),
            baseline)
      << "resume after " << label << " diverged from uninterrupted run";
}

INSTANTIATE_TEST_SUITE_P(
    CrashPoints, CrashResumeTest,
    ::testing::Combine(
        ::testing::Values<size_t>(1, 8),
        ::testing::Values(
            CrashCase{CrashPoint::kCrashBeforeCommit, 11},
            CrashCase{CrashPoint::kCrashAfterCommit, 101},
            CrashCase{CrashPoint::kTornWrite, 197})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, CrashCase>>& info) {
      // gtest parameter names allow only [A-Za-z0-9_].
      std::string name = CrashPointName(std::get<1>(info.param).point);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_at_" +
             std::to_string(std::get<1>(info.param).module_index) + "_t" +
             std::to_string(std::get<0>(info.param));
    });

TEST(DurableAnnotateTest, CrashBeforeFirstCommitResumesWithoutSecondHeader) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("first-commit-crash");
  EngineConfig config = EngineConfig().Threads(1).Seed(0xD0D0);

  // Run 1 crashes before the very first module commits: the journal holds
  // the header and nothing else.
  {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.cache, env.pool.get(), engine.get());
    auto registry = FreshRegistry();
    auto journal = RunJournal::Create(dir, {}, &engine->metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashBeforeCommit;
    crash.key = registry->AvailableModules()[0]->spec().id;
    auto report =
        AnnotateDurable(generator, *registry, *journal, nullptr, &crash);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->run_status.IsCancelled()) << report->run_status;
  }

  // Run 2 resumes (zero commits to replay) and crashes again further in. A
  // resume that re-appended the header here would leave the journal with
  // two header records, permanently unresumable.
  {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.cache, env.pool.get(), engine.get());
    auto registry = FreshRegistry();
    auto recovery = RecoverJournal(dir, &engine->metrics());
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    ASSERT_EQ(recovery->records.size(), 1u);  // Header only.
    auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashAfterCommit;
    crash.key = registry->AvailableModules()[3]->spec().id;
    auto report =
        AnnotateDurable(generator, *registry, *journal, &*recovery, &crash);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->run_status.IsCancelled()) << report->run_status;
  }

  // Run 3: the journal decodes as header + commit prefix and the run
  // completes, replaying the four committed modules.
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.cache, env.pool.get(), engine.get());
  auto registry = FreshRegistry();
  auto recovery = RecoverJournal(dir, &engine->metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto report = AnnotateDurable(generator, *registry, *journal, &*recovery);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->complete()) << report->run_status;
  EXPECT_EQ(report->replayed, 4u);
}

/// Every entry of `dir` with its size, in name order.
std::vector<std::pair<std::string, uintmax_t>> Listing(
    const std::string& dir) {
  std::vector<std::pair<std::string, uintmax_t>> listing;
  for (const auto& entry : fs::directory_iterator(dir)) {
    listing.emplace_back(entry.path().filename().string(),
                         entry.is_regular_file() ? entry.file_size() : 0);
  }
  std::sort(listing.begin(), listing.end());
  return listing;
}

TEST(DurableAnnotateTest, ResumingACompleteJournalAddsNoFile) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("complete-resume");
  EngineConfig config = EngineConfig().Threads(1).Seed(0xD0D0);
  size_t committed = 0;
  {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.cache, env.pool.get(), engine.get());
    auto registry = FreshRegistry();
    auto journal = RunJournal::Create(dir, {}, &engine->metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto report = AnnotateDurable(generator, *registry, *journal);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_TRUE(report->complete()) << report->run_status;
    committed = report->annotated + report->decayed;
  }
  const auto listing = Listing(dir);
  ASSERT_FALSE(listing.empty());

  // Two resumes in a row: each replays every commit and appends nothing,
  // so neither may add a file, not even a header-only segment.
  for (int attempt = 1; attempt <= 2; ++attempt) {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.cache, env.pool.get(), engine.get());
    auto registry = FreshRegistry();
    auto recovery = RecoverJournal(dir, &engine->metrics());
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    RunRequest request = MakeDurableAnnotateRun(
        generator, *registry, *env.corpus.ontology, *journal);
    request.resume = &*recovery;
    auto result = SubmitRun(request);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete()) << result->run_status;
    EXPECT_EQ(result->annotate.replayed, committed);
    EXPECT_EQ(result->counters.modules_replayed, committed);
    EXPECT_EQ(result->counters.journal_records, 0u);
    EXPECT_EQ(Listing(dir), listing)
        << "resume " << attempt << " changed the journal directory";
  }
}

TEST(DurableAnnotateTest, ResumeRejectsForeignJournals) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("foreign");
  EngineConfig config = EngineConfig().Threads(1);
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.cache, env.pool.get(), engine.get());
  auto registry = FreshRegistry();
  auto journal = RunJournal::Create(dir);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto report = AnnotateDurable(generator, *registry, *journal);
  ASSERT_TRUE(report.ok()) << report.status();

  // A generator with different options has a different fingerprint.
  EngineConfig other = EngineConfig().Threads(1).MaxCombinations(7);
  ExampleGenerator other_generator = other.MakeGenerator(
      env.cache, env.pool.get(), engine.get());
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto resumed_registry = FreshRegistry();
  auto resumed_journal = RunJournal::Resume(dir, *recovery);
  ASSERT_TRUE(resumed_journal.ok()) << resumed_journal.status();
  auto rejected = AnnotateDurable(other_generator, *resumed_registry,
                                  *resumed_journal, &*recovery);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument()) << rejected.status();
}

TEST(DurableAnnotateTest, ResumeRefusesAJournalPinnedToAnotherKb) {
  const auto& env = GetEnvironment();
  EngineConfig config = EngineConfig().Threads(1).Seed(0xD0D0);
  auto engine = config.BuildEngine();
  ExampleGenerator generator =
      config.MakeGenerator(env.cache, env.pool.get(), engine.get());

  // Starts a durable annotate in `dir`, pinned to `kb_checksum`, that
  // crashes right after its fourth module commits.
  auto start_crashed = [&](const std::string& dir, uint64_t kb_checksum) {
    auto registry = FreshRegistry();
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashAfterCommit;
    crash.key = registry->AvailableModules()[3]->spec().id;
    RunRequest request = MakeDurableAnnotateRun(
        generator, *registry, *env.corpus.ontology, *journal);
    request.kb_checksum = kb_checksum;
    request.crash = &crash;
    auto result = SubmitRun(request);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->run_status.IsCancelled()) << result->run_status;
  };
  // Resumes the journal in `dir` into `registry` under `kb_checksum`.
  auto resume = [&](const std::string& dir, uint64_t kb_checksum,
                    ModuleRegistry& registry) -> Result<RunResult> {
    auto recovery = RecoverJournal(dir);
    if (!recovery.ok()) return recovery.status();
    auto journal = RunJournal::Resume(dir, *recovery);
    if (!journal.ok()) return journal.status();
    RunRequest request = MakeDurableAnnotateRun(
        generator, registry, *env.corpus.ontology, *journal);
    request.kb_checksum = kb_checksum;
    request.resume = &*recovery;
    return SubmitRun(request);
  };

  const std::string image_dir = FreshDir("kb-pin-7");
  start_crashed(image_dir, 7);
  auto registry = FreshRegistry();
  auto refused = resume(image_dir, 0, *registry);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument()) << refused.status();
  EXPECT_NE(refused.status().message().find(
                "journal is pinned to a different knowledge base "
                "(kb_checksum 7 vs 0)"),
            std::string::npos)
      << refused.status();

  const std::string memory_dir = FreshDir("kb-pin-0");
  start_crashed(memory_dir, 0);
  auto refused_image = resume(memory_dir, 7, *registry);
  ASSERT_FALSE(refused_image.ok());
  EXPECT_TRUE(refused_image.status().IsInvalidArgument())
      << refused_image.status();
  EXPECT_NE(refused_image.status().message().find("(kb_checksum 0 vs 7)"),
            std::string::npos)
      << refused_image.status();

  // Under the KB it was pinned to, the refused journal still resumes, to
  // the uninterrupted run's annotations.
  auto resumed_registry = FreshRegistry();
  auto resumed = resume(image_dir, 7, *resumed_registry);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->complete()) << resumed->run_status;
  EXPECT_EQ(resumed->annotate.replayed, 4u);
  EXPECT_EQ(SaveAnnotations(*resumed_registry, *env.corpus.ontology),
            SaveAnnotations(*UninterruptedRun(1, FreshDir("kb-pin-baseline")),
                            *env.corpus.ontology));
}

TEST(CommitCodecTest, DecodersRejectValuesTheyCannotRepresent) {
  const Ontology& ontology = *GetEnvironment().corpus.ontology;

  // A step commit names its processor by index; one past INT_MAX would
  // narrow into a different, valid-looking slot.
  StepCommit step;
  step.processor = 1;
  step.record.workflow_id = "wf";
  step.record.processor_name = "p";
  step.record.module_id = "m001";
  const std::string step_payload = EncodeStepCommit(step);
  auto with_processor = [&](const std::string& index) {
    std::string payload = step_payload;
    payload.replace(payload.find("processor 1\n"), 12,
                    "processor " + index + "\n");
    return DecodeStepCommit(payload);
  };
  auto largest = with_processor("2147483647");
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest->processor, std::numeric_limits<int>::max());
  for (const char* index : {"2147483648", "4294967297"}) {
    auto decoded = with_processor(index);
    ASSERT_FALSE(decoded.ok())
        << index << " decoded as processor " << decoded->processor;
    EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();
  }

  // A module commit's decayed flag is 0 or 1; anything else is not a flag.
  ModuleCommit module;
  module.module_id = "m001";
  const std::string module_payload = EncodeModuleCommit(module, ontology);
  auto with_decayed = [&](const std::string& flag) {
    std::string payload = module_payload;
    payload.replace(payload.find("decayed 0\n"), 10,
                    "decayed " + flag + "\n");
    return DecodeModuleCommit(payload, ontology);
  };
  auto clean = with_decayed("0");
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_FALSE(clean->decayed);
  auto decayed = with_decayed("1");
  ASSERT_TRUE(decayed.ok()) << decayed.status();
  EXPECT_TRUE(decayed->decayed);
  for (const char* flag : {"yes", "2", "01", ""}) {
    auto decoded = with_decayed(flag);
    ASSERT_FALSE(decoded.ok()) << "decayed '" << flag << "' decoded";
    EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();
  }
}

TEST(DurableAnnotateTest, ResumeRefusesACommitItCannotRepresent) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("decayed-yes");
  ExampleGenerator generator(env.cache, env.pool.get());
  auto registry = FreshRegistry();
  {
    // A CRC-valid journal: this run's header, then module 0 with a decayed
    // flag no writer emits.
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    AnnotateRunHeader header;
    header.modules = registry->AvailableModules().size();
    header.fingerprint =
        AnnotateConfigFingerprint(*registry, generator.options());
    ASSERT_TRUE(journal->Append(EncodeAnnotateRunHeader(header)).ok());
    ModuleCommit commit;
    commit.module_id = registry->AvailableModules()[0]->spec().id;
    std::string payload = EncodeModuleCommit(commit, *env.corpus.ontology);
    payload.replace(payload.find("decayed 0\n"), 10, "decayed yes\n");
    ASSERT_TRUE(journal->Append(payload).ok());
  }
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_EQ(recovery->records.size(), 2u);
  auto journal = RunJournal::Resume(dir, *recovery);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto resumed = AnnotateDurable(generator, *registry, *journal, &*recovery);
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsCorrupted()) << resumed.status();
}

TEST(DurableAnnotateTest, ResumeRefusesCommitsOutOfRegistrationOrder) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("out-of-order");
  ExampleGenerator generator(env.cache, env.pool.get());
  auto registry = FreshRegistry();
  const std::vector<ModulePtr> modules = registry->AvailableModules();
  ASSERT_GT(modules.size(), 2u);
  {
    // A CRC-valid journal: this run's header, module 0's commit, then the
    // commit of module 2 where module 1's belongs.
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    AnnotateRunHeader header;
    header.modules = modules.size();
    header.fingerprint =
        AnnotateConfigFingerprint(*registry, generator.options());
    ASSERT_TRUE(journal->Append(EncodeAnnotateRunHeader(header)).ok());
    for (const size_t k : {0, 2}) {
      ModuleCommit commit;
      commit.module_id = modules[k]->spec().id;
      ASSERT_TRUE(
          journal->Append(EncodeModuleCommit(commit, *env.corpus.ontology))
              .ok());
    }
  }
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_EQ(recovery->records.size(), 3u);
  auto journal = RunJournal::Resume(dir, *recovery);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto resumed = AnnotateDurable(generator, *registry, *journal, &*recovery);
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsCorrupted()) << resumed.status();
  EXPECT_EQ(resumed.status().message(),
            "journal commit order diverges from registration order at "
            "record 2 ('" +
                modules[2]->spec().id + "')");
}

// Every record of a durable run re-encodes to the payload it decoded from:
// the 96-module scale corpus, whose commits carry decayed modules, partial
// example sets and every value shape the corpus generates.
TEST(CommitCodecTest, DurableRunRecordsRoundTripByteForByte) {
  auto corpus = BuildScaleCorpus({/*seed=*/7, /*modules=*/96});
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  const Ontology& ontology = *corpus->ontology;
  EngineConfig config = EngineConfig().Threads(1);
  auto engine = config.BuildEngine();
  auto cache = std::make_shared<ConceptCache>(&ontology, &engine->metrics());
  ExampleGenerator generator =
      config.MakeGenerator(cache, corpus->pool.get(), engine.get());
  const std::string dir = FreshDir("codec-round-trip");
  {
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto run = SubmitRun(MakeDurableAnnotateRun(generator, *corpus->registry,
                                                ontology, *journal));
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(run->complete()) << run->run_status;
  }
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_EQ(recovery->records.size(), 1 + corpus->module_ids.size());

  auto header = DecodeAnnotateRunHeader(recovery->records[0]);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(EncodeAnnotateRunHeader(*header), recovery->records[0]);
  size_t examples = 0;
  for (size_t r = 1; r < recovery->records.size(); ++r) {
    const std::string& payload = recovery->records[r];
    auto commit = DecodeModuleCommit(payload, ontology);
    ASSERT_TRUE(commit.ok()) << "record " << r << ": " << commit.status();
    EXPECT_EQ(commit->module_id, corpus->module_ids[r - 1]);
    EXPECT_EQ(EncodeModuleCommit(*commit, ontology), payload)
        << "record " << r;
    examples += commit->examples.size();
  }
  EXPECT_GT(examples, 0u);
}

// The run fingerprint journal headers and shard manifests pin: a fixed
// registry under the default generator options hashes to the same value
// in every build, so journals written by earlier builds still resume.
TEST(CommitCodecTest, DefaultFingerprintIsPinned) {
  auto corpus = BuildScaleCorpus({/*seed=*/7, /*modules=*/96});
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(AnnotateConfigFingerprint(*corpus->registry, GeneratorOptions{}),
            16994948232443710029ull);
}

// Decode failures name what broke: the kind line, the missing or malformed
// field, or the record line (counted from 1, blank lines included) a
// data-example block breaks on.
TEST(CommitCodecTest, DecodeErrorsNameTheFieldOrLine) {
  const Ontology& ontology = *GetEnvironment().corpus.ontology;
  const std::string preamble =
      "commit module\nid m001\ndecayed 0\ntransient_exhausted 0\n";
  const std::vector<std::pair<std::string, std::string>> module_cases = {
      {"", "not a module commit record"},
      {"commit module", "journal record missing 'id' field"},
      {"commit module\nid\n", "journal record missing 'id' field"},
      {"commit module\nid m001\n\ndecayed 0\n",
       "journal record missing 'decayed' field"},
      {"commit module\nid m001\ndecayed 2\n", "malformed decayed flag '2'"},
      {"commit module\nid m001\ndecayed 0\ntransient_exhausted -1\n",
       "malformed transient_exhausted '-1'"},
      {preamble + "\nexample\nin Nope \"x\"\nend\n",
       "module commit line 7: unknown concept 'Nope'"},
      {preamble + "example\nout \"x\nend\n",
       "module commit line 6: ParseError: unterminated string at offset 2"},
      {preamble + "end\n", "module commit line 5: 'end' outside an example"},
      {preamble + "example\r\nbogus\r\n",
       "module commit line 6: unrecognized line 'bogus'"},
      {preamble + "example\n", "module commit record ends inside an example"},
  };
  for (const auto& [payload, message] : module_cases) {
    auto decoded = DecodeModuleCommit(payload, ontology);
    ASSERT_FALSE(decoded.ok()) << payload;
    EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();
    EXPECT_EQ(decoded.status().message(), message) << payload;
  }

  const std::vector<std::pair<std::string, std::string>> other_cases = {
      {"run annotate\nmodules 3\n", "journal record missing 'fingerprint' field"},
      {"run annotate\nmodules x3\nfingerprint 9\n",
       "malformed module count 'x3'"},
      {"run annotate\nmodules 3\nfingerprint 9\nkb_checksum z\n",
       "malformed kb checksum 'z'"},
      {"run enact\nworkflow w\nprocessors 1 2\n",
       "malformed processor count '1 2'"},
      {"commit step\nprocessor 2147483648\n",
       "processor index 2147483648 out of range"},
      {"commit step\nprocessor 1\nworkflow w\nname n\nmodule m\nin 1\nbad\n",
       "step commit: unrecognized line 'bad'"},
      {"commit step\nprocessor 1\nworkflow w\nname n\nmodule m\nout [1,\n",
       "unexpected end of input at offset 3"},
  };
  for (const auto& [payload, message] : other_cases) {
    Status status;
    if (StartsWith(payload, "run annotate")) {
      status = DecodeAnnotateRunHeader(payload).status();
    } else if (StartsWith(payload, "run enact")) {
      status = DecodeEnactRunHeader(payload).status();
    } else {
      status = DecodeStepCommit(payload).status();
    }
    EXPECT_TRUE(status.IsParseError()) << payload << ": " << status;
    EXPECT_EQ(status.message(), message) << payload;
  }
}

/// Picks a still-enactable corpus workflow with at least three processors
/// for the enactment drills; its generated seeds are the inputs.
const GeneratedWorkflow& PickWorkflow() {
  const auto& env = GetEnvironment();
  for (const GeneratedWorkflow& item : env.workflows.items) {
    if (item.workflow.processors.size() >= 3 &&
        IsEnactable(item.workflow, *env.corpus.registry)) {
      return item;
    }
  }
  ADD_FAILURE() << "no enactable workflow with >= 3 processors in the corpus";
  std::abort();
}

/// Writes a CRC-valid journal for `item`'s enactment into `dir`: this
/// enactment's run header, then `steps` as records.
void WriteEnactJournal(const std::string& dir, const GeneratedWorkflow& item,
                       const std::vector<std::string>& steps) {
  auto journal = RunJournal::Create(dir);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EnactRunHeader header;
  header.workflow_id = item.workflow.id;
  header.processors = item.workflow.processors.size();
  header.fingerprint = EnactConfigFingerprint(item.workflow.id, item.seeds);
  ASSERT_TRUE(journal->Append(EncodeEnactRunHeader(header)).ok());
  for (const std::string& step : steps) {
    ASSERT_TRUE(journal->Append(step).ok());
  }
}

/// Recovers the journal in `dir` and resumes `item`'s enactment from it.
Result<EnactmentResult> ResumeEnact(const GeneratedWorkflow& item,
                                    const std::string& dir) {
  auto recovery = RecoverJournal(dir);
  if (!recovery.ok()) return recovery.status();
  EXPECT_FALSE(recovery->tail_discarded());  // Every record is CRC-valid.
  auto journal = RunJournal::Resume(dir, *recovery);
  if (!journal.ok()) return journal.status();
  InvocationEngine engine;
  return EnactDurable(item, engine, *journal, &*recovery);
}

/// The index of the processor named `name` in `workflow`.
int ProcessorIndex(const Workflow& workflow, const std::string& name) {
  for (size_t p = 0; p < workflow.processors.size(); ++p) {
    if (workflow.processors[p].name == name) return static_cast<int>(p);
  }
  ADD_FAILURE() << "no processor named '" << name << "'";
  return -1;
}

TEST(DurableEnactTest, ResumeRefusesAProcessorIndexPastIntMax) {
  const GeneratedWorkflow& item = PickWorkflow();
  const std::string dir = FreshDir("processor-past-int-max");
  // A step commit whose processor index narrows to 1 as an int.
  StepCommit step;
  step.processor = 1;
  step.record.workflow_id = item.workflow.id;
  step.record.processor_name = item.workflow.processors[1].name;
  step.record.module_id = item.workflow.processors[1].module_id;
  std::string payload = EncodeStepCommit(step);
  payload.replace(payload.find("processor 1\n"), 12,
                  "processor 4294967297\n");
  WriteEnactJournal(dir, item, {payload});
  auto resumed = ResumeEnact(item, dir);
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsCorrupted()) << resumed.status();
}

TEST(DurableEnactTest, ResumeRefusesAStepCommittedUnderAnotherProcessor) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();
  auto baseline = Enact(item.workflow, *env.corpus.registry, item.seeds,
                        InvocationEngine::Serial());
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(baseline->invocations.size(), 2u);

  // The first step's real record, filed under the second step's processor.
  const std::string dir = FreshDir("step-under-another-processor");
  StepCommit step;
  step.processor =
      ProcessorIndex(item.workflow, baseline->invocations[1].processor_name);
  step.record = baseline->invocations[0];
  WriteEnactJournal(dir, item, {EncodeStepCommit(step)});
  auto resumed = ResumeEnact(item, dir);
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsCorrupted()) << resumed.status();
  EXPECT_NE(resumed.status().message().find("journal record 1"),
            std::string::npos)
      << resumed.status();
}

TEST(DurableEnactTest, ResumeRefusesAStepCommittedTwice) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();
  auto baseline = Enact(item.workflow, *env.corpus.registry, item.seeds,
                        InvocationEngine::Serial());
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(baseline->invocations.size(), 1u);

  const std::string dir = FreshDir("step-committed-twice");
  StepCommit step;
  step.processor =
      ProcessorIndex(item.workflow, baseline->invocations[0].processor_name);
  step.record = baseline->invocations[0];
  const std::string payload = EncodeStepCommit(step);
  WriteEnactJournal(dir, item, {payload, payload});
  auto resumed = ResumeEnact(item, dir);
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsCorrupted()) << resumed.status();
  EXPECT_NE(resumed.status().message().find("journal record 2"),
            std::string::npos)
      << resumed.status();
}

TEST(DurableEnactTest, CrashedEnactmentResumesToIdenticalResult) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();
  const Workflow& workflow = item.workflow;
  const std::vector<Value>& inputs = item.seeds;

  InvocationEngine baseline_engine;
  auto baseline =
      Enact(workflow, *env.corpus.registry, inputs, baseline_engine);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Crash at the second step that actually runs.
  ASSERT_GE(baseline->invocations.size(), 2u);
  const std::string crash_key = baseline->invocations[1].module_id;

  const std::string dir = FreshDir("enact");
  {
    InvocationEngine engine;
    auto journal = RunJournal::Create(dir, {}, &engine.metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashAfterCommit;
    crash.key = crash_key;
    auto crashed = EnactDurable(item, engine, *journal, nullptr, &crash);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(crashed.status().IsCancelled()) << crashed.status();
  }

  InvocationEngine engine;
  auto recovery = RecoverJournal(dir, &engine.metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovery->tail_discarded());
  EXPECT_GT(recovery->records.size(), 1u);  // Header + committed steps.
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine.metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto resumed = EnactDurable(item, engine, *journal, &*recovery);
  ASSERT_TRUE(resumed.ok()) << resumed.status();

  // Byte-identical outcome: outputs, provenance, and bookkeeping all match
  // the uninterrupted enactment.
  ASSERT_EQ(resumed->outputs.size(), baseline->outputs.size());
  for (size_t i = 0; i < baseline->outputs.size(); ++i) {
    EXPECT_TRUE(resumed->outputs[i].Equals(baseline->outputs[i]))
        << "workflow output " << i << " diverged";
  }
  ASSERT_EQ(resumed->invocations.size(), baseline->invocations.size());
  for (size_t i = 0; i < baseline->invocations.size(); ++i) {
    EXPECT_EQ(resumed->invocations[i].processor_name,
              baseline->invocations[i].processor_name);
    EXPECT_EQ(resumed->invocations[i].module_id,
              baseline->invocations[i].module_id);
  }
  EXPECT_EQ(resumed->missing_outputs, baseline->missing_outputs);
  EXPECT_EQ(resumed->skipped_processors, baseline->skipped_processors);
  // The committed prefix was replayed, not re-invoked.
  EXPECT_GT(engine.metrics().Snapshot().modules_replayed, 0u);
}

TEST(DurableEnactTest, TornStepCommitIsReinvokedOnResume) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();
  const Workflow& workflow = item.workflow;
  const std::vector<Value>& inputs = item.seeds;

  InvocationEngine baseline_engine;
  auto baseline =
      Enact(workflow, *env.corpus.registry, inputs, baseline_engine);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(baseline->invocations.size(), 2u);
  const std::string crash_key = baseline->invocations[1].module_id;

  const std::string dir = FreshDir("enact-torn");
  {
    InvocationEngine engine;
    auto journal = RunJournal::Create(dir, {}, &engine.metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kTornWrite;
    crash.key = crash_key;
    auto crashed = EnactDurable(item, engine, *journal, nullptr, &crash);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(crashed.status().IsCancelled()) << crashed.status();
  }

  InvocationEngine engine;
  auto recovery = RecoverJournal(dir, &engine.metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->tail_discarded());
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine.metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto resumed = EnactDurable(item, engine, *journal, &*recovery);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_EQ(resumed->outputs.size(), baseline->outputs.size());
  for (size_t i = 0; i < baseline->outputs.size(); ++i) {
    EXPECT_TRUE(resumed->outputs[i].Equals(baseline->outputs[i]));
  }
}

// -- The evaluation environment ------------------------------------------

TEST(EvaluationEnvTest, ImageEnvMatchesTheInMemoryEnv) {
  const std::string path = FreshDir("evaluation_env") + "/kb.img";
  const uint64_t seal = testing_env::WriteCorpusKbImage(path);
  ASSERT_NE(seal, 0u);

  // The image's seed overrides the one passed in: the corpus must match
  // the KB it adopts.
  CorpusOptions other_seed;
  other_seed.seed = 7;
  EngineMetrics image_metrics;
  EngineMetrics memory_metrics;
  auto from_image = BuildEvaluationEnv(other_seed, path, &image_metrics);
  ASSERT_TRUE(from_image.ok()) << from_image.status();
  auto in_memory = BuildEvaluationEnv({}, "", &memory_metrics);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();

  EXPECT_EQ(from_image->kb_checksum, seal);
  EXPECT_EQ(in_memory->kb_checksum, 0u);
  EXPECT_EQ(image_metrics.Snapshot().kb_image_loads, 1u);
  EXPECT_EQ(memory_metrics.Snapshot().kb_image_loads, 0u);

  EXPECT_EQ(from_image->corpus.ontology->ToDsl(),
            in_memory->corpus.ontology->ToDsl());
  EXPECT_EQ(SavePool(*from_image->pool), SavePool(*in_memory->pool));
  EXPECT_EQ(from_image->workflows.items.size(),
            in_memory->workflows.items.size());

  // Each env's cache annotates its own registry to the same bytes, and
  // counts its lookups into the metrics the env was built with.
  auto annotations = [](const EvaluationEnv& env) {
    ExampleGenerator generator(env.cache, env.pool.get());
    auto report = AnnotateRegistry(generator, *env.corpus.registry);
    EXPECT_TRUE(report.ok()) << report.status();
    if (report.ok()) {
      EXPECT_TRUE(report->complete()) << report->run_status;
    }
    return SaveAnnotations(*env.corpus.registry, *env.corpus.ontology);
  };
  EXPECT_EQ(annotations(*from_image), annotations(*in_memory));
  EXPECT_GT(image_metrics.Snapshot().cache_queries, 0u);
  EXPECT_GT(memory_metrics.Snapshot().cache_queries, 0u);
}

TEST(EvaluationEnvTest, MissingImageFailsWithTheLoaderStatus) {
  const std::string missing = FreshDir("evaluation_env_missing") + "/kb.img";
  auto env = BuildEvaluationEnv({}, missing);
  ASSERT_FALSE(env.ok());
  const Status load = kbimage::CompiledKb::Load(missing).status();
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(env.status().code(), load.code());
  EXPECT_EQ(env.status().message(), load.message());
}

}  // namespace
}  // namespace dexa
