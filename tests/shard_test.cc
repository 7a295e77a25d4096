// The corpus scale-out suite (`ctest -L shard`): sharded annotation runs
// must be indistinguishable — byte for byte — from an equivalent
// single-process durable run. Covered here:
//  * the stable partition function and the pinned shard manifest;
//  * shards ≡ one-shot byte equality (merged journal bytes, saved
//    annotations, report totals) at {1,2,4,8} shards × {1,8} threads;
//  * merge determinism under permuted shard completion order;
//  * crash-resume of a killed shard subset converging to the one-shot
//    bytes (crash-after-commit and torn-write), a resubmitted finished run
//    leaving every shard file as it was, and an unreadable shard journal
//    failing typed with every segment kept;
//  * fault-injected shards (deterministic flaky-first-attempt profile)
//    converging to the fault-free digest;
//  * golden-trace equality when replaying the merged journal vs the
//    one-shot journal;
//  * configuration-mismatch and incomplete-shard rejection.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "core/engine_config.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "corpus/scale.h"
#include "durability/journal.h"
#include "engine/concept_cache.h"
#include "modules/registry_io.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "shard/manifest.h"
#include "shard/sharded_annotate.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;

/// A fresh directory under the test temp root, wiped on creation.
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / "dexa_shard" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// The shared scale corpus the suite annotates: small enough to keep the
/// parameterized sweep fast, large enough that every one of the nine
/// module kinds appears in every shard count under test.
const ScaleCorpus& TestCorpus() {
  static const ScaleCorpus corpus = [] {
    auto built = BuildScaleCorpus({/*seed=*/7, /*modules=*/96});
    EXPECT_TRUE(built.ok()) << built.status();
    return std::move(built).value();
  }();
  return corpus;
}

/// A fresh unannotated registry over the same module objects, registration
/// order preserved (annotations land per-copy, so runs cannot observe each
/// other).
std::unique_ptr<ModuleRegistry> FreshRegistry(const ModuleRegistry& source) {
  auto registry = std::make_unique<ModuleRegistry>();
  for (const ModulePtr& module : source.AllModules()) {
    EXPECT_TRUE(registry->Register(module).ok());
  }
  return registry;
}

/// Engine/generator configuration shared by every run in a comparison —
/// the fingerprint covers the generator options, so both sides must agree.
EngineConfig Config(size_t threads) {
  return EngineConfig().Threads(threads).Seed(0xD5).MaxAttempts(4);
}

/// All journal segment bytes of `dir`, keyed by file name in sorted order —
/// the byte-equality witness.
std::string JournalBytes(const std::string& dir) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  std::string all;
  for (const fs::path& path : segments) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    all += path.filename().string();
    all += ':';
    all += buffer.str();
    all += '\n';
  }
  return all;
}

struct OneShot {
  AnnotateReport report;
  std::unique_ptr<ModuleRegistry> registry;
  std::string dir;
};

/// The single-process reference: one durable annotate run over the full
/// registry, exactly what the sharded run must reproduce byte for byte. Its
/// reasoner counts into its engine, as each shard's does.
OneShot RunOneShot(const ModuleRegistry& source, size_t threads,
                   const std::string& dir) {
  const ScaleCorpus& corpus = TestCorpus();
  OneShot result;
  result.dir = dir;
  result.registry = FreshRegistry(source);
  EngineConfig config = Config(threads);
  auto engine = config.BuildEngine();
  auto cache = std::make_shared<ConceptCache>(corpus.ontology.get(),
                                              &engine->metrics());
  ExampleGenerator generator =
      config.MakeGenerator(cache, corpus.pool.get(), engine.get());
  auto journal = RunJournal::Create(dir, {}, &engine->metrics());
  EXPECT_TRUE(journal.ok()) << journal.status();
  auto run = SubmitRun(MakeDurableAnnotateRun(generator, *result.registry,
                                              *corpus.ontology, *journal));
  EXPECT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete()) << run->run_status;
  result.report = std::move(run->annotate);
  return result;
}

std::string Annotations(const ModuleRegistry& registry) {
  return SaveAnnotations(registry, *TestCorpus().ontology);
}

// --------------------------------------------------------------------------
// Partition + manifest
// --------------------------------------------------------------------------

TEST(ShardPartitionTest, CoversEveryModuleExactlyOnceAndIsStable) {
  const ScaleCorpus& corpus = TestCorpus();
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    const auto partition = PartitionRegistry(*corpus.registry, shards, 0x5A17);
    ASSERT_EQ(partition.size(), shards);
    size_t total = 0;
    for (uint32_t k = 0; k < shards; ++k) {
      total += partition[k].size();
      for (const std::string& id : partition[k]) {
        // The assignment is a pure function of (id, shards, salt).
        EXPECT_EQ(ShardOfModule(id, shards, 0x5A17), k);
      }
    }
    EXPECT_EQ(total, corpus.module_ids.size());
    // Stable: recomputing yields the identical partition.
    EXPECT_EQ(PartitionRegistry(*corpus.registry, shards, 0x5A17), partition);
  }
  // The salt reshuffles the partition (different runs stay separable).
  EXPECT_NE(PartitionRegistry(*corpus.registry, 4, 1),
            PartitionRegistry(*corpus.registry, 4, 2));
}

TEST(ShardManifestTest, EncodeDecodeIsAByteFixedPoint) {
  ShardManifest manifest;
  manifest.shards = 3;
  manifest.modules_total = 96;
  manifest.fingerprint = 0xFFFFFFFFFFFFFFFFull;  // above int64 max on purpose
  manifest.kb_checksum = 42;
  manifest.partition_salt = 0x5A17;
  manifest.segment_bytes = 64 * 1024;
  manifest.entries = {{40, 1}, {0, 2}, {56, 0xDEADBEEFCAFEF00Dull}};
  const std::string encoded = EncodeShardManifest(manifest);
  auto decoded = DecodeShardManifest(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(EncodeShardManifest(*decoded), encoded);
  EXPECT_EQ(decoded->shards, manifest.shards);
  EXPECT_EQ(decoded->modules_total, manifest.modules_total);
  EXPECT_EQ(decoded->fingerprint, manifest.fingerprint);
  EXPECT_EQ(decoded->entries.size(), manifest.entries.size());
  EXPECT_EQ(decoded->entries[2].fingerprint, 0xDEADBEEFCAFEF00Dull);

  const std::string root = FreshDir("manifest_io");
  ASSERT_TRUE(WriteShardManifest(root, manifest).ok());
  auto read = ReadShardManifest(root);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(EncodeShardManifest(*read), encoded);
  EXPECT_TRUE(ReadShardManifest(FreshDir("no_manifest")).status().IsNotFound());
}

TEST(ShardManifestTest, InitPinsAndValidates) {
  const ScaleCorpus& corpus = TestCorpus();
  ShardOptions options;
  options.shards = 4;
  options.root = FreshDir("init_pins");
  auto manifest = InitShardedRun(*corpus.registry, Config(1), options);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->shards, 4u);
  EXPECT_EQ(manifest->modules_total, corpus.module_ids.size());

  // Re-init with the same configuration: the existing pin stands.
  auto again = InitShardedRun(*corpus.registry, Config(1), options);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(EncodeShardManifest(*again), EncodeShardManifest(*manifest));

  // A different shard count against the same root is a config mismatch.
  ShardOptions wrong = options;
  wrong.shards = 2;
  EXPECT_TRUE(
      InitShardedRun(*corpus.registry, Config(1), wrong).status()
          .IsInvalidArgument());
  // So are different generator options (the fingerprint covers them).
  EXPECT_TRUE(InitShardedRun(*corpus.registry,
                             Config(1).MaxCombinations(7), options)
                  .status()
                  .IsInvalidArgument());
  // And so is another knowledge base: the pin covers the KB seal.
  ShardOptions other_kb = options;
  other_kb.kb_checksum = 7;
  EXPECT_TRUE(InitShardedRun(*corpus.registry, Config(1), other_kb)
                  .status()
                  .IsInvalidArgument());
}

TEST(ShardMergeTest, RejectsMissingAndIncompleteShards) {
  const ScaleCorpus& corpus = TestCorpus();
  ShardOptions options;
  options.shards = 2;
  options.root = FreshDir("merge_rejects");
  ASSERT_TRUE(InitShardedRun(*corpus.registry, Config(1), options).ok());

  // No shard has run: merge is unavailable, not wrong.
  auto registry = FreshRegistry(*corpus.registry);
  EXPECT_TRUE(MergeShards(*registry, *corpus.ontology, Config(1), options)
                  .status()
                  .IsUnavailable());

  // One shard done, the other missing: still unavailable.
  auto one = RunShard(*corpus.registry, *corpus.ontology, *corpus.pool,
                      Config(1), options, 0);
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_TRUE(MergeShards(*registry, *corpus.ontology, Config(1), options)
                  .status()
                  .IsUnavailable());
}

// --------------------------------------------------------------------------
// Shards ≡ one-shot byte equality
// --------------------------------------------------------------------------

class ShardEqualityTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, size_t>> {};

TEST_P(ShardEqualityTest, MergedRunIsByteIdenticalToOneShot) {
  const auto [shards, threads] = GetParam();
  const ScaleCorpus& corpus = TestCorpus();
  const std::string tag =
      std::to_string(shards) + "x" + std::to_string(threads);

  OneShot reference =
      RunOneShot(*corpus.registry, threads, FreshDir("oneshot_" + tag));

  ShardOptions options;
  options.shards = shards;
  options.root = FreshDir("sharded_" + tag);
  auto target = FreshRegistry(*corpus.registry);
  auto sharded = RunShardedAnnotate(*target, *corpus.ontology, *corpus.pool,
                                    Config(threads), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE(sharded->merged.run_status.ok()) << sharded->merged.run_status;
  EXPECT_EQ(sharded->shards.size(), shards);

  // Byte-identical journal, byte-identical annotations, equal totals.
  EXPECT_EQ(JournalBytes(sharded->merged_dir), JournalBytes(reference.dir));
  EXPECT_EQ(Annotations(*target), Annotations(*reference.registry));
  EXPECT_EQ(sharded->merged.annotated, reference.report.annotated);
  EXPECT_EQ(sharded->merged.decayed, reference.report.decayed);
  EXPECT_EQ(sharded->merged.examples, reference.report.examples);
  EXPECT_EQ(sharded->merged.transient_exhausted,
            reference.report.transient_exhausted);
  EXPECT_EQ(sharded->merged.decayed_ids, reference.report.decayed_ids);
  EXPECT_EQ(sharded->merged_records, corpus.module_ids.size() + 1);

  // Every shard's reasoner counts into its own engine, so the shards'
  // lookups add up to the one-shot run's.
  uint64_t shard_queries = 0;
  for (const ShardRunReport& shard : sharded->shards) {
    shard_queries += shard.report.metrics.cache_queries;
  }
  EXPECT_GT(reference.report.metrics.cache_queries, 0u);
  EXPECT_EQ(shard_queries, reference.report.metrics.cache_queries);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByThreads, ShardEqualityTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(size_t{1}, size_t{8})),
    [](const ::testing::TestParamInfo<std::tuple<uint32_t, size_t>>& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ShardEqualitySuite, OrchestratedFanOutMatchesSequential) {
  const ScaleCorpus& corpus = TestCorpus();
  OneShot reference =
      RunOneShot(*corpus.registry, 1, FreshDir("oneshot_fanout"));

  // Fan the shard runs out over a pooled engine: completion interleaving
  // changes, bytes must not.
  EngineConfig orchestration = EngineConfig().Threads(8).Seed(0x0AC5);
  auto orchestrator = orchestration.BuildEngine();
  ShardOptions options;
  options.shards = 4;
  options.root = FreshDir("sharded_fanout");
  options.orchestrator = orchestrator.get();
  auto target = FreshRegistry(*corpus.registry);
  auto sharded = RunShardedAnnotate(*target, *corpus.ontology, *corpus.pool,
                                    Config(1), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE(sharded->merged.run_status.ok());
  EXPECT_EQ(JournalBytes(sharded->merged_dir), JournalBytes(reference.dir));
}

// --------------------------------------------------------------------------
// Merge determinism under permuted completion order
// --------------------------------------------------------------------------

TEST(ShardMergeTest, MergeIsInvariantUnderShardCompletionOrder) {
  const ScaleCorpus& corpus = TestCorpus();
  OneShot reference =
      RunOneShot(*corpus.registry, 1, FreshDir("oneshot_order"));

  const std::vector<std::vector<uint32_t>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  for (size_t variant = 0; variant < orders.size(); ++variant) {
    ShardOptions options;
    options.shards = 4;
    options.root = FreshDir("order_" + std::to_string(variant));
    ASSERT_TRUE(InitShardedRun(*corpus.registry, Config(1), options).ok());
    for (uint32_t k : orders[variant]) {
      auto run = RunShard(*corpus.registry, *corpus.ontology, *corpus.pool,
                          Config(1), options, k);
      ASSERT_TRUE(run.ok()) << run.status();
      ASSERT_TRUE(run->report.run_status.ok());
    }
    auto target = FreshRegistry(*corpus.registry);
    auto merge = MergeShards(*target, *corpus.ontology, Config(1), options);
    ASSERT_TRUE(merge.ok()) << merge.status();
    EXPECT_EQ(JournalBytes(merge->merged_dir), JournalBytes(reference.dir))
        << "completion order variant " << variant;
  }
}

// --------------------------------------------------------------------------
// Crash-resume of a shard subset
// --------------------------------------------------------------------------

/// Picks a module id owned by shard `k` under the test partition.
std::string ModuleInShard(uint32_t shards, uint64_t salt, uint32_t k) {
  for (const std::string& id : TestCorpus().module_ids) {
    if (ShardOfModule(id, shards, salt) == k) return id;
  }
  ADD_FAILURE() << "no module lands in shard " << k;
  return "";
}

class ShardCrashResumeTest : public ::testing::TestWithParam<CrashPoint> {};

TEST_P(ShardCrashResumeTest, KilledShardSubsetResumesToOneShotBytes) {
  const CrashPoint point = GetParam();
  const ScaleCorpus& corpus = TestCorpus();
  const std::string tag = std::to_string(static_cast<int>(point));
  OneShot reference =
      RunOneShot(*corpus.registry, 1, FreshDir("oneshot_crash_" + tag));

  ShardOptions options;
  options.shards = 4;
  options.root = FreshDir("sharded_crash_" + tag);

  // Kill one shard mid-run: the crash plan keys on a module id, so only
  // the owning shard aborts; the other three complete.
  CrashPlan crash;
  crash.point = point;
  crash.key = ModuleInShard(options.shards, kShardPartitionSalt, 2);
  options.crash = &crash;
  auto target = FreshRegistry(*corpus.registry);
  auto crashed = RunShardedAnnotate(*target, *corpus.ontology, *corpus.pool,
                                    Config(1), options);
  ASSERT_TRUE(crashed.ok()) << crashed.status();
  EXPECT_FALSE(crashed->merged.run_status.ok());
  EXPECT_TRUE(crashed->merged_dir.empty());  // no merge of a partial run

  // Resubmit without the crash plan: completed shards replay from their
  // journals, the killed shard resumes its valid prefix, and the merged
  // output is byte-identical to the never-crashed one-shot run.
  options.crash = nullptr;
  auto resumed = FreshRegistry(*corpus.registry);
  auto recovered = RunShardedAnnotate(*resumed, *corpus.ontology,
                                      *corpus.pool, Config(1), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(recovered->merged.run_status.ok())
      << recovered->merged.run_status;
  for (const ShardRunReport& shard : recovered->shards) {
    EXPECT_TRUE(shard.resumed) << "shard " << shard.shard;
  }
  EXPECT_EQ(JournalBytes(recovered->merged_dir), JournalBytes(reference.dir));
  EXPECT_EQ(Annotations(*resumed), Annotations(*reference.registry));
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, ShardCrashResumeTest,
                         ::testing::Values(CrashPoint::kCrashAfterCommit,
                                           CrashPoint::kTornWrite),
                         [](const ::testing::TestParamInfo<CrashPoint>& info) {
                           return info.param == CrashPoint::kCrashAfterCommit
                                      ? "after_commit"
                                      : "torn_write";
                         });

TEST(ShardCrashResumeSuite, TwoKilledShardsResumeIndependently) {
  const ScaleCorpus& corpus = TestCorpus();
  OneShot reference =
      RunOneShot(*corpus.registry, 1, FreshDir("oneshot_twocrash"));

  ShardOptions options;
  options.shards = 4;
  options.root = FreshDir("sharded_twocrash");
  ASSERT_TRUE(InitShardedRun(*corpus.registry, Config(1), options).ok());

  // Crash shard 1 (after-commit) and shard 3 (torn write) in separate
  // passes; run shards 0 and 2 to completion.
  for (uint32_t k : {1u, 3u}) {
    CrashPlan crash;
    crash.point = k == 1 ? CrashPoint::kCrashAfterCommit
                         : CrashPoint::kTornWrite;
    crash.key = ModuleInShard(options.shards, kShardPartitionSalt, k);
    ShardOptions crashing = options;
    crashing.crash = &crash;
    auto run = RunShard(*corpus.registry, *corpus.ontology, *corpus.pool,
                        Config(1), crashing, k);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_FALSE(run->report.run_status.ok());
  }
  for (uint32_t k : {0u, 2u}) {
    auto run = RunShard(*corpus.registry, *corpus.ontology, *corpus.pool,
                        Config(1), options, k);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(run->report.run_status.ok());
  }

  // Merging with two dead shards is refused, typed.
  auto target = FreshRegistry(*corpus.registry);
  EXPECT_TRUE(MergeShards(*target, *corpus.ontology, Config(1), options)
                  .status()
                  .IsUnavailable());

  // Resume exactly the killed subset, then merge.
  for (uint32_t k : {1u, 3u}) {
    auto run = RunShard(*corpus.registry, *corpus.ontology, *corpus.pool,
                        Config(1), options, k);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(run->report.run_status.ok());
    EXPECT_TRUE(run->resumed);
    // Shard 1 crashed *after* its first commit, so the resume replays it.
    // Shard 3's torn write may have destroyed its only commit record, in
    // which case there is legitimately nothing to replay.
    if (k == 1) {
      EXPECT_GT(run->report.replayed, 0u);
    }
  }
  auto merge = MergeShards(*target, *corpus.ontology, Config(1), options);
  ASSERT_TRUE(merge.ok()) << merge.status();
  EXPECT_EQ(JournalBytes(merge->merged_dir), JournalBytes(reference.dir));
}

/// Every file under `dir`, recursively, keyed by its path relative to
/// `dir`, with its bytes.
std::map<std::string, std::string> TreeFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    files[fs::relative(entry.path(), dir).string()] = buffer.str();
  }
  return files;
}

/// "name (size)" for every file of a TreeFiles map, for failure messages.
std::string Names(const std::map<std::string, std::string>& files) {
  std::string names;
  for (const auto& [name, bytes] : files) {
    names += " " + name + " (" + std::to_string(bytes.size()) + ")";
  }
  return names;
}

TEST(ShardCrashResumeSuite, ResubmittingAFinishedRunRewritesNoShardFile) {
  const ScaleCorpus& corpus = TestCorpus();
  OneShot reference =
      RunOneShot(*corpus.registry, 1, FreshDir("oneshot_resubmit"));

  ShardOptions options;
  options.shards = 2;
  options.root = FreshDir("sharded_resubmit");
  auto first = FreshRegistry(*corpus.registry);
  auto run = RunShardedAnnotate(*first, *corpus.ontology, *corpus.pool,
                                Config(1), options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_TRUE(run->merged.run_status.ok()) << run->merged.run_status;
  std::vector<std::map<std::string, std::string>> before;
  for (uint32_t k = 0; k < options.shards; ++k) {
    before.push_back(TreeFiles(ShardDir(options.root, k)));
    ASSERT_FALSE(before.back().empty());
  }

  // The second submission resumes every shard, each of which already holds
  // all of its records: no shard file may change or appear, and the merge
  // still reproduces the one-shot journal.
  auto again = FreshRegistry(*corpus.registry);
  auto rerun = RunShardedAnnotate(*again, *corpus.ontology, *corpus.pool,
                                  Config(1), options);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  ASSERT_TRUE(rerun->merged.run_status.ok()) << rerun->merged.run_status;
  for (uint32_t k = 0; k < options.shards; ++k) {
    EXPECT_TRUE(rerun->shards[k].resumed);
    const auto after = TreeFiles(ShardDir(options.root, k));
    EXPECT_TRUE(after == before[k])
        << ShardDir(options.root, k) << " holds" << Names(after)
        << "; before the resubmission it held" << Names(before[k]);
  }
  EXPECT_EQ(JournalBytes(rerun->merged_dir), JournalBytes(reference.dir));
  EXPECT_EQ(Annotations(*again), Annotations(*reference.registry));
}

/// The real file system, except that the first ReadFile of a path holding
/// `needle` fails kCorrupted, as an EIO does at the seam.
class FailFirstReadIoEnv final : public IoEnv {
 public:
  explicit FailFirstReadIoEnv(std::string needle)
      : needle_(std::move(needle)) {}

  Result<std::unique_ptr<WritableIoFile>> NewWritableFile(
      const std::string& path) override {
    return IoEnv::Real().NewWritableFile(path);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    if (!failed_ && path.find(needle_) != std::string::npos) {
      failed_ = true;
      return Status::Corrupted("injected EIO reading '" + path + "'");
    }
    return IoEnv::Real().ReadFile(path);
  }
  Result<MmapRegion> MapReadOnly(const std::string& path) override {
    return IoEnv::Real().MapReadOnly(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return IoEnv::Real().Rename(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return IoEnv::Real().RemoveFile(path);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return IoEnv::Real().Truncate(path, size);
  }
  Status CreateDirs(const std::string& dir) override {
    return IoEnv::Real().CreateDirs(dir);
  }

 private:
  std::string needle_;
  bool failed_ = false;
};

TEST(ShardCrashResumeSuite, UnreadableShardJournalIsAnErrorNotAFreshStart) {
  const ScaleCorpus& corpus = TestCorpus();
  ShardOptions options;
  options.shards = 2;
  options.root = FreshDir("sharded_unreadable");

  // Crash shard 1 after its 16th commit.
  const auto partition = PartitionRegistry(*corpus.registry, options.shards,
                                           kShardPartitionSalt);
  ASSERT_GT(partition[1].size(), 16u);
  CrashPlan crash;
  crash.point = CrashPoint::kCrashAfterCommit;
  crash.key = partition[1][15];
  options.crash = &crash;
  auto target = FreshRegistry(*corpus.registry);
  auto crashed = RunShardedAnnotate(*target, *corpus.ontology, *corpus.pool,
                                    Config(1), options);
  ASSERT_TRUE(crashed.ok()) << crashed.status();
  ASSERT_FALSE(crashed->merged.run_status.ok());

  // Resubmit through an env that cannot read shard 1's journal: the run
  // fails typed instead of starting the shard over, and every committed
  // byte of the shard stays where it was.
  options.crash = nullptr;
  const std::string shard_dir = ShardDir(options.root, 1);
  const std::string before = JournalBytes(shard_dir);
  ASSERT_FALSE(before.empty());
  FailFirstReadIoEnv unreadable("shard-1/wal-");
  auto resumed = FreshRegistry(*corpus.registry);
  auto rerun = RunShardedAnnotate(*resumed, *corpus.ontology, *corpus.pool,
                                  Config(1), options, &unreadable);
  EXPECT_TRUE(rerun.status().IsCorrupted()) << rerun.status();
  EXPECT_TRUE(JournalBytes(shard_dir) == before)
      << "a segment under " << shard_dir << " changed";

  // The merge keeps the type too, so it reads as a disk fault rather than
  // a shard that has not run.
  FailFirstReadIoEnv unreadable_merge("shard-1/wal-");
  EXPECT_TRUE(MergeShards(*resumed, *corpus.ontology, Config(1), options,
                          &unreadable_merge)
                  .status()
                  .IsCorrupted());
}

// --------------------------------------------------------------------------
// Fault-injected shards converge to the fault-free digest
// --------------------------------------------------------------------------

TEST(ShardFaultTest, FlakyShardsConvergeToTheFaultFreeBytes) {
  const ScaleCorpus& corpus = TestCorpus();
  // Fault-free reference.
  OneShot reference =
      RunOneShot(*corpus.registry, 1, FreshDir("oneshot_faultfree"));

  // Deterministic flakiness: every module's first attempt fails
  // kTransient; with MaxAttempts(4) the retry always lands, so outcomes
  // (and therefore bytes) match the fault-free run — per-module, not per
  // schedule, which is why sharding cannot perturb it.
  FaultProfile profile;
  profile.flaky_first_attempts = 1;
  auto flaky = WrapRegistryWithFaults(*corpus.registry, profile);
  ASSERT_TRUE(flaky.ok()) << flaky.status();

  ShardOptions options;
  options.shards = 4;
  options.root = FreshDir("sharded_flaky");
  auto sharded = RunShardedAnnotate(**flaky, *corpus.ontology, *corpus.pool,
                                    Config(1), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE(sharded->merged.run_status.ok()) << sharded->merged.run_status;
  EXPECT_EQ(JournalBytes(sharded->merged_dir), JournalBytes(reference.dir));
  EXPECT_EQ(sharded->merged.transient_exhausted,
            reference.report.transient_exhausted);
}

// --------------------------------------------------------------------------
// Golden-trace replay equality
// --------------------------------------------------------------------------

/// Replays a complete journal into a fresh registry with a tracer attached
/// and returns the Chrome trace bytes.
std::string ReplayTrace(const std::string& dir) {
  const ScaleCorpus& corpus = TestCorpus();
  auto registry = FreshRegistry(*corpus.registry);
  EngineConfig config = Config(1);
  auto engine = config.BuildEngine();
  auto cache = std::make_shared<ConceptCache>(corpus.ontology.get(),
                                              &engine->metrics());
  ExampleGenerator generator =
      config.MakeGenerator(cache, corpus.pool.get(), engine.get());
  auto recovery = RecoverJournal(dir, &engine->metrics());
  EXPECT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
  EXPECT_TRUE(journal.ok()) << journal.status();
  obs::Tracer tracer(&engine->clock());
  RunRequest request = MakeDurableAnnotateRun(generator, *registry,
                                              *corpus.ontology, *journal);
  request.resume = &*recovery;
  request.tracer = &tracer;
  auto run = SubmitRun(request);
  EXPECT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete());
  EXPECT_EQ(run->annotate.replayed, TestCorpus().module_ids.size());
  return obs::WriteChromeTrace(tracer);
}

TEST(ShardTraceTest, MergedJournalReplaysToTheOneShotGoldenTrace) {
  const ScaleCorpus& corpus = TestCorpus();
  OneShot reference =
      RunOneShot(*corpus.registry, 1, FreshDir("oneshot_trace"));

  ShardOptions options;
  options.shards = 4;
  options.root = FreshDir("sharded_trace");
  auto target = FreshRegistry(*corpus.registry);
  auto sharded = RunShardedAnnotate(*target, *corpus.ontology, *corpus.pool,
                                    Config(1), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE(sharded->merged.run_status.ok());

  // Same journal bytes ⇒ same replay ⇒ same span tree, byte for byte.
  EXPECT_EQ(ReplayTrace(sharded->merged_dir), ReplayTrace(reference.dir));
}

}  // namespace
}  // namespace dexa
