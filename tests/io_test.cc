// Persistence round-trips — structural types, registry annotations, the
// annotated instance pool and the workflow DSL — and the I/O seam itself:
// IoEnv::ListDir, a fault wrapper's listing, and whole durable runs, a
// run-state snapshot and a serve restart served from a relocated file
// system.

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "core/engine_config.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "corpus/scale.h"
#include "durability/journal.h"
#include "durability/snapshot.h"
#include "durability/trace_io.h"
#include "engine/concept_cache.h"
#include "modules/registry_io.h"
#include "pool/pool_io.h"
#include "serve/run_manager.h"
#include "serve/serve_env.h"
#include "shard/sharded_annotate.h"
#include "tests/test_util.h"
#include "workflow/workflow_io.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;

using testing_env::GetEnvironment;

TEST(TypeParseTest, RoundTripsAllShapes) {
  std::vector<StructuralType> cases = {
      StructuralType::String(),
      StructuralType::Integer(),
      StructuralType::Double(),
      StructuralType::Boolean(),
      StructuralType::List(StructuralType::String()),
      StructuralType::List(StructuralType::List(StructuralType::Double())),
      StructuralType::Record({{"id", StructuralType::String()},
                              {"masses",
                               StructuralType::List(StructuralType::Double())}}),
      StructuralType::Record({}),
  };
  for (const StructuralType& type : cases) {
    auto parsed = ParseStructuralType(type.ToString());
    ASSERT_TRUE(parsed.ok()) << type.ToString() << ": " << parsed.status();
    EXPECT_EQ(*parsed, type) << type.ToString();
  }
}

TEST(TypeParseTest, RejectsMalformedTypes) {
  EXPECT_TRUE(ParseStructuralType("").status().IsParseError());
  EXPECT_TRUE(ParseStructuralType("List<String").status().IsParseError());
  EXPECT_TRUE(ParseStructuralType("Floaty").status().IsParseError());
  EXPECT_TRUE(ParseStructuralType("String garbage").status().IsParseError());
  EXPECT_TRUE(ParseStructuralType("Record{id String}").status().IsParseError());
}

TEST(RegistryIoTest, RoundTripsAnnotations) {
  const auto& env = GetEnvironment();
  std::string saved =
      SaveAnnotations(*env.corpus.registry, *env.corpus.ontology);
  EXPECT_GT(saved.size(), 1000u);

  // Load into a freshly built corpus (same module ids).
  auto fresh = BuildCorpus();
  ASSERT_TRUE(fresh.ok());
  auto restored =
      LoadAnnotations(saved, *fresh->ontology, *fresh->registry);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(*restored, env.corpus.registry->size());

  for (size_t i = 0; i < env.corpus.available_ids.size(); i += 13) {
    const std::string& id = env.corpus.available_ids[i];
    const DataExampleSet& original = env.corpus.registry->DataExamplesOf(id);
    const DataExampleSet& loaded = fresh->registry->DataExamplesOf(id);
    ASSERT_EQ(original.size(), loaded.size()) << id;
    for (size_t e = 0; e < original.size(); ++e) {
      EXPECT_TRUE(original[e] == loaded[e]) << id;
      EXPECT_EQ(original[e].input_partitions, loaded[e].input_partitions)
          << id;
    }
  }
}

TEST(RegistryIoTest, RejectsCorruptInput) {
  const auto& env = GetEnvironment();
  auto fresh = BuildCorpus();
  ASSERT_TRUE(fresh.ok());
  auto& registry = *fresh->registry;
  const Ontology& onto = *fresh->ontology;
  EXPECT_TRUE(LoadAnnotations("", onto, registry).status().IsParseError());
  EXPECT_TRUE(LoadAnnotations("# dexa annotations v1\njunk\n", onto, registry)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(LoadAnnotations(
                  "# dexa annotations v1\nmodule nope Nope\n", onto, registry)
                  .status()
                  .IsParseError());
  // An unterminated example is damage (a truncated file), not a grammar
  // error: the typed kCorrupted status is what recovery dispatches on.
  EXPECT_TRUE(LoadAnnotations("# dexa annotations v1\nmodule m000 X\n"
                              "example\nin - \"v\"\n",
                              onto, registry)
                  .status()
                  .IsCorrupted());
  (void)env;
}

TEST(RegistryIoTest, FailedLoadLeavesNoPartialState) {
  const auto& env = GetEnvironment();
  std::string saved =
      SaveAnnotations(*env.corpus.registry, *env.corpus.ontology);

  // Damage the document near the end: truncate just before the last "end"
  // line, so hundreds of modules parse cleanly before the damage.
  size_t cut = saved.rfind("\nend\n");
  ASSERT_NE(cut, std::string::npos);
  std::string truncated = saved.substr(0, cut + 1);

  auto fresh = BuildCorpus();
  ASSERT_TRUE(fresh.ok());
  auto result = LoadAnnotations(truncated, *fresh->ontology, *fresh->registry);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorrupted()) << result.status();

  // Stage-then-commit: even though the damage sits at the tail, not one
  // module's annotations leaked into the registry.
  for (const ModulePtr& module : fresh->registry->AllModules()) {
    EXPECT_TRUE(fresh->registry->DataExamplesOf(module->spec().id).empty())
        << module->spec().id;
  }

  // The intact document still loads into the same registry afterwards.
  auto reloaded = LoadAnnotations(saved, *fresh->ontology, *fresh->registry);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_GT(*reloaded, 0u);
}

TEST(PoolIoTest, RoundTripsPool) {
  const auto& env = GetEnvironment();
  std::string saved = SavePool(*env.pool);
  auto loaded = LoadPool(saved, *env.corpus.ontology);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), env.pool->size());
  // Realization order survives (the first instance per concept).
  for (ConceptId concept_id : env.pool->PopulatedConcepts()) {
    auto original = env.pool->GetInstance(concept_id);
    auto restored = loaded->GetInstance(concept_id);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*original, *restored)
        << env.corpus.ontology->NameOf(concept_id);
  }
}

TEST(PoolIoTest, RejectsCorruptPool) {
  const auto& env = GetEnvironment();
  const Ontology& onto = *env.corpus.ontology;
  EXPECT_TRUE(LoadPool("", onto).status().IsParseError());
  EXPECT_TRUE(LoadPool("# dexa pool v1\nnonsense\n", onto)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(LoadPool("# dexa pool v1\ninstance Bogus \"x\"\n", onto)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(LoadPool("# dexa pool v1\ninstance DNASequence not-json\n", onto)
                  .status()
                  .IsParseError());
}

TEST(WorkflowIoTest, RoundTripsGeneratedWorkflows) {
  const auto& env = GetEnvironment();
  for (size_t i = 0; i < env.workflows.items.size(); i += 211) {
    const Workflow& original = env.workflows.items[i].workflow;
    std::string rendered = RenderWorkflowDsl(original, *env.corpus.ontology);
    auto parsed = ParseWorkflowDsl(rendered, *env.corpus.ontology);
    ASSERT_TRUE(parsed.ok()) << original.id << ": " << parsed.status();
    EXPECT_EQ(parsed->id, original.id);
    EXPECT_EQ(parsed->inputs.size(), original.inputs.size());
    ASSERT_EQ(parsed->processors.size(), original.processors.size());
    for (size_t p = 0; p < original.processors.size(); ++p) {
      EXPECT_EQ(parsed->processors[p].module_id,
                original.processors[p].module_id);
      EXPECT_EQ(parsed->processors[p].input_sources.size(),
                original.processors[p].input_sources.size());
    }
    EXPECT_EQ(RenderWorkflowDsl(*parsed, *env.corpus.ontology), rendered);
    // The parsed workflow still validates and enacts identically.
    ASSERT_TRUE(ValidateWorkflow(*parsed, *env.corpus.registry,
                                 *env.corpus.ontology)
                    .ok())
        << original.id;
  }
}

TEST(WorkflowIoTest, ParsedWorkflowEnacts) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = env.workflows.items[0];
  std::string rendered =
      RenderWorkflowDsl(item.workflow, *env.corpus.ontology);
  auto parsed = ParseWorkflowDsl(rendered, *env.corpus.ontology);
  ASSERT_TRUE(parsed.ok());
  auto original = Enact(item.workflow, *env.corpus.registry, item.seeds,
                        InvocationEngine::Serial());
  auto reloaded = Enact(*parsed, *env.corpus.registry, item.seeds,
                        InvocationEngine::Serial());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(original->complete());
  ASSERT_TRUE(reloaded->complete());
  ASSERT_EQ(original->outputs.size(), reloaded->outputs.size());
  for (size_t o = 0; o < original->outputs.size(); ++o) {
    EXPECT_EQ(original->outputs[o], reloaded->outputs[o]);
  }
}

TEST(WorkflowIoTest, RejectsCorruptDsl) {
  const auto& env = GetEnvironment();
  const Ontology& onto = *env.corpus.ontology;
  EXPECT_TRUE(ParseWorkflowDsl("", onto).status().IsParseError());
  EXPECT_TRUE(ParseWorkflowDsl("# dexa workflow v1\nnonsense\n", onto)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseWorkflowDsl("# dexa workflow v1\nname x\n", onto)
                  .status()
                  .IsParseError());  // No id.
  EXPECT_TRUE(
      ParseWorkflowDsl("# dexa workflow v1\nworkflow w\n"
                       "input a | Bogus | DNASequence\n",
                       onto)
          .status()
          .IsParseError());
  EXPECT_TRUE(
      ParseWorkflowDsl("# dexa workflow v1\nworkflow w\n"
                       "wire 0 0 = input 0\n",
                       onto)
          .status()
          .IsParseError());  // Wire before processor.
}

// -- The I/O seam ----------------------------------------------------------

/// A fresh directory under the test temp root, wiped on creation.
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / "dexa_io_seam" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Every file under `root`, keyed by its path relative to `root`.
std::map<std::string, std::string> TreeBytes(const std::string& root) {
  std::map<std::string, std::string> tree;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    tree[fs::relative(entry.path(), root).string()] = bytes.str();
  }
  return tree;
}

/// Serves the virtual directory `virtual_root` from the real directory
/// `backing`: every path under the virtual root is rewritten onto the
/// backing directory before it reaches IoEnv::Real(), and any other path
/// fails. Callers put the virtual root under a regular file, so a call that
/// bypasses the seam sees a path that cannot exist.
class RelocatedIoEnv final : public IoEnv {
 public:
  RelocatedIoEnv(std::string virtual_root, std::string backing)
      : virtual_root_(std::move(virtual_root)), backing_(std::move(backing)) {}

  Result<std::unique_ptr<WritableIoFile>> NewWritableFile(
      const std::string& path) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real, Map(path));
    return IoEnv::Real().NewWritableFile(real);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real, Map(path));
    return IoEnv::Real().ReadFile(real);
  }
  Result<MmapRegion> MapReadOnly(const std::string& path) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real, Map(path));
    return IoEnv::Real().MapReadOnly(real);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real_from, Map(from));
    DEXA_ASSIGN_OR_RETURN(const std::string real_to, Map(to));
    return IoEnv::Real().Rename(real_from, real_to);
  }
  Status RemoveFile(const std::string& path) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real, Map(path));
    return IoEnv::Real().RemoveFile(real);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real, Map(path));
    return IoEnv::Real().Truncate(real, size);
  }
  Status CreateDirs(const std::string& dir) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real, Map(dir));
    return IoEnv::Real().CreateDirs(real);
  }
  Status CreateDir(const std::string& dir) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real, Map(dir));
    return IoEnv::Real().CreateDir(real);
  }
  Result<std::vector<DirEntry>> ListDir(const std::string& dir) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real, Map(dir));
    return IoEnv::Real().ListDir(real);
  }
  Status SyncDir(const std::string& dir) override {
    DEXA_ASSIGN_OR_RETURN(const std::string real, Map(dir));
    return IoEnv::Real().SyncDir(real);
  }

 private:
  Result<std::string> Map(const std::string& path) const {
    if (path == virtual_root_) return backing_;
    if (path.rfind(virtual_root_ + "/", 0) == 0) {
      return backing_ + path.substr(virtual_root_.size());
    }
    return Status::InvalidArgument("'" + path +
                                   "' is outside the virtual root");
  }

  std::string virtual_root_;
  std::string backing_;
};

/// A relocated file system for one test: files land under `backing`, and
/// `root` is the virtual path the code under test is given.
struct Relocation {
  std::string backing;
  std::string root;
  std::unique_ptr<RelocatedIoEnv> io;
};

Relocation Relocate(const std::string& name) {
  Relocation relocation;
  const std::string base = FreshDir(name);
  relocation.backing = base + "/backing";
  fs::create_directories(relocation.backing);
  // A regular file: nothing under `root` exists on the real file system.
  std::ofstream(base + "/not-a-directory") << "x";
  relocation.root = base + "/not-a-directory/root";
  relocation.io =
      std::make_unique<RelocatedIoEnv>(relocation.root, relocation.backing);
  return relocation;
}

/// The scale corpus the relocation runs annotate.
const ScaleCorpus& SeamCorpus() {
  static const ScaleCorpus corpus = [] {
    auto built = BuildScaleCorpus({/*seed=*/7, /*modules=*/96});
    EXPECT_TRUE(built.ok()) << built.status();
    return std::move(built).value();
  }();
  return corpus;
}

std::unique_ptr<ModuleRegistry> FreshScaleRegistry() {
  auto registry = std::make_unique<ModuleRegistry>();
  for (const ModulePtr& module : SeamCorpus().registry->AllModules()) {
    EXPECT_TRUE(registry->Register(module).ok());
  }
  return registry;
}

EngineConfig SeamConfig() { return EngineConfig().Threads(1).Seed(0xD5); }

/// One durable annotate attempt of the scale corpus journaled in `dir`
/// through `io`: a fresh run armed with `crash`, or the resume of the
/// journal a crashed attempt left. Returns the run's annotations.
std::string DurableAttempt(const std::string& dir, IoEnv* io,
                           const CrashPlan* crash) {
  const ScaleCorpus& corpus = SeamCorpus();
  JournalOptions options;
  options.segment_bytes = 2048;  // Several segments for 96 modules.
  const EngineConfig config = SeamConfig();
  auto engine = config.BuildEngine();
  auto cache = std::make_shared<ConceptCache>(corpus.ontology.get(),
                                              &engine->metrics());
  ExampleGenerator generator =
      config.MakeGenerator(cache, corpus.pool.get(), engine.get());
  auto registry = FreshScaleRegistry();

  std::unique_ptr<JournalRecovery> recovery;
  auto journal = [&]() -> Result<RunJournal> {
    if (crash != nullptr) {
      return RunJournal::Create(dir, options, &engine->metrics(), io);
    }
    DEXA_ASSIGN_OR_RETURN(JournalRecovery recovered,
                          RecoverJournal(dir, &engine->metrics(), io));
    recovery = std::make_unique<JournalRecovery>(std::move(recovered));
    return RunJournal::Resume(dir, *recovery, options, &engine->metrics(), io);
  }();
  EXPECT_TRUE(journal.ok()) << journal.status();
  if (!journal.ok()) return "";

  RunRequest request = MakeDurableAnnotateRun(generator, *registry,
                                              *corpus.ontology, *journal);
  request.crash = crash;
  request.resume = recovery.get();
  auto run = SubmitRun(request);
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return "";
  if (crash != nullptr) {
    EXPECT_TRUE(run->run_status.IsCancelled()) << run->run_status;
  } else {
    EXPECT_TRUE(run->complete()) << run->run_status;
  }
  return SaveAnnotations(*registry, *corpus.ontology);
}

TEST(IoSeamTest, ListDirSortsClassifiesAndTypesFailures) {
  const std::string dir = FreshDir("list");
  std::ofstream(dir + "/b") << "bbb";
  std::ofstream(dir + "/a") << "a";
  fs::create_directories(dir + "/c");

  auto listed = IoEnv::Real().ListDir(dir);
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 3u);
  EXPECT_EQ((*listed)[0].name, "a");
  EXPECT_EQ((*listed)[0].size, 1u);
  EXPECT_FALSE((*listed)[0].is_dir);
  EXPECT_EQ((*listed)[1].name, "b");
  EXPECT_EQ((*listed)[1].size, 3u);
  EXPECT_EQ((*listed)[2].name, "c");
  EXPECT_TRUE((*listed)[2].is_dir);
  EXPECT_EQ((*listed)[2].size, 0u);

  EXPECT_TRUE(IoEnv::Real().ListDir(dir + "/missing").status().IsNotFound());
  EXPECT_TRUE(IoEnv::Real().ListDir(dir + "/a").status().IsNotFound());

  // An entry whose type cannot be read fails the listing, naming it.
  fs::create_directory_symlink("loop", dir + "/loop");
  auto looped = IoEnv::Real().ListDir(dir);
  ASSERT_FALSE(looped.ok());
  EXPECT_FALSE(looped.status().IsNotFound());
  EXPECT_NE(looped.status().message().find(dir + "/loop"), std::string::npos)
      << looped.status();
}

TEST(IoSeamTest, FaultyListingConsumesNoFaultCounter) {
  const std::string dir = FreshDir("faulty_listing");
  {
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE(journal->Append("first").ok());
    ASSERT_TRUE(journal->Seal().ok());
  }
  IoFaultProfile profile;
  profile.eio_read_at = 1;
  FaultyIoEnv faulty(profile);
  auto listed = faulty.ListDir(dir);
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].name, "wal-00000.seg");
  EXPECT_EQ((*listed)[0].size,
            kJournalSegmentMagicLen + kJournalFrameOverhead + 5);
  EXPECT_EQ(faulty.faults_injected(), 0u);

  // RecoverJournal lists the directory first; the first read is still the
  // segment's, so it takes the injected EIO.
  auto recovery = RecoverJournal(dir, nullptr, &faulty);
  ASSERT_FALSE(recovery.ok());
  EXPECT_TRUE(recovery.status().IsCorrupted()) << recovery.status();
  EXPECT_EQ(recovery.status().message(),
            "injected EIO reading '" + dir + "/wal-00000.seg' (read #1)");
  EXPECT_EQ(faulty.faults_injected(), 1u);
  EXPECT_EQ(faulty.writes(), 0u);
}

/// A run-state snapshot written through a relocated file system restores
/// through the same env, artifact for artifact.
TEST(IoSeamTest, SnapshotRestoresThroughTheEnvThatWroteIt) {
  const auto& env = GetEnvironment();
  Relocation relocated = Relocate("relocated-snapshot");
  const std::string dir = relocated.root + "/state";
  ASSERT_TRUE(WriteRunStateSnapshot(dir, *env.pool, *env.corpus.registry,
                                    *env.corpus.ontology, env.provenance,
                                    relocated.io.get())
                  .ok());
  EXPECT_EQ(TreeBytes(relocated.backing + "/state").size(), 3u);

  auto fresh = BuildCorpus();
  ASSERT_TRUE(fresh.ok());
  auto restored = RestoreRunState(dir, *fresh->ontology, *fresh->registry,
                                  relocated.io.get());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_GT(restored->modules_restored, 0u);
  EXPECT_EQ(SavePool(restored->pool), SavePool(*env.pool));
  EXPECT_EQ(SaveTraces(restored->provenance), SaveTraces(env.provenance));
  EXPECT_EQ(SaveAnnotations(*fresh->registry, *fresh->ontology),
            SaveAnnotations(*env.corpus.registry, *env.corpus.ontology));
}

/// A read fault injected by the restoring env fails the restore typed and
/// leaves the registry untouched.
TEST(IoSeamTest, SnapshotRestoreReportsAnInjectedReadFault) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("faulty-snapshot");
  ASSERT_TRUE(WriteRunStateSnapshot(dir, *env.pool, *env.corpus.registry,
                                    *env.corpus.ontology, env.provenance)
                  .ok());

  IoFaultProfile profile;
  profile.eio_read_at = 1;
  FaultyIoEnv faulty(profile);
  auto fresh = BuildCorpus();
  ASSERT_TRUE(fresh.ok());
  auto restored =
      RestoreRunState(dir, *fresh->ontology, *fresh->registry, &faulty);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsCorrupted()) << restored.status();
  EXPECT_EQ(restored.status().message(), "injected EIO reading '" + dir +
                                             "/" + kSnapshotPoolFile +
                                             "' (read #1)");
  EXPECT_EQ(faulty.faults_injected(), 1u);
  for (const ModulePtr& module : fresh->registry->AllModules()) {
    EXPECT_TRUE(fresh->registry->DataExamplesOf(module->spec().id).empty());
  }
}

/// A durable annotate crashed at each point, then recovered and resumed,
/// leaves the same bytes whether it runs on the real file system or on a
/// relocated one that only the seam can reach.
TEST(IoSeamTest, CrashedDurableAnnotateRelocatesByteIdentically) {
  const ScaleCorpus& corpus = SeamCorpus();
  for (CrashPoint point :
       {CrashPoint::kCrashAfterCommit, CrashPoint::kTornWrite}) {
    SCOPED_TRACE(CrashPointName(point));
    const CrashPlan crash{point, corpus.module_ids[60]};

    const std::string real = FreshDir(std::string("real-") +
                                      CrashPointName(point));
    DurableAttempt(real, nullptr, &crash);
    const std::string real_annotations = DurableAttempt(real, nullptr, nullptr);

    Relocation relocated =
        Relocate(std::string("relocated-") + CrashPointName(point));
    const std::string dir = relocated.root + "/run";
    DurableAttempt(dir, relocated.io.get(), &crash);
    const std::string annotations =
        DurableAttempt(dir, relocated.io.get(), nullptr);

    const auto expected = TreeBytes(real);
    EXPECT_GE(expected.size(), 3u) << "the run should span 3+ segments";
    EXPECT_EQ(TreeBytes(relocated.backing + "/run"), expected);
    EXPECT_FALSE(real_annotations.empty());
    EXPECT_EQ(annotations, real_annotations);
  }
}

/// A 3-shard run and its merge leave the same bytes on a relocated file
/// system as on the real one.
TEST(IoSeamTest, ShardedAnnotateRelocatesByteIdentically) {
  const ScaleCorpus& corpus = SeamCorpus();
  ShardOptions options;
  options.shards = 3;

  options.root = FreshDir("real-sharded");
  auto real_registry = FreshScaleRegistry();
  auto real = RunShardedAnnotate(*real_registry, *corpus.ontology,
                                 *corpus.pool, SeamConfig(), options);
  ASSERT_TRUE(real.ok()) << real.status();
  ASSERT_TRUE(real->merged.run_status.ok()) << real->merged.run_status;
  const auto expected = TreeBytes(options.root);

  Relocation relocated = Relocate("relocated-sharded");
  options.root = relocated.root + "/sharded";
  auto registry = FreshScaleRegistry();
  auto sharded =
      RunShardedAnnotate(*registry, *corpus.ontology, *corpus.pool,
                         SeamConfig(), options, relocated.io.get());
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE(sharded->merged.run_status.ok()) << sharded->merged.run_status;

  EXPECT_GE(expected.size(), 5u);  // MANIFEST, 3 shards, the merge.
  EXPECT_EQ(TreeBytes(relocated.backing + "/sharded"), expected);
  EXPECT_EQ(SaveAnnotations(*registry, *corpus.ontology),
            SaveAnnotations(*real_registry, *corpus.ontology));
}

/// A serve daemon on `root`, reaching the disk through `io`, runs a durable
/// annotate that crashes before its 8th commit; a second daemon on the same
/// root finds the unfinished run, resumes it and marks it DONE. Returns the
/// resumed run's annotations digest (0 on a failure the test reports).
uint64_t ServeCrashThenResume(const std::string& root, IoEnv* io) {
  serve::ServeEnvOptions options;
  options.journal_root = root;
  options.io = io;
  {
    auto env = serve::ServeEnv::Create(options);
    EXPECT_TRUE(env.ok()) << env.status();
    if (!env.ok()) return 0;
    serve::RunSpec spec;
    spec.kind = "annotate_durable";
    spec.crash = {CrashPoint::kCrashBeforeCommit,
                  (*env)->corpus().available_ids[7]};
    auto run = (*env)->Prepare(spec);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) return 0;
    serve::RunManager manager((*env)->engine(), {});
    auto id = manager.Submit("tenant", std::move(*run));
    EXPECT_TRUE(id.ok()) << id.status();
    EXPECT_EQ(manager.Drain(), 1u);
    if (!id.ok()) return 0;
    auto status = manager.StatusOf(*id);
    EXPECT_TRUE(status.ok()) << status.status();
    if (status.ok()) {
      EXPECT_EQ(status->state, serve::RunState::kFailed);
    }
  }

  auto env = serve::ServeEnv::Create(options);
  EXPECT_TRUE(env.ok()) << env.status();
  if (!env.ok()) return 0;
  auto unfinished = (*env)->UnfinishedJournalDirs();
  EXPECT_TRUE(unfinished.ok()) << unfinished.status();
  if (!unfinished.ok() || unfinished->size() != 1) {
    ADD_FAILURE() << "expected one unfinished run under " << root;
    return 0;
  }
  auto run = (*env)->PrepareResume(unfinished->front());
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return 0;
  serve::RunManager manager((*env)->engine(), {});
  auto id = manager.Submit("tenant", std::move(*run));
  EXPECT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(manager.Drain(), 1u);
  if (!id.ok()) return 0;
  auto result = manager.ResultOf(*id);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return 0;
  EXPECT_TRUE((*result)->complete()) << (*result)->run_status;
  EXPECT_GT((*result)->annotate.replayed, 0u);
  auto resumed = (*env)->UnfinishedJournalDirs();
  EXPECT_TRUE(resumed.ok() && resumed->empty()) << "the resumed run is DONE";
  auto finished = manager.RunOf(*id);
  EXPECT_TRUE(finished.ok()) << finished.status();
  if (!finished.ok()) return 0;
  return (*env)->AnnotationsDigest(*(*finished)->registry);
}

/// A serve daemon's journal-root scan, RUN descriptor, journal and DONE
/// marker all go through its env: a crashed durable run resumes after a
/// restart on a relocated file system to the digest and the bytes the real
/// file system gives.
TEST(IoSeamTest, ServeRestartResumesThroughItsEnv) {
  const std::string real_root = FreshDir("real-serve");
  const uint64_t real_digest = ServeCrashThenResume(real_root, nullptr);

  Relocation relocated = Relocate("relocated-serve");
  const uint64_t digest =
      ServeCrashThenResume(relocated.root + "/runs", relocated.io.get());

  EXPECT_NE(real_digest, 0u);
  EXPECT_EQ(digest, real_digest);
  const auto expected = TreeBytes(real_root);
  EXPECT_EQ(expected.count("run-0/DONE"), 1u);
  EXPECT_EQ(TreeBytes(relocated.backing + "/runs"), expected);
}

}  // namespace
}  // namespace dexa
