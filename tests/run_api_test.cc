// Suite for the RunRequest/RunResult API (core/run_api.h), the only run
// entry point: request validation, runs byte-identical to the direct
// in-memory calls and across thread counts (annotations, journal bytes,
// enactment outputs), in-memory and durable annotate committing the same
// modules, crash-resume through the facade (also with retired modules
// interleaved in the registry), exported counters scoped to their run,
// and the kind names serve prints.

#include <filesystem>
#include <memory>
#include <optional>
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
#include "engine/concept_cache.h"
#include "modules/registry_io.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/run_manager.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;

using testing_env::GetEnvironment;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / "dexa_run_api" / name;
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

/// All journal segment bytes of `dir`, concatenated in segment order — the
/// byte-identity witness for durable runs.
std::string JournalBytes(const std::string& dir) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  std::string bytes;
  for (const fs::path& segment : segments) {
    auto content = IoEnv::Real().ReadFile(segment.string());
    EXPECT_TRUE(content.ok()) << content.status();
    if (content.ok()) bytes += *content;
  }
  return bytes;
}

std::string Annotations(const ModuleRegistry& registry) {
  return SaveAnnotations(registry, *GetEnvironment().corpus.ontology);
}

/// A still-enactable corpus workflow with >= 3 processors.
const GeneratedWorkflow& PickWorkflow() {
  const auto& env = GetEnvironment();
  for (const GeneratedWorkflow& item : env.workflows.items) {
    if (item.workflow.processors.size() >= 3 &&
        IsEnactable(item.workflow, *env.corpus.registry)) {
      return item;
    }
  }
  ADD_FAILURE() << "no enactable workflow with >= 3 processors";
  std::abort();
}

TEST(RunApiTest, ServeWireKindNamesAreStable) {
  // The `kind` strings of serve's status/result responses and RUN
  // descriptors: the run kind plus whether the run journals.
  EXPECT_EQ(serve::WireKindName(RunKind::kAnnotate, false), "annotate");
  EXPECT_EQ(serve::WireKindName(RunKind::kAnnotate, true), "annotate_durable");
  EXPECT_EQ(serve::WireKindName(RunKind::kEnact, false), "enact");
  EXPECT_EQ(serve::WireKindName(RunKind::kEnact, true), "enact_durable");
  EXPECT_STREQ(serve::kShardWireKind, "shard");
}

TEST(RunApiTest, ValidatesRequiredFieldsPerKind) {
  auto expect_invalid = [](const RunRequest& request, const char* what) {
    auto result = SubmitRun(request);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << what;
  };
  expect_invalid(RunRequest{}, "annotate with no generator/registry");

  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.cache, env.pool.get());
  auto registry = FreshRegistry();
  auto journal = RunJournal::Create(FreshDir("validate"));
  ASSERT_TRUE(journal.ok()) << journal.status();

  RunRequest durable = MakeAnnotateRun(generator, *registry);
  durable.journal = &*journal;
  expect_invalid(durable, "durable annotate with no ontology");

  // Resume and crash only mean something with a journal: an in-memory run
  // refuses them rather than dropping them.
  JournalRecovery recovery;
  RunRequest resume = MakeAnnotateRun(generator, *registry);
  resume.resume = &recovery;
  expect_invalid(resume, "in-memory annotate with resume");
  CrashPlan crash;
  RunRequest crashing = MakeAnnotateRun(generator, *registry);
  crashing.crash = &crash;
  expect_invalid(crashing, "in-memory annotate with crash");

  RunRequest enact;
  enact.kind = RunKind::kEnact;
  expect_invalid(enact, "enact with no workflow/registry/engine");
  const GeneratedWorkflow& item = PickWorkflow();
  InvocationEngine engine;
  RunRequest crashing_enact =
      MakeEnactRun(item.workflow, *env.corpus.registry, item.seeds, engine);
  crashing_enact.crash = &crash;
  expect_invalid(crashing_enact, "in-memory enact with crash");
}

TEST(RunApiTest, AnnotateFacadeMatchesDirectEntry) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.cache, env.pool.get());

  auto direct_registry = FreshRegistry();
  auto direct = AnnotateRegistry(generator, *direct_registry);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_TRUE(direct->complete()) << direct->run_status;

  auto facade_registry = FreshRegistry();
  auto facade = SubmitRun(MakeAnnotateRun(generator, *facade_registry));
  ASSERT_TRUE(facade.ok()) << facade.status();
  ASSERT_TRUE(facade->complete()) << facade->run_status;
  EXPECT_EQ(facade->kind, RunKind::kAnnotate);

  EXPECT_EQ(facade->annotate.annotated, direct->annotated);
  EXPECT_EQ(facade->annotate.examples, direct->examples);
  EXPECT_EQ(Annotations(*facade_registry), Annotations(*direct_registry));
}

TEST(RunApiTest, AnnotateFacadeByteIdenticalAcrossThreadCounts) {
  const auto& env = GetEnvironment();
  std::string annotations_t1, annotations_t8;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EngineConfig config = EngineConfig().Threads(threads);
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.cache, env.pool.get(), engine.get());
    auto registry = FreshRegistry();
    auto result = SubmitRun(MakeAnnotateRun(generator, *registry));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete()) << result->run_status;
    (threads == 1 ? annotations_t1 : annotations_t8) = Annotations(*registry);
  }
  EXPECT_EQ(annotations_t1, annotations_t8);
  EXPECT_FALSE(annotations_t1.empty());
}

TEST(RunApiTest, DurableAnnotateJournalByteIdenticalAcrossThreadCounts) {
  const auto& env = GetEnvironment();
  std::string journal_t1, journal_t8, annotations_t1, annotations_t8;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EngineConfig config = EngineConfig().Threads(threads);
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.cache, env.pool.get(), engine.get());
    const std::string dir =
        FreshDir("threads" + std::to_string(threads));
    auto registry = FreshRegistry();
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto result = SubmitRun(MakeDurableAnnotateRun(
        generator, *registry, *env.corpus.ontology, *journal));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete()) << result->run_status;
    (threads == 1 ? journal_t1 : journal_t8) = JournalBytes(dir);
    (threads == 1 ? annotations_t1 : annotations_t8) = Annotations(*registry);
  }
  EXPECT_EQ(journal_t1, journal_t8);
  EXPECT_EQ(annotations_t1, annotations_t8);
}

TEST(RunApiTest, DurableAnnotateCrashResumesThroughFacade) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.cache, env.pool.get());

  // Uninterrupted facade run: the baseline annotations.
  const std::string baseline_dir = FreshDir("crash_baseline");
  auto baseline_registry = FreshRegistry();
  {
    auto journal = RunJournal::Create(baseline_dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto result = SubmitRun(MakeDurableAnnotateRun(
        generator, *baseline_registry, *env.corpus.ontology, *journal));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete()) << result->run_status;
  }

  const std::string crash_key = env.corpus.available_ids[10];
  const std::string dir = FreshDir("crash");
  auto registry = FreshRegistry();
  {
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashBeforeCommit;
    crash.key = crash_key;
    RunRequest request = MakeDurableAnnotateRun(
        generator, *registry, *env.corpus.ontology, *journal);
    request.crash = &crash;
    auto crashed = SubmitRun(request);
    ASSERT_TRUE(crashed.ok()) << crashed.status();
    EXPECT_FALSE(crashed->complete());
    EXPECT_EQ(crashed->run_status.code(), StatusCode::kCancelled);
    EXPECT_LT(crashed->annotate.annotated, baseline_registry->size());
  }

  // Resume through the facade on a fresh registry.
  auto resumed_registry = FreshRegistry();
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery);
  ASSERT_TRUE(journal.ok()) << journal.status();
  RunRequest request = MakeDurableAnnotateRun(
      generator, *resumed_registry, *env.corpus.ontology, *journal);
  request.resume = &*recovery;
  auto resumed = SubmitRun(request);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->complete()) << resumed->run_status;
  EXPECT_GT(resumed->annotate.replayed, 0u);

  EXPECT_EQ(Annotations(*resumed_registry), Annotations(*baseline_registry));
}

/// A fresh registry whose modules fail the way remote services do: every
/// module draws transient faults, and every fifth one is down for good, so
/// a run commits decayed modules and lost combinations as well as clean
/// ones.
std::unique_ptr<ModuleRegistry> FaultyRegistry(EngineMetrics* metrics) {
  const auto& env = GetEnvironment();
  FaultProfile flaky;
  flaky.transient_rate = 0.2;
  FaultProfile down = flaky;
  down.down = true;
  auto flaky_registry =
      WrapRegistryWithFaults(*env.corpus.registry, flaky, metrics);
  auto down_registry =
      WrapRegistryWithFaults(*env.corpus.registry, down, metrics);
  EXPECT_TRUE(flaky_registry.ok()) << flaky_registry.status();
  EXPECT_TRUE(down_registry.ok()) << down_registry.status();
  const std::vector<ModulePtr> flaky_modules = (*flaky_registry)->AllModules();
  const std::vector<ModulePtr> down_modules = (*down_registry)->AllModules();
  auto registry = std::make_unique<ModuleRegistry>();
  for (size_t i = 0; i < flaky_modules.size(); ++i) {
    Status registered =
        registry->Register(i % 5 == 0 ? down_modules[i] : flaky_modules[i]);
    EXPECT_TRUE(registered.ok()) << registered;
  }
  return registry;
}

/// What one traced annotate run left behind: its report, the registry's
/// annotations, and (name, counters) of every batch span under "commit".
struct TracedAnnotate {
  AnnotateReport report;
  std::string annotations;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, uint64_t>>>>
      commit_spans;
};

/// Annotates a FaultyRegistry at `threads` with a tracer: durably into a
/// fresh journal in `journal_dir`, or in memory when it is empty.
TracedAnnotate RunTracedAnnotate(size_t threads,
                                 const std::string& journal_dir) {
  const auto& env = GetEnvironment();
  EngineConfig config = EngineConfig().Threads(threads);
  auto engine = config.BuildEngine();
  auto registry = FaultyRegistry(&engine->metrics());
  ExampleGenerator generator = config.MakeGenerator(
      env.cache, env.pool.get(), engine.get());
  std::optional<RunJournal> journal;
  RunRequest request = MakeAnnotateRun(generator, *registry);
  if (!journal_dir.empty()) {
    auto created = RunJournal::Create(journal_dir);
    EXPECT_TRUE(created.ok()) << created.status();
    journal.emplace(std::move(created).value());
    request = MakeDurableAnnotateRun(generator, *registry,
                                     *env.corpus.ontology, *journal);
  }
  obs::Tracer tracer(&engine->clock());
  request.tracer = &tracer;
  auto result = SubmitRun(request);
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->complete()) << result->run_status;

  TracedAnnotate out;
  out.report = result->annotate;
  out.annotations = Annotations(*registry);
  const std::vector<obs::TraceSpan> spans = tracer.spans();
  uint64_t commit_phase = 0;
  for (const obs::TraceSpan& span : spans) {
    if (span.kind == obs::SpanKind::kPhase && span.name == "commit") {
      commit_phase = span.id;
    }
  }
  EXPECT_NE(commit_phase, 0u);
  for (const obs::TraceSpan& span : spans) {
    if (span.kind == obs::SpanKind::kBatch && span.parent == commit_phase) {
      out.commit_spans.emplace_back(span.name, span.counters);
    }
  }
  return out;
}

TEST(RunApiTest, InMemoryAndFreshDurableAnnotateCommitTheSameModules) {
  // Both paths run the one generate→commit loop; the durable one only adds
  // the write-ahead callback. Module by module they must commit the same.
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const TracedAnnotate in_memory = RunTracedAnnotate(threads, "");
    const TracedAnnotate durable = RunTracedAnnotate(
        threads, FreshDir("agree-t" + std::to_string(threads)));

    EXPECT_EQ(durable.annotations, in_memory.annotations);
    EXPECT_EQ(durable.report.annotated, in_memory.report.annotated);
    EXPECT_EQ(durable.report.decayed, in_memory.report.decayed);
    EXPECT_EQ(durable.report.examples, in_memory.report.examples);
    EXPECT_EQ(durable.report.transient_exhausted,
              in_memory.report.transient_exhausted);
    EXPECT_EQ(durable.report.decayed_ids, in_memory.report.decayed_ids);
    EXPECT_EQ(durable.commit_spans, in_memory.commit_spans);

    // The faults reach the commits, so the comparison covers decayed and
    // lossy modules, and every available module has its span.
    EXPECT_GT(in_memory.report.decayed, 0u);
    EXPECT_GT(in_memory.report.transient_exhausted, 0u);
    EXPECT_GT(in_memory.report.examples, 0u);
    EXPECT_EQ(in_memory.commit_spans.size(),
              in_memory.report.annotated + in_memory.report.decayed);
  }
}

TEST(RunApiTest, EnactFacadeMatchesDirectEntry) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();

  InvocationEngine direct_engine;
  auto direct = Enact(item.workflow, *env.corpus.registry, item.seeds,
                      direct_engine);
  ASSERT_TRUE(direct.ok()) << direct.status();

  InvocationEngine facade_engine;
  auto facade = SubmitRun(MakeEnactRun(item.workflow, *env.corpus.registry,
                                       item.seeds, facade_engine));
  ASSERT_TRUE(facade.ok()) << facade.status();
  ASSERT_TRUE(facade->complete()) << facade->run_status;
  EXPECT_EQ(facade->kind, RunKind::kEnact);

  ASSERT_EQ(facade->enact.outputs.size(), direct->outputs.size());
  for (size_t i = 0; i < direct->outputs.size(); ++i) {
    EXPECT_TRUE(facade->enact.outputs[i].Equals(direct->outputs[i]))
        << "output " << i << " diverged";
  }
  EXPECT_EQ(facade->enact.invocations.size(), direct->invocations.size());
  EXPECT_EQ(facade->enact.missing_outputs, direct->missing_outputs);
  // An enact run returns its counters too: on a fresh engine, everything
  // the engine counted, which is what the direct entry counted.
  EXPECT_GT(facade->counters.invocations, 0u);
  EXPECT_EQ(facade->counters.invocations,
            facade_engine.metrics().Snapshot().invocations);
  EXPECT_EQ(facade->counters.invocations,
            direct_engine.metrics().Snapshot().invocations);
}

TEST(RunApiTest, DurableEnactCrashResumesThroughFacade) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();

  InvocationEngine baseline_engine;
  auto baseline = Enact(item.workflow, *env.corpus.registry, item.seeds,
                        baseline_engine);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(baseline->invocations.size(), 2u);
  const std::string crash_key = baseline->invocations[1].module_id;

  const std::string dir = FreshDir("enact_crash");
  {
    InvocationEngine engine;
    auto journal = RunJournal::Create(dir, {}, &engine.metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashAfterCommit;
    crash.key = crash_key;
    RunRequest request = MakeDurableEnactRun(
        item.workflow, *env.corpus.registry, item.seeds, engine, *journal);
    request.crash = &crash;
    auto crashed = SubmitRun(request);
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kCancelled)
        << crashed.status();
  }

  InvocationEngine engine;
  auto recovery = RecoverJournal(dir, &engine.metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine.metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  RunRequest request = MakeDurableEnactRun(
      item.workflow, *env.corpus.registry, item.seeds, engine, *journal);
  request.resume = &*recovery;
  auto resumed = SubmitRun(request);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->complete()) << resumed->run_status;

  ASSERT_EQ(resumed->enact.outputs.size(), baseline->outputs.size());
  for (size_t i = 0; i < baseline->outputs.size(); ++i) {
    EXPECT_TRUE(resumed->enact.outputs[i].Equals(baseline->outputs[i]))
        << "output " << i << " diverged after resume";
  }
  EXPECT_EQ(resumed->enact.invocations.size(), baseline->invocations.size());
}

TEST(RunApiTest, ResultCarriesTheRunsCountersBesideItsTrace) {
  const auto& env = GetEnvironment();
  EngineConfig config;
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.cache, env.pool.get(), engine.get());
  auto registry = FreshRegistry();

  obs::Tracer tracer(&engine->clock());
  RunRequest request = MakeAnnotateRun(generator, *registry);
  request.tracer = &tracer;
  auto result = SubmitRun(request);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->complete()) << result->run_status;

  // The run produced spans, and on a fresh engine its counters are
  // everything the engine counted.
  EXPECT_FALSE(tracer.spans().empty());
  EXPECT_GT(result->counters.invocations, 0u);
  EXPECT_EQ(result->counters.invocations,
            engine->metrics().Snapshot().invocations);
  EXPECT_NE(obs::WriteMetricsJson(result->counters, &tracer),
            obs::WriteMetricsJson(EngineMetricsSnapshot{}, &tracer));
}

TEST(RunApiTest, ExportedCountersCoverOnlyTheRun) {
  // Two identical runs on one engine export identical counters: each
  // export holds what its own run counted, not the engine's totals.
  const auto& env = GetEnvironment();
  EngineConfig config;
  auto engine = config.BuildEngine();
  auto cache = std::make_shared<ConceptCache>(env.corpus.ontology.get(),
                                              &engine->metrics());
  ExampleGenerator generator =
      config.MakeGenerator(cache, env.pool.get(), engine.get());
  auto exported = [&]() {
    auto registry = FreshRegistry();
    auto result = SubmitRun(MakeAnnotateRun(generator, *registry));
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->complete()) << result->run_status;
    auto parsed = obs::ReadMetricsJson(obs::WriteMetricsJson(result->counters));
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return std::move(parsed).value();
  };
  const obs::ParsedMetrics first = exported();
  const obs::ParsedMetrics second = exported();

  const uint64_t invocations = first.stable_counters.at("engine.invocations");
  const uint64_t queries = first.volatile_counters.at("engine.cache_queries");
  EXPECT_GT(invocations, 0u);
  EXPECT_GT(queries, 0u);
  EXPECT_EQ(second.stable_counters.at("engine.invocations"), invocations);
  EXPECT_EQ(second.volatile_counters.at("engine.cache_queries"), queries);
}

/// A scale corpus of `modules` modules with every fifth one retired
/// (modules / 5 in all), so from the first retired module on, available
/// index k is not registry position k.
ScaleCorpus InterleavedRetiredCorpus(size_t modules = 27) {
  auto built = BuildScaleCorpus({/*seed=*/11, modules});
  EXPECT_TRUE(built.ok()) << built.status();
  for (size_t k = 4; k < built->module_ids.size(); k += 5) {
    (*built->registry->Find(built->module_ids[k]))->Retire();
  }
  return std::move(built).value();
}

/// A fresh, unannotated registry of every module of `corpus`.
std::unique_ptr<ModuleRegistry> FreshScaleRegistry(const ScaleCorpus& corpus) {
  auto registry = std::make_unique<ModuleRegistry>();
  for (const ModulePtr& module : corpus.registry->AllModules()) {
    Status registered = registry->Register(module);
    EXPECT_TRUE(registered.ok()) << registered;
  }
  return registry;
}

/// A generator over `corpus` on `engine`, reasoning into its metrics.
ExampleGenerator ScaleGenerator(const ScaleCorpus& corpus,
                                const EngineConfig& config,
                                InvocationEngine& engine) {
  return config.MakeGenerator(
      std::make_shared<ConceptCache>(corpus.ontology.get(), &engine.metrics()),
      corpus.pool.get(), &engine);
}

void ExpectRetiredUnannotated(const ModuleRegistry& registry,
                              size_t retired_count = 5) {
  const std::vector<ModulePtr> retired = registry.RetiredModules();
  EXPECT_EQ(retired.size(), retired_count);
  for (const ModulePtr& module : retired) {
    EXPECT_TRUE(registry.DataExamplesOf(module->spec().id).empty())
        << module->spec().id;
  }
}

TEST(RunApiTest, InterleavedRetiredModulesAnnotateIdenticallyAtT1AndT8) {
  // At t8 the 22 available modules of 27 are claimed one at a time; the
  // 3,280 of 4,099 six at a time.
  for (size_t modules : {size_t{27}, size_t{4'099}}) {
    SCOPED_TRACE("modules=" + std::to_string(modules));
    const ScaleCorpus corpus = InterleavedRetiredCorpus(modules);
    const size_t retired = modules / 5;
    std::string annotations_t1, annotations_t8;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EngineConfig config = EngineConfig().Threads(threads);
      auto engine = config.BuildEngine();
      ExampleGenerator generator = ScaleGenerator(corpus, config, *engine);
      auto registry = FreshScaleRegistry(corpus);
      auto result = SubmitRun(MakeAnnotateRun(generator, *registry));
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_TRUE(result->complete()) << result->run_status;
      EXPECT_EQ(result->annotate.annotated + result->annotate.decayed,
                modules - retired);
      ExpectRetiredUnannotated(*registry, retired);
      (threads == 1 ? annotations_t1 : annotations_t8) =
          SaveAnnotations(*registry, *corpus.ontology);
    }
    EXPECT_EQ(annotations_t1, annotations_t8);
    EXPECT_FALSE(annotations_t1.empty());
  }
}

TEST(RunApiTest, InterleavedRetiredModulesResumeToTheFreshRun) {
  const ScaleCorpus corpus = InterleavedRetiredCorpus();
  EngineConfig config = EngineConfig().Threads(4);
  auto engine = config.BuildEngine();
  ExampleGenerator generator = ScaleGenerator(corpus, config, *engine);

  const std::string fresh_dir = FreshDir("retired-fresh");
  auto fresh = FreshScaleRegistry(corpus);
  {
    auto journal = RunJournal::Create(fresh_dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto result = SubmitRun(MakeDurableAnnotateRun(
        generator, *fresh, *corpus.ontology, *journal));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete()) << result->run_status;
  }

  // Crash right after the 10th commit, whose module sits at registry
  // position 11: positions 4 and 9 before it are retired.
  const std::vector<ModuleIndex> available = fresh->AvailableIndices();
  ASSERT_EQ(available[9], 11u);
  const std::string dir = FreshDir("retired-crash");
  {
    auto registry = FreshScaleRegistry(corpus);
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashAfterCommit;
    crash.key = registry->At(available[9])->spec().id;
    RunRequest request = MakeDurableAnnotateRun(
        generator, *registry, *corpus.ontology, *journal);
    request.crash = &crash;
    auto crashed = SubmitRun(request);
    ASSERT_TRUE(crashed.ok()) << crashed.status();
    EXPECT_TRUE(crashed->run_status.IsCancelled()) << crashed->run_status;
    EXPECT_EQ(crashed->annotate.annotated + crashed->annotate.decayed, 10u);
  }

  auto resumed = FreshScaleRegistry(corpus);
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery);
  ASSERT_TRUE(journal.ok()) << journal.status();
  RunRequest request =
      MakeDurableAnnotateRun(generator, *resumed, *corpus.ontology, *journal);
  request.resume = &*recovery;
  auto result = SubmitRun(request);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->complete()) << result->run_status;
  EXPECT_EQ(result->annotate.replayed, 10u);

  EXPECT_EQ(SaveAnnotations(*resumed, *corpus.ontology),
            SaveAnnotations(*fresh, *corpus.ontology));
  ExpectRetiredUnannotated(*resumed);
  auto resumed_frames = RecoverJournal(dir);
  auto fresh_frames = RecoverJournal(fresh_dir);
  ASSERT_TRUE(resumed_frames.ok()) << resumed_frames.status();
  ASSERT_TRUE(fresh_frames.ok()) << fresh_frames.status();
  EXPECT_EQ(resumed_frames->records, fresh_frames->records);
  EXPECT_EQ(fresh_frames->records.size(), 1u + 22u);
}

}  // namespace
}  // namespace dexa
