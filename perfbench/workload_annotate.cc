// annotate_inmem: one-shot SubmitRun(MakeAnnotateRun) over the 100k-module
// scale corpus, with no journal. The scale fixture, the references and the
// decomposed pass defined here serve resume_durable too.

#include <string>
#include <vector>

#include "core/engine_config.h"
#include "core/run_api.h"
#include "durability/commit_codec.h"
#include "durability/journal.h"
#include "engine/concept_cache.h"
#include "modules/registry_io.h"
#include "probes.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kModules = 100'000;

/// The generator the CLI builds: default options, on `engine`, with a
/// concept cache that counts into the engine's metrics.
std::unique_ptr<dexa::ExampleGenerator> MakeGenerator(
    const dexa::ScaleCorpus& corpus, dexa::InvocationEngine& engine) {
  auto cache = std::make_shared<dexa::ConceptCache>(corpus.ontology.get(),
                                                    &engine.metrics());
  return std::make_unique<dexa::ExampleGenerator>(
      std::move(cache), corpus.pool.get(), dexa::GeneratorOptions{}, &engine);
}

std::unique_ptr<dexa::ExampleGenerator> SerialGenerator(
    const ScaleFixture& fixture,
    std::unique_ptr<dexa::InvocationEngine>& engine) {
  engine = dexa::EngineConfig().Threads(1).BuildEngine();
  return MakeGenerator(fixture.corpus, *engine);
}

}  // namespace

ScaleFixture BuildScaleFixture(uint64_t seed, size_t modules) {
  ScaleFixture fixture;
  const Clock::time_point start = Clock::now();
  auto corpus = dexa::BuildScaleCorpus({seed, modules});
  fixture.corpus_build_ms = MsBetween(start, Clock::now());
  if (!corpus.ok()) Die("BuildScaleCorpus", corpus.status());
  fixture.corpus = std::move(corpus).value();
  fixture.engine = dexa::EngineConfig().Threads(HostThreads()).BuildEngine();
  fixture.generator = MakeGenerator(fixture.corpus, *fixture.engine);
  return fixture;
}

uint64_t ReferenceAnnotations(const ScaleFixture& fixture) {
  auto registry = FreshRegistry(*fixture.corpus.registry);
  std::unique_ptr<dexa::InvocationEngine> engine;
  auto generator = SerialGenerator(fixture, engine);
  auto run = dexa::SubmitRun(dexa::MakeAnnotateRun(*generator, *registry));
  if (!run.ok()) Die("reference annotate", run.status());
  if (!run->complete()) Die("reference annotate", run->run_status);
  return Digest(dexa::SaveAnnotations(*registry, *fixture.corpus.ontology));
}

uint64_t ReferenceDurableRun(const ScaleFixture& fixture,
                             const std::string& dir) {
  FreshDir(dir);
  auto registry = FreshRegistry(*fixture.corpus.registry);
  std::unique_ptr<dexa::InvocationEngine> engine;
  auto generator = SerialGenerator(fixture, engine);
  // Batched sync writes the same bytes as the measured runs' per-record
  // fsync, without 10k fsyncs that would slow the disk just before the
  // measurement; Seal flushes the staged last segment.
  dexa::JournalOptions batched;
  batched.sync_each_record = false;
  auto journal = dexa::RunJournal::Create(dir, batched);
  if (!journal.ok()) Die("reference journal", journal.status());
  auto run = dexa::SubmitRun(dexa::MakeDurableAnnotateRun(
      *generator, *registry, *fixture.corpus.ontology, *journal));
  if (!run.ok()) Die("reference durable annotate", run.status());
  if (!run->complete()) Die("reference durable annotate", run->run_status);
  dexa::Status sealed = journal->Seal();
  if (!sealed.ok()) Die("reference journal seal", sealed);
  return Digest(dexa::SaveAnnotations(*registry, *fixture.corpus.ontology));
}

DecomposedPass RunDecomposedPass(const ScaleFixture& fixture, size_t first,
                                 bool encode) {
  DecomposedPass pass;
  const std::vector<dexa::ModulePtr> modules =
      fixture.corpus.registry->AvailableModules();
  for (size_t i = first; i < modules.size(); ++i) {
    const Clock::time_point start = Clock::now();
    auto outcome = fixture.generator->Generate(*modules[i]);
    pass.generate_ms += MsBetween(start, Clock::now());
    if (!outcome.ok()) Die("Generate " + modules[i]->spec().id, outcome.status());
    if (!encode) continue;
    // The commit the durable run journals for this module.
    dexa::ModuleCommit commit;
    commit.module_id = modules[i]->spec().id;
    commit.decayed = outcome->stats.decayed;
    commit.transient_exhausted = outcome->stats.transient_exhausted;
    commit.examples = std::move(outcome->examples);
    const Clock::time_point encode_start = Clock::now();
    const std::string payload =
        dexa::EncodeModuleCommit(commit, *fixture.corpus.ontology);
    pass.encode_ms += MsBetween(encode_start, Clock::now());
    ++pass.commits;
    pass.commit_bytes += payload.size();
  }
  return pass;
}

void RunAnnotate(const Options& options, Report& report) {
  report.Note("flush policy: none (no journal)");

  // -- Set-up: corpus and engine, timed, repeated --------------------------
  // More set-ups are timed between the measured runs below.
  std::vector<double> setup_s, corpus_ms;
  auto set_up = [&](ScaleFixture& into) {
    into = ScaleFixture{};  // Drop the previous build outside the timing.
    const Clock::time_point start = Clock::now();
    into = BuildScaleFixture(options.seed, kModules);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    corpus_ms.push_back(into.corpus_build_ms);
    return setup_s.back();
  };
  ScaleFixture fixture;
  while (setup_s.size() < kMinSetups) set_up(fixture);
  const dexa::Ontology& ontology = *fixture.corpus.ontology;

  // -- Reference, untimed --------------------------------------------------
  const uint64_t reference = ReferenceAnnotations(fixture);

  ModuleLedger module_ledger;
  std::unique_ptr<dexa::ModuleRegistry> decorated;
  if (options.trace) {
    decorated = DecoratedRegistry(*fixture.corpus.registry, &module_ledger);
  }

  // One checked run; `traced` routes it through the decorated registry and
  // fills `*traced_run`. An untraced run adds the peak RSS of its SubmitRun
  // to `peak_mb`, before the output check.
  size_t run_index = 0;
  std::vector<double> peak_mb;
  auto run_once = [&](TracedRun* traced_run) {
    const bool traced = traced_run != nullptr;
    dexa::ModuleRegistry& registry =
        traced ? *decorated : *fixture.corpus.registry;
    module_ledger.Reset();
    const dexa::EngineMetricsSnapshot before =
        fixture.engine->metrics().Snapshot();
    const dexa::RunRequest request =
        dexa::MakeAnnotateRun(*fixture.generator, registry);

    ResetPeakRss();
    const Clock::time_point start = Clock::now();
    auto run = dexa::SubmitRun(request);
    const double wall_ms = MsBetween(start, Clock::now());
    if (!traced) peak_mb.push_back(PeakRssMb());

    std::string problem;
    if (!run.ok()) {
      problem = run.status().ToString();
    } else if (!run->complete()) {
      problem = run->run_status.ToString();
    } else if (run->annotate.annotated + run->annotate.decayed != kModules) {
      problem = "committed " + std::to_string(run->annotate.annotated +
                                              run->annotate.decayed) +
                " of " + std::to_string(kModules) + " modules";
    }
    if (traced && run.ok()) {
      traced_run->wall_ms = wall_ms;
      CaptureLayers(module_ledger, before, run->annotate, traced_run);
    }
    if (problem.empty() &&
        Digest(dexa::SaveAnnotations(registry, ontology)) != reference) {
      problem = "annotations differ from the one-thread reference";
    }
    report.Check(problem.empty(), options.workload + " run " +
                                      std::to_string(run_index++) + ": " +
                                      problem);
    ClearAnnotations(registry);
    return wall_ms;
  };

  // -- Measurement ---------------------------------------------------------
  run_once(nullptr);  // Warm-up: allocator, engine threads.
  std::vector<double> plain_ms;
  std::vector<TracedRun> traced;
  double interleaved_setup_s = 0.0;
  const Clock::time_point loop_start = Clock::now();
  while (plain_ms.size() < kMinSamples ||
         MsBetween(loop_start, Clock::now()) < options.seconds * 1000.0) {
    plain_ms.push_back(run_once(nullptr));
    if (options.trace) {
      traced.emplace_back();
      run_once(&traced.back());
    }
    if (SetupDue(interleaved_setup_s,
                 MsBetween(loop_start, Clock::now()) / 1000.0)) {
      ScaleFixture spare;
      interleaved_setup_s += set_up(spare);
    }
  }

  const Stretch setup = *QuietestStretch(setup_s);
  const Stretch quiet = *QuietestStretch(plain_ms);
  report.Note("timing " + DescribeStretch("setup_s", "s", setup_s, setup));
  report.Note("timing " + DescribeStretch("run_ms", "ms", plain_ms, quiet));
  report.Metric("setup_s", setup.median, "s", setup.end - setup.begin);
  report.Metric("modules_per_s", kModules / (quiet.median / 1000.0), "1/s",
                quiet.end - quiet.begin);
  report.Metric("latency_p50_ms", quiet.median, "ms", quiet.end - quiet.begin);
  report.Metric("peak_rss_mb", *Median(peak_mb), "MB", peak_mb.size());
  if (!options.trace) return;

  // -- Per-layer metrics (traced run) --------------------------------------
  // Traced and untraced runs alternate, so their whole-run medians saw the
  // same host.
  ReportCommonLayers(report, traced, *Median(plain_ms), kModules);
  report.Metric("corpus.build_ms", *Median(corpus_ms), "ms");
  const DecomposedPass pass = RunDecomposedPass(fixture, 0, /*encode=*/false);
  report.Metric("core.generate_ms", pass.generate_ms, "ms");
}

}  // namespace perfbench
