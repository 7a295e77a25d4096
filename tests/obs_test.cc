// Golden-trace determinism suite for src/obs: the tracer's logical-tick
// span tree, RAII guard semantics, stable-counter deltas, the Chrome-trace
// and metrics.json exporters with their checksum seal, exact counter
// pinning for scripted fault schedules, and the acceptance bar — traces
// that are byte-identical across thread counts, under transient faults,
// and across a crash/resume pair (with replayed commits marked replayed,
// never re-traced as live work).

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_config.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "durability/journal.h"
#include "modules/module.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "types/value.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;

using testing_env::GetEnvironment;

/// A fresh directory under the test temp root, wiped on creation.
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / "dexa_obs" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// The environment registry with every module wrapped in a FaultInjector
/// running `profile`, reporting into `metrics`.
std::unique_ptr<ModuleRegistry> WrappedRegistry(const FaultProfile& profile,
                                                EngineMetrics* metrics) {
  const auto& env = GetEnvironment();
  auto wrapped = WrapRegistryWithFaults(*env.corpus.registry, profile, metrics);
  EXPECT_TRUE(wrapped.ok()) << wrapped.status();
  return std::move(wrapped).value();
}

// ---------------------------------------------------------------------------
// Tracer: logical ticks, span tree, idempotent close
// ---------------------------------------------------------------------------

TEST(TracerTest, TicksAreLogicalAndTheSpanTreeIsRecorded) {
  obs::Tracer tracer;
  uint64_t run = tracer.BeginSpan(obs::SpanKind::kRun, "run");
  uint64_t phase = tracer.BeginSpan(obs::SpanKind::kPhase, "generate", run);
  uint64_t batch = tracer.BeginSpan(obs::SpanKind::kBatch, "m1", phase);
  tracer.AddCounter(batch, "examples", 3);
  tracer.EndSpan(batch);
  tracer.EndSpan(phase);
  tracer.EndSpan(run);

  ASSERT_EQ(tracer.open_spans(), 0u);
  std::vector<obs::TraceSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);

  // Ids are 1-based in creation order; parents form the tree.
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, run);
  EXPECT_EQ(spans[2].parent, phase);
  EXPECT_EQ(spans[2].name, "m1");
  EXPECT_EQ(spans[2].kind, obs::SpanKind::kBatch);

  // One tick per Begin and per End, in recording order: begin 0,1,2 then
  // end 3,4,5 inner-to-outer. No wall clock anywhere.
  EXPECT_EQ(spans[0].start_tick, 0u);
  EXPECT_EQ(spans[1].start_tick, 1u);
  EXPECT_EQ(spans[2].start_tick, 2u);
  EXPECT_EQ(spans[2].end_tick, 3u);
  EXPECT_EQ(spans[1].end_tick, 4u);
  EXPECT_EQ(spans[0].end_tick, 5u);

  ASSERT_EQ(spans[2].counters.size(), 1u);
  EXPECT_EQ(spans[2].counters[0].first, "examples");
  EXPECT_EQ(spans[2].counters[0].second, 3u);
}

TEST(TracerTest, EndSpanIsIdempotentAndUnknownIdsAreIgnored) {
  obs::Tracer tracer;
  uint64_t id = tracer.BeginSpan(obs::SpanKind::kRun, "run");
  tracer.EndSpan(id);
  uint64_t closed_at = tracer.spans()[0].end_tick;

  tracer.EndSpan(id);    // Already closed: must not re-stamp.
  tracer.EndSpan(0);     // "No span".
  tracer.EndSpan(999);   // Never issued.
  EXPECT_EQ(tracer.spans()[0].end_tick, closed_at);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(TracerTest, VirtualClockReadingIsStampedAtSpanOpen) {
  VirtualClock clock;
  obs::Tracer tracer(&clock);
  uint64_t a = tracer.BeginSpan(obs::SpanKind::kPhase, "before");
  clock.Advance(250);
  uint64_t b = tracer.BeginSpan(obs::SpanKind::kPhase, "after");
  tracer.EndSpan(b);
  tracer.EndSpan(a);

  std::vector<obs::TraceSpan> spans = tracer.spans();
  EXPECT_EQ(spans[a - 1].virtual_ns, 0u);
  EXPECT_EQ(spans[b - 1].virtual_ns, 250u);
}

// ---------------------------------------------------------------------------
// ScopedSpan: RAII close on every path, null-tracer no-op
// ---------------------------------------------------------------------------

TEST(ScopedSpanTest, ClosesOnEveryEarlyReturnPath) {
  obs::Tracer tracer;
  auto leave_early = [&](bool early) {
    obs::ScopedSpan span(&tracer, obs::SpanKind::kPhase, "guarded");
    if (early) return;  // The guard must close the span here too.
    span.Counter("worked", 1);
  };
  leave_early(true);
  leave_early(false);
  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(tracer.spans().size(), 2u);
  for (const obs::TraceSpan& span : tracer.spans()) {
    EXPECT_NE(span.end_tick, 0u) << "span " << span.id << " left open";
  }
}

TEST(ScopedSpanTest, ExplicitEndIsIdempotentWithTheDestructor) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan span(&tracer, obs::SpanKind::kRun, "run");
    span.End();
    span.End();  // Second End and the destructor are no-ops.
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].end_tick, 1u);
}

TEST(ScopedSpanTest, NullTracerMakesEveryMemberANoOp) {
  obs::ScopedSpan span(nullptr, obs::SpanKind::kRun, "off");
  EXPECT_EQ(span.id(), 0u);
  span.Counter("ignored", 1);
  span.MarkReplayed();
  span.End();  // Must not crash.
}

TEST(StableCounterTest, DeltasOmitZeroesAndScheduleDependentCounters) {
  EngineMetrics metrics;
  EngineMetricsSnapshot before = metrics.Snapshot();
  metrics.Add(EngineCounter::invocations);
  metrics.Add(EngineCounter::invocation_errors);
  metrics.Add(EngineCounter::retries);
  // Volatile: concept-cache lookups (any caller sharing the metrics counts
  // into them) and the wall-clock phase timings must never reach a trace.
  metrics.Add(EngineCounter::cache_queries);
  metrics.Add(EngineCounter::cache_hits);
  metrics.AddPhaseNanos(EnginePhase::kGenerate, 1'000'000);
  EngineMetricsSnapshot after = metrics.Snapshot();

  auto deltas = obs::StableCounterDeltas(before, after);
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_EQ(deltas[0], (std::pair<std::string, uint64_t>{"invocations", 1}));
  EXPECT_EQ(deltas[1],
            (std::pair<std::string, uint64_t>{"invocation_errors", 1}));
  EXPECT_EQ(deltas[2], (std::pair<std::string, uint64_t>{"retries", 1}));
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, HistogramBucketsAndOverflowSlot) {
  obs::MetricsRegistry registry;
  registry.DefineHistogram("h", {1, 4, 16});
  for (uint64_t value : {0u, 1u, 2u, 4u, 5u, 16u, 17u, 1000u}) {
    registry.Observe("h", value);
  }
  registry.Observe("unknown", 7);  // Ignored: define first.

  const auto& snapshot = registry.histograms().at("h").first;
  ASSERT_EQ(snapshot.counts.size(), 4u);
  EXPECT_EQ(snapshot.counts[0], 2u);  // 0, 1
  EXPECT_EQ(snapshot.counts[1], 2u);  // 2, 4
  EXPECT_EQ(snapshot.counts[2], 2u);  // 5, 16
  EXPECT_EQ(snapshot.counts[3], 2u);  // 17, 1000 overflow
  EXPECT_EQ(snapshot.observations, 8u);
  EXPECT_EQ(snapshot.total, 0u + 1 + 2 + 4 + 5 + 16 + 17 + 1000);
}

TEST(MetricsRegistryTest, RatioPpmIsFixedPoint) {
  EXPECT_EQ(obs::RatioPpm(1, 2), 500'000u);
  EXPECT_EQ(obs::RatioPpm(0, 5), 0u);
  EXPECT_EQ(obs::RatioPpm(5, 0), 0u);  // No division by zero.
  EXPECT_EQ(obs::RatioPpm(3, 3), 1'000'000u);
}

TEST(MetricsRegistryTest, EngineImportSplitsStableFromVolatile) {
  EngineMetrics metrics;
  metrics.Add(EngineCounter::invocations);
  metrics.Add(EngineCounter::cache_queries);
  metrics.Add(EngineCounter::cache_hits);
  metrics.AddPhaseNanos(EnginePhase::kGenerate, 42);

  obs::MetricsRegistry registry;
  registry.ImportEngineSnapshot(metrics.Snapshot());

  using obs::MetricStability;
  EXPECT_EQ(registry.counters().at("engine.invocations").second,
            MetricStability::kStable);
  EXPECT_EQ(registry.counters().at("engine.cache_hits").second,
            MetricStability::kVolatile);
  EXPECT_EQ(registry.counters().at("engine.phase_ns.generate").second,
            MetricStability::kVolatile);
  EXPECT_EQ(registry.gauges().at("engine.invocation_error_rate_ppm").second,
            MetricStability::kStable);
}

// ---------------------------------------------------------------------------
// Exporters: round-trip, checksum seal, typed corruption
// ---------------------------------------------------------------------------

/// A small two-level trace with counters, a replayed span and an escaped
/// name, exercising every writer feature.
void RecordSampleTrace(obs::Tracer& tracer) {
  obs::ScopedSpan run(&tracer, obs::SpanKind::kRun, "annotate \"q\"\n");
  {
    obs::ScopedSpan phase(&tracer, obs::SpanKind::kPhase, "replay", run.id());
    obs::ScopedSpan batch(&tracer, obs::SpanKind::kBatch, "m1", phase.id());
    batch.MarkReplayed();
    batch.Counter("examples", 2);
  }
  run.Counter("commits", 7);
}

TEST(ExportTest, ChromeTraceRoundTripsThroughTheReader) {
  obs::Tracer tracer;
  RecordSampleTrace(tracer);
  const std::string text = obs::WriteChromeTrace(tracer);

  // The writer is deterministic: same spans, same bytes.
  EXPECT_EQ(text, obs::WriteChromeTrace(tracer));

  auto parsed = obs::ReadChromeTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  std::vector<obs::TraceSpan> spans = tracer.spans();
  ASSERT_EQ(parsed->spans.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::ParsedSpan& out = parsed->spans[i];
    EXPECT_EQ(out.id, spans[i].id);
    EXPECT_EQ(out.parent, spans[i].parent);
    EXPECT_EQ(out.name, spans[i].name);
    EXPECT_EQ(out.cat, obs::SpanKindName(spans[i].kind));
    EXPECT_EQ(out.ts, spans[i].start_tick);
    EXPECT_EQ(out.dur, spans[i].end_tick - spans[i].start_tick);
    EXPECT_EQ(out.replayed, spans[i].replayed);
    EXPECT_EQ(out.counters, spans[i].counters);
  }
}

TEST(ExportTest, MetricsJsonRoundTripsThroughTheReader) {
  obs::MetricsRegistry registry;
  registry.SetCounter("engine.commits", 12);
  registry.SetCounter("engine.cache_hits", 99, obs::MetricStability::kVolatile);
  registry.SetGauge("rate_ppm", 250'000);
  registry.DefineHistogram("sizes", {1, 8});
  registry.Observe("sizes", 0);
  registry.Observe("sizes", 9);

  const std::string text = obs::WriteMetricsJson(registry);
  EXPECT_EQ(text, obs::WriteMetricsJson(registry));

  auto parsed = obs::ReadMetricsJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->stable_counters.at("engine.commits"), 12u);
  EXPECT_EQ(parsed->volatile_counters.at("engine.cache_hits"), 99u);
  EXPECT_EQ(parsed->stable_gauges.at("rate_ppm"), 250'000u);
  const obs::HistogramSnapshot& h = parsed->stable_histograms.at("sizes");
  EXPECT_EQ(h.bounds, (std::vector<uint64_t>{1, 8}));
  EXPECT_EQ(h.counts, (std::vector<uint64_t>{1, 0, 1}));
  EXPECT_EQ(h.total, 9u);
  EXPECT_EQ(h.observations, 2u);
}

TEST(ExportTest, DamagedExportsAreRejectedAsCorrupted) {
  obs::Tracer tracer;
  RecordSampleTrace(tracer);
  const std::string trace = obs::WriteChromeTrace(tracer);
  obs::MetricsRegistry registry;
  registry.SetCounter("c", 1);
  const std::string metrics = obs::WriteMetricsJson(registry);

  // A flipped byte breaks the checksum; a truncated document breaks the
  // framing; garbage is garbage. All must come back kCorrupted — never a
  // crash, never a partial parse.
  std::string flipped = trace;
  flipped[trace.size() / 2] ^= 0x20;
  EXPECT_TRUE(obs::ReadChromeTrace(flipped).status().IsCorrupted());
  EXPECT_TRUE(
      obs::ReadChromeTrace(trace.substr(0, trace.size() - 5)).status()
          .IsCorrupted());
  EXPECT_TRUE(obs::ReadChromeTrace("").status().IsCorrupted());
  EXPECT_TRUE(obs::ReadChromeTrace("{\"traceEvents\":[]}").status()
                  .IsCorrupted());  // Valid JSON, missing seal.

  std::string metrics_flipped = metrics;
  metrics_flipped[metrics.size() / 3] ^= 0x01;
  EXPECT_TRUE(obs::ReadMetricsJson(metrics_flipped).status().IsCorrupted());
  EXPECT_TRUE(
      obs::ReadMetricsJson(metrics.substr(0, metrics.size() - 1)).status()
          .IsCorrupted());
  EXPECT_TRUE(obs::ReadMetricsJson(trace).status().IsCorrupted());
}

// ---------------------------------------------------------------------------
// Counter regressions: scripted fault schedules pin exact counts
// ---------------------------------------------------------------------------

/// An echo module: the controllable backend the scripted schedules wrap in
/// FaultInjectors.
class EchoModule : public Module {
 public:
  EchoModule() : Module(MakeSpec()) {}

  bool fail_permanently = false;

 protected:
  Result<std::vector<Value>> InvokeImpl(
      const std::vector<Value>& inputs) const override {
    if (fail_permanently) return Status::Permanent("backend gone");
    return std::vector<Value>{inputs[0]};
  }

 private:
  static ModuleSpec MakeSpec() {
    ModuleSpec spec;
    spec.id = "test.obs.echo";
    spec.name = "Echo";
    spec.inputs.push_back(Parameter{.name = "in"});
    spec.outputs.push_back(Parameter{.name = "out"});
    return spec;
  }
};

TEST(CounterRegressionTest, DeadlineBlownAttemptCountsAsErrorNotSuccess) {
  // Schedule: one attempt, succeeds, but its injected latency (10ms) blows
  // the 5ms budget — the caller gets kTimeout and the result is discarded.
  // The regression: this used to count as a *successful* invocation
  // (invocation_errors == 0), overstating completed work.
  auto module = std::make_shared<EchoModule>();
  FaultProfile profile;
  profile.latency_ns = 10'000'000;
  auto injector = std::make_shared<FaultInjector>(module, profile);
  auto engine =
      EngineConfig().Threads(1).DeadlineNanos(5'000'000).BuildEngine();

  auto result = engine->Invoke(*injector, {Value::Str("x")});
  EXPECT_TRUE(result.status().IsTimeout()) << result.status();

  EngineMetricsSnapshot snapshot = engine->metrics().Snapshot();
  EXPECT_EQ(snapshot.invocations, 1u);
  EXPECT_EQ(snapshot.invocation_errors, 1u);
  EXPECT_EQ(snapshot.deadline_exhaustions, 1u);
  EXPECT_EQ(snapshot.retries, 0u);
}

TEST(CounterRegressionTest, BreakerShortCircuitIsNotAnInvocation) {
  // Schedule: two permanent failures trip the breaker (threshold 2); the
  // third call short-circuits without reaching the module. Exactly two
  // invocations — a short-circuit is denied admission, not attempted work.
  auto module = std::make_shared<EchoModule>();
  module->fail_permanently = true;
  auto engine = EngineConfig()
                    .Threads(1)
                    .Breaker(/*threshold=*/2, /*cooldown_ns=*/1'000'000)
                    .BuildEngine();
  const std::vector<Value> inputs{Value::Str("x")};

  EXPECT_TRUE(engine->Invoke(*module, inputs).status().IsPermanent());
  EXPECT_TRUE(engine->Invoke(*module, inputs).status().IsPermanent());
  EXPECT_TRUE(engine->Invoke(*module, inputs).status().IsDecayed());

  EngineMetricsSnapshot snapshot = engine->metrics().Snapshot();
  EXPECT_EQ(snapshot.invocations, 2u);
  EXPECT_EQ(snapshot.invocation_errors, 2u);
  EXPECT_EQ(snapshot.breaker_trips, 1u);
  EXPECT_EQ(snapshot.breaker_short_circuits, 1u);

  // A short-circuited batch behaves the same: four more denials, still two
  // invocations.
  std::vector<std::vector<Value>> batch(4, inputs);
  for (const auto& denied : engine->InvokeBatch(*module, batch)) {
    EXPECT_TRUE(denied.status().IsDecayed()) << denied.status();
  }
  snapshot = engine->metrics().Snapshot();
  EXPECT_EQ(snapshot.invocations, 2u);
  EXPECT_EQ(snapshot.breaker_short_circuits, 5u);
}

TEST(CounterRegressionTest, FlakyWarmupScheduleIsPinnedExactly) {
  // Schedule: the injector fails the first two attempts, the third
  // succeeds. 3 invocations, 2 errors, 2 retries, 2 injected faults.
  auto module = std::make_shared<EchoModule>();
  FaultProfile profile;
  profile.flaky_first_attempts = 2;
  auto engine = EngineConfig().Threads(1).MaxAttempts(3).BuildEngine();
  auto injector =
      std::make_shared<FaultInjector>(module, profile, &engine->metrics());

  ASSERT_TRUE(engine->Invoke(*injector, {Value::Str("x")}).ok());

  EngineMetricsSnapshot snapshot = engine->metrics().Snapshot();
  EXPECT_EQ(snapshot.invocations, 3u);
  EXPECT_EQ(snapshot.invocation_errors, 2u);
  EXPECT_EQ(snapshot.retries, 2u);
  EXPECT_EQ(snapshot.injected_faults, 2u);
  EXPECT_EQ(snapshot.deadline_exhaustions, 0u);
  EXPECT_EQ(snapshot.breaker_short_circuits, 0u);
}

// ---------------------------------------------------------------------------
// Golden traces: byte-identical across thread counts
// ---------------------------------------------------------------------------

/// One traced annotation run over the environment registry (wrapped in
/// `profile` injectors) at `threads`; returns the Chrome-trace bytes and
/// the run's final engine snapshot through `out`.
std::string TracedAnnotate(size_t threads, const FaultProfile& profile,
                           EngineMetricsSnapshot* out) {
  const auto& env = GetEnvironment();
  EngineConfig config =
      EngineConfig().Threads(threads).Seed(0x0B5).MaxAttempts(4);
  auto engine = config.BuildEngine();
  auto registry = WrappedRegistry(profile, &engine->metrics());
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());

  obs::Tracer tracer(&engine->clock());
  auto report = AnnotateRegistry(generator, *registry, &tracer);
  EXPECT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->complete()) << report->run_status;
  EXPECT_EQ(tracer.open_spans(), 0u);
  if (out != nullptr) *out = report->metrics;
  return obs::WriteChromeTrace(tracer);
}

TEST(GoldenTraceTest, AnnotateTraceIsByteIdenticalAcrossThreadCounts) {
  EngineMetricsSnapshot serial_metrics;
  EngineMetricsSnapshot pooled_metrics;
  const std::string serial = TracedAnnotate(1, FaultProfile{}, &serial_metrics);
  const std::string pooled = TracedAnnotate(8, FaultProfile{}, &pooled_metrics);
  EXPECT_EQ(serial, pooled) << "span tree diverged between t1 and t8";
  EXPECT_EQ(obs::StableCounters(serial_metrics),
            obs::StableCounters(pooled_metrics));

  // Structure sanity: a run root with generate + commit phases and one
  // batch span per annotated/decayed module, each carrying counters.
  auto parsed = obs::ReadChromeTrace(serial);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_FALSE(parsed->spans.empty());
  const obs::ParsedSpan& root = parsed->spans.front();
  EXPECT_EQ(root.cat, "run");
  EXPECT_EQ(root.name, "annotate_registry");
  EXPECT_FALSE(root.counters.empty());
  size_t phases = 0;
  size_t batches = 0;
  for (const obs::ParsedSpan& span : parsed->spans) {
    if (span.cat == "phase") ++phases;
    if (span.cat == "batch") {
      ++batches;
      EXPECT_EQ(parsed->spans[span.parent - 1].name, "commit");
    }
  }
  EXPECT_EQ(phases, 2u);
  EXPECT_GT(batches, 100u) << "one batch span per committed module";
}

TEST(GoldenTraceTest, TransientFaultTraceIsByteIdenticalAndRecordsRetries) {
  FaultProfile profile;
  profile.seed = 0xFA17;
  profile.transient_rate = 0.2;

  EngineMetricsSnapshot serial_metrics;
  const std::string serial = TracedAnnotate(1, profile, &serial_metrics);
  const std::string pooled = TracedAnnotate(8, profile, nullptr);
  EXPECT_EQ(serial, pooled)
      << "span tree diverged between t1 and t8 under 20% transient faults";

  // The faults and retries actually happened, and the root span's stable
  // deltas carry them.
  EXPECT_GT(serial_metrics.injected_faults, 0u);
  EXPECT_GT(serial_metrics.retries, 0u);
  auto parsed = obs::ReadChromeTrace(serial);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  uint64_t root_retries = 0;
  for (const auto& [name, value] : parsed->spans.front().counters) {
    if (name == "retries") root_retries = value;
  }
  EXPECT_GT(root_retries, 0u);
}

TEST(GoldenTraceTest, MetricsStableSectionIsIdenticalAcrossThreadCounts) {
  auto export_metrics = [](size_t threads) {
    EngineMetricsSnapshot snapshot;
    TracedAnnotate(threads, FaultProfile{}, &snapshot);
    obs::MetricsRegistry registry;
    registry.ImportEngineSnapshot(snapshot);
    return obs::ReadMetricsJson(
        obs::WriteMetricsJson(registry));
  };
  auto serial = export_metrics(1);
  auto pooled = export_metrics(8);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(pooled.ok()) << pooled.status();

  EXPECT_EQ(serial->stable_counters, pooled->stable_counters);
  EXPECT_EQ(serial->stable_gauges, pooled->stable_gauges);
  EXPECT_GT(serial->stable_counters.at("engine.invocations"), 0u);
  // The volatile section exists but is exempt from the determinism bar.
  EXPECT_TRUE(serial->volatile_counters.count("engine.cache_hits"));
}

// ---------------------------------------------------------------------------
// Crash/resume: replayed commits are marked, not re-traced as live work
// ---------------------------------------------------------------------------

/// Crashes a durable run before the commit of module `crash_index`, then
/// resumes it with a tracer attached; returns the resume trace's bytes and
/// the resumed report's replayed count through `out_replayed`.
std::string TracedResume(size_t threads, const std::string& dir,
                         size_t crash_index, size_t* out_replayed) {
  const auto& env = GetEnvironment();
  EngineConfig config = EngineConfig().Threads(threads).Seed(0xD0D0);

  {
    auto engine = config.BuildEngine();
    auto registry = WrappedRegistry(FaultProfile{}, &engine->metrics());
    ExampleGenerator generator = config.MakeGenerator(
        env.corpus.ontology.get(), env.pool.get(), engine.get());
    auto journal = RunJournal::Create(dir, {}, &engine->metrics());
    EXPECT_TRUE(journal.ok()) << journal.status();
    const auto modules = registry->AvailableModules();
    EXPECT_GT(modules.size(), crash_index);
    CrashPlan crash;
    crash.point = CrashPoint::kCrashBeforeCommit;
    crash.key = modules[crash_index]->spec().id;
    RunRequest request = MakeDurableAnnotateRun(
        generator, *registry, *env.corpus.ontology, *journal);
    request.crash = &crash;
    auto result = SubmitRun(request);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->run_status.IsCancelled()) << result->run_status;
  }

  auto engine = config.BuildEngine();
  auto registry = WrappedRegistry(FaultProfile{}, &engine->metrics());
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto recovery = RecoverJournal(dir, &engine->metrics());
  EXPECT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
  EXPECT_TRUE(journal.ok()) << journal.status();

  obs::Tracer tracer(&engine->clock());
  RunRequest request = MakeDurableAnnotateRun(generator, *registry,
                                              *env.corpus.ontology, *journal);
  request.resume = &*recovery;
  request.obs.tracer = &tracer;
  auto result = SubmitRun(request);
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->complete()) << result->run_status;
  EXPECT_EQ(tracer.open_spans(), 0u);
  if (out_replayed != nullptr) *out_replayed = result->annotate.replayed;
  return obs::WriteChromeTrace(tracer);
}

TEST(GoldenTraceTest, ResumeTraceMarksReplayedSpansAndIsByteIdentical) {
  constexpr size_t kCrashIndex = 11;
  size_t serial_replayed = 0;
  const std::string serial = TracedResume(
      1, FreshDir("resume-t1"), kCrashIndex, &serial_replayed);
  const std::string pooled =
      TracedResume(8, FreshDir("resume-t8"), kCrashIndex, nullptr);
  EXPECT_EQ(serial, pooled) << "resume trace diverged between t1 and t8";
  EXPECT_EQ(serial_replayed, kCrashIndex);

  auto parsed = obs::ReadChromeTrace(serial);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_FALSE(parsed->spans.empty());
  EXPECT_EQ(parsed->spans.front().name, "annotate_registry_durable");

  size_t replayed_spans = 0;
  for (const obs::ParsedSpan& span : parsed->spans) {
    if (span.cat != "batch") continue;
    const obs::ParsedSpan& parent = parsed->spans[span.parent - 1];
    if (span.replayed) {
      ++replayed_spans;
      // Served from the journal: under the replay phase, with no live-work
      // counters (no combinations were tried for a replayed commit).
      EXPECT_EQ(parent.name, "replay");
      for (const auto& [name, value] : span.counters) {
        EXPECT_NE(name, "combinations_tried")
            << "replayed span " << span.name << " re-traced as live work";
      }
    } else {
      EXPECT_EQ(parent.name, "commit");
    }
  }
  EXPECT_EQ(replayed_spans, serial_replayed);

  // The run span's stable deltas account for the replayed prefix.
  uint64_t root_replayed = 0;
  for (const auto& [name, value] : parsed->spans.front().counters) {
    if (name == "modules_replayed") root_replayed = value;
  }
  EXPECT_EQ(root_replayed, serial_replayed);
}

}  // namespace
}  // namespace dexa
