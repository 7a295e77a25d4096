// Tests for the fault-tolerance layer: the typed Status taxonomy, the
// deterministic retry/backoff schedule, fault injection, circuit breakers
// on the virtual clock, deadline budgets, and graceful degradation through
// AnnotateRegistry, Enact and ScanForDecay.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_config.h"
#include "core/example_generator.h"
#include "corpus/fault_injector.h"
#include "engine/invocation_engine.h"
#include "repair/repair.h"
#include "tests/test_util.h"
#include "workflow/enactor.h"

namespace dexa {
namespace {

TEST(StatusTaxonomyTest, RetryDispatchIsOnCodesNotStrings) {
  EXPECT_TRUE(Status::Transient("x").IsTransient());
  EXPECT_TRUE(Status::Transient("x").IsRetryable());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::Timeout("x").IsRetryable());

  EXPECT_FALSE(Status::Permanent("x").IsRetryable());
  EXPECT_FALSE(Status::Decayed("x").IsRetryable());
  EXPECT_FALSE(Status::Cancelled("x").IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("x").IsRetryable());

  EXPECT_TRUE(Status::Permanent("x").IsPermanentFailure());
  EXPECT_TRUE(Status::Decayed("x").IsPermanentFailure());
  EXPECT_TRUE(Status::Unavailable("x").IsPermanentFailure());
  EXPECT_FALSE(Status::Transient("x").IsPermanentFailure());
  EXPECT_FALSE(Status::Cancelled("x").IsPermanentFailure());
  EXPECT_FALSE(Status::OK().IsRetryable());

  // The message must not influence classification.
  EXPECT_TRUE(Status::Transient("permanent decayed timeout").IsRetryable());
}

TEST(RetryBackoffTest, ScheduleIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 1'000'000;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ns = 64'000'000;
  policy.jitter = 0.25;

  for (int attempt = 0; attempt < 10; ++attempt) {
    uint64_t a = RetryBackoffNanos(policy, 0x5eed, 42, attempt);
    uint64_t b = RetryBackoffNanos(policy, 0x5eed, 42, attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;

    double base = 1'000'000.0;
    for (int i = 0; i < attempt; ++i) base *= 2.0;
    base = std::min(base, 64'000'000.0);
    EXPECT_GE(static_cast<double>(a), 0.75 * base - 1.0);
    EXPECT_LE(static_cast<double>(a), 1.25 * base + 1.0);
  }

  // Without jitter the schedule is the exact exponential curve.
  policy.jitter = 0.0;
  EXPECT_EQ(RetryBackoffNanos(policy, 1, 2, 0), 1'000'000u);
  EXPECT_EQ(RetryBackoffNanos(policy, 1, 2, 3), 8'000'000u);
  EXPECT_EQ(RetryBackoffNanos(policy, 1, 2, 9), 64'000'000u);

  // Jitter decorrelates invocations: distinct keys must not share one
  // schedule.
  policy.jitter = 0.25;
  bool any_difference = false;
  for (uint64_t key = 0; key < 8; ++key) {
    if (RetryBackoffNanos(policy, 0x5eed, key, 0) !=
        RetryBackoffNanos(policy, 0x5eed, key + 8, 0)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(EngineConfigTest, BuilderConfiguresEngineRetryAndGenerator) {
  EngineConfig config = EngineConfig()
                            .Threads(2)
                            .Seed(0xD5)
                            .MaxAttempts(4)
                            .Backoff(2'000'000, 3.0, 32'000'000)
                            .Jitter(0.5)
                            .DeadlineNanos(50'000'000)
                            .Breaker(3, 200'000'000)
                            .MaxCombinations(1024)
                            .FullCartesian(false);

  EXPECT_EQ(config.engine_options().threads, 2u);
  EXPECT_EQ(config.engine_options().seed, 0xD5u);
  EXPECT_EQ(config.retry_policy().max_attempts, 4);
  EXPECT_EQ(config.retry_policy().initial_backoff_ns, 2'000'000u);
  EXPECT_EQ(config.retry_policy().backoff_multiplier, 3.0);
  EXPECT_EQ(config.retry_policy().max_backoff_ns, 32'000'000u);
  EXPECT_EQ(config.retry_policy().jitter, 0.5);
  EXPECT_EQ(config.retry_policy().deadline_ns, 50'000'000u);
  EXPECT_EQ(config.retry_policy().breaker_threshold, 3);
  EXPECT_EQ(config.retry_policy().breaker_cooldown_ns, 200'000'000u);
  EXPECT_EQ(config.generator_options().max_combinations, 1024u);
  EXPECT_FALSE(config.generator_options().full_cartesian);
  EXPECT_TRUE(config.retry_policy().retries_enabled());
  EXPECT_TRUE(config.retry_policy().breaker_enabled());

  auto engine = config.BuildEngine();
  EXPECT_EQ(engine->threads(), 2u);
  EXPECT_EQ(engine->options().seed, 0xD5u);

  // A default config reproduces the fail-fast defaults.
  EngineConfig defaults;
  EXPECT_FALSE(defaults.retry_policy().retries_enabled());
  EXPECT_FALSE(defaults.retry_policy().breaker_enabled());
}

/// A module whose failure mode is toggled by the test: the controllable
/// backend the breaker tests drive through trip / half-open / recovery.
class ToggleModule : public Module {
 public:
  ToggleModule() : Module(MakeSpec()) {}

  std::atomic<bool> fail{true};

 protected:
  Result<std::vector<Value>> InvokeImpl(
      const std::vector<Value>& inputs) const override {
    if (fail.load(std::memory_order_relaxed)) {
      return Status::Permanent("backend gone");
    }
    return std::vector<Value>{inputs[0]};
  }

 private:
  static ModuleSpec MakeSpec() {
    ModuleSpec spec;
    spec.id = "test.toggle";
    spec.name = "Toggle";
    spec.inputs.push_back(Parameter{.name = "in"});
    spec.outputs.push_back(Parameter{.name = "out"});
    return spec;
  }
};

TEST(CircuitBreakerTest, TripsShortCircuitsAndRecoversThroughHalfOpen) {
  auto module = std::make_shared<ToggleModule>();
  auto engine = EngineConfig()
                    .Threads(1)
                    .MaxAttempts(1)
                    .Breaker(/*threshold=*/2, /*cooldown_ns=*/1'000)
                    .BuildEngine();
  const std::vector<Value> inputs{Value::Str("x")};
  const std::string& id = module->spec().id;

  // Two consecutive permanent failures trip the breaker.
  EXPECT_TRUE(engine->Invoke(*module, inputs).status().IsPermanent());
  EXPECT_EQ(engine->BreakerOf(id).stage, BreakerStage::kClosed);
  EXPECT_TRUE(engine->Invoke(*module, inputs).status().IsPermanent());
  BreakerView tripped = engine->BreakerOf(id);
  EXPECT_EQ(tripped.stage, BreakerStage::kOpen);
  EXPECT_EQ(tripped.trips, 1u);
  EXPECT_EQ(tripped.consecutive_permanent_failures, 2);

  // Open: invocations short-circuit with kDecayed, the module is not hit.
  auto denied = engine->Invoke(*module, inputs);
  EXPECT_TRUE(denied.status().IsDecayed()) << denied.status();
  EXPECT_NE(denied.status().message().find("circuit breaker"),
            std::string::npos);
  EXPECT_EQ(engine->metrics().Snapshot().breaker_short_circuits, 1u);
  EXPECT_EQ(engine->metrics().Snapshot().breaker_trips, 1u);

  // Cooldown elapses on the virtual clock: half-open admits a probe.
  engine->clock().Advance(1'000);
  EXPECT_EQ(engine->BreakerOf(id).stage, BreakerStage::kHalfOpen);

  // Failed probe re-arms the cooldown; the breaker is open again.
  EXPECT_TRUE(engine->Invoke(*module, inputs).status().IsPermanent());
  EXPECT_EQ(engine->BreakerOf(id).stage, BreakerStage::kOpen);

  // Next probe succeeds: the breaker closes and traffic flows again.
  engine->clock().Advance(1'000);
  EXPECT_EQ(engine->BreakerOf(id).stage, BreakerStage::kHalfOpen);
  module->fail.store(false, std::memory_order_relaxed);
  auto recovered = engine->Invoke(*module, inputs);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(engine->BreakerOf(id).stage, BreakerStage::kClosed);
  EXPECT_TRUE(engine->Invoke(*module, inputs).ok());
}

TEST(CircuitBreakerTest, BatchAdmissionIsAtomic) {
  auto module = std::make_shared<ToggleModule>();
  auto engine = EngineConfig()
                    .Threads(4)
                    .Breaker(/*threshold=*/1, /*cooldown_ns=*/1'000'000)
                    .BuildEngine();
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < 16; ++i) batch.push_back({Value::Str("x")});

  // First batch is admitted wholesale: every slot carries the module's own
  // failure, not a short-circuit, even though the fold trips the breaker.
  auto results = engine->InvokeBatch(*module, batch);
  for (const auto& result : results) {
    EXPECT_TRUE(result.status().IsPermanent()) << result.status();
  }
  EXPECT_EQ(engine->BreakerOf(module->spec().id).stage, BreakerStage::kOpen);

  // Second batch short-circuits wholesale.
  auto denied = engine->InvokeBatch(*module, batch);
  for (const auto& result : denied) {
    EXPECT_TRUE(result.status().IsDecayed()) << result.status();
  }
  EXPECT_EQ(engine->metrics().Snapshot().breaker_short_circuits,
            batch.size());
}

TEST(FaultInjectorTest, DrawsAreDeterministicPerInputAndAttempt) {
  auto module = std::make_shared<ToggleModule>();
  module->fail.store(false, std::memory_order_relaxed);
  FaultProfile profile;
  profile.seed = 77;
  profile.transient_rate = 0.5;
  FaultInjector injector(module, profile);

  const std::vector<Value> inputs{Value::Str("abc")};
  for (int attempt = 0; attempt < 8; ++attempt) {
    InvocationContext first;
    first.attempt = attempt;
    InvocationContext second;
    second.attempt = attempt;
    auto a = injector.Invoke(inputs, first);
    auto b = injector.Invoke(inputs, second);
    EXPECT_EQ(a.ok(), b.ok()) << "attempt " << attempt;
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code());
      EXPECT_TRUE(a.status().IsRetryable());
    }
  }
  // At rate 0.5 over 8 attempts, both fates must occur (p ~ 2^-7 each).
  EXPECT_GT(injector.faults_injected(), 0u);
  EXPECT_LT(injector.faults_injected(), injector.invocations());
}

TEST(FaultInjectorTest, FlakyWarmupIsOutlastedByEnoughAttempts) {
  auto module = std::make_shared<ToggleModule>();
  module->fail.store(false, std::memory_order_relaxed);
  FaultProfile profile;
  profile.flaky_first_attempts = 2;
  const std::vector<Value> inputs{Value::Str("x")};

  auto patient_engine = EngineConfig().Threads(1).MaxAttempts(4).BuildEngine();
  auto patient = std::make_shared<FaultInjector>(module, profile);
  EXPECT_TRUE(patient_engine->Invoke(*patient, inputs).ok());
  EXPECT_GT(patient_engine->metrics().Snapshot().retries, 0u);

  auto hasty_engine = EngineConfig().Threads(1).MaxAttempts(2).BuildEngine();
  auto hasty = std::make_shared<FaultInjector>(module, profile);
  auto failed = hasty_engine->Invoke(*hasty, inputs);
  EXPECT_TRUE(failed.status().IsTransient()) << failed.status();
}

TEST(DeadlineBudgetTest, InjectedLatencyExhaustsTheBudget) {
  auto module = std::make_shared<ToggleModule>();
  module->fail.store(false, std::memory_order_relaxed);
  FaultProfile profile;
  profile.latency_ns = 10'000'000;  // 10 virtual ms per attempt.
  auto injector = std::make_shared<FaultInjector>(module, profile);

  auto engine =
      EngineConfig().Threads(1).DeadlineNanos(5'000'000).BuildEngine();
  const uint64_t clock_before = engine->clock().Now();
  auto result = engine->Invoke(*injector, {Value::Str("x")});
  EXPECT_TRUE(result.status().IsTimeout()) << result.status();
  EXPECT_EQ(engine->metrics().Snapshot().deadline_exhaustions, 1u);
  // The charged latency advanced the virtual clock, never the wall clock.
  EXPECT_EQ(engine->clock().Now() - clock_before, 10'000'000u);

  // A roomier budget admits the same invocation.
  auto roomy =
      EngineConfig().Threads(1).DeadlineNanos(20'000'000).BuildEngine();
  EXPECT_TRUE(roomy->Invoke(*injector, {Value::Str("x")}).ok());
}

/// Full-set equality including partition bookkeeping.
bool IdenticalSets(const DataExampleSet& a, const DataExampleSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
    if (a[i].input_partitions != b[i].input_partitions) return false;
  }
  return true;
}

TEST(FaultToleranceTest, RetriesRecoverAnnotationsUnderTransientFaults) {
  const auto& env = testing_env::GetEnvironment();

  FaultProfile profile;
  profile.seed = 0xFA17;
  profile.transient_rate = 0.2;

  // The acceptance bar: at a 20% per-attempt transient rate with 4
  // attempts, P(losing a combination) = 0.2^4 = 0.16%, so >= 95% of the
  // fault-free examples must survive — and the surviving set must be
  // byte-identical between threads=1 and threads=8.
  EngineConfig config = EngineConfig().Seed(0x5eed).MaxAttempts(4);
  auto serial_engine = config.Threads(1).BuildEngine();
  auto pooled_engine = config.Threads(8).BuildEngine();

  auto serial_wrapped = WrapRegistryWithFaults(*env.corpus.registry, profile,
                                               &serial_engine->metrics());
  ASSERT_TRUE(serial_wrapped.ok()) << serial_wrapped.status();
  auto pooled_wrapped = WrapRegistryWithFaults(*env.corpus.registry, profile,
                                               &pooled_engine->metrics());
  ASSERT_TRUE(pooled_wrapped.ok()) << pooled_wrapped.status();

  ExampleGenerator serial_generator = config.MakeGenerator(
      env.cache, env.pool.get(), serial_engine.get());
  ExampleGenerator pooled_generator = config.MakeGenerator(
      env.cache, env.pool.get(), pooled_engine.get());

  auto serial_report = AnnotateRegistry(serial_generator, **serial_wrapped);
  ASSERT_TRUE(serial_report.ok()) << serial_report.status();
  ASSERT_TRUE(serial_report->complete()) << serial_report->run_status;
  auto pooled_report = AnnotateRegistry(pooled_generator, **pooled_wrapped);
  ASSERT_TRUE(pooled_report.ok()) << pooled_report.status();
  ASSERT_TRUE(pooled_report->complete()) << pooled_report->run_status;

  // Identical runs at any thread count, faults and all.
  EXPECT_EQ(serial_report->annotated, pooled_report->annotated);
  EXPECT_EQ(serial_report->decayed, pooled_report->decayed);
  EXPECT_EQ(serial_report->examples, pooled_report->examples);
  EXPECT_EQ(serial_report->transient_exhausted,
            pooled_report->transient_exhausted);
  EXPECT_EQ(serial_report->decayed_ids, pooled_report->decayed_ids);

  size_t baseline_examples = 0;
  size_t recovered_examples = 0;
  for (const ModulePtr& module : env.corpus.registry->AvailableModules()) {
    const std::string& id = module->spec().id;
    baseline_examples += env.corpus.registry->DataExamplesOf(id).size();
    recovered_examples += (*serial_wrapped)->DataExamplesOf(id).size();
    EXPECT_TRUE(IdenticalSets((*serial_wrapped)->DataExamplesOf(id),
                              (*pooled_wrapped)->DataExamplesOf(id)))
        << "module " << id << " diverged between threads=1 and threads=8";
  }
  ASSERT_GT(baseline_examples, 0u);
  EXPECT_LE(recovered_examples, baseline_examples);
  EXPECT_GE(static_cast<double>(recovered_examples),
            0.95 * static_cast<double>(baseline_examples))
      << recovered_examples << " of " << baseline_examples
      << " examples recovered";

  // The faults actually fired, and the retries actually happened.
  EXPECT_GT(serial_engine->metrics().Snapshot().injected_faults, 0u);
  EXPECT_GT(serial_engine->metrics().Snapshot().retries, 0u);
  EXPECT_EQ(serial_report->decayed, 0u);
}

/// Wraps every module of the environment registry in a pass-through
/// injector, with `down_id` wired to fail permanently.
std::unique_ptr<ModuleRegistry> WrapWithOneModuleDown(
    const ModuleRegistry& registry, const std::string& down_id) {
  auto wrapped = std::make_unique<ModuleRegistry>();
  for (const ModulePtr& module : registry.AllModules()) {
    FaultProfile profile;
    profile.down = module->spec().id == down_id;
    auto injector = std::make_shared<FaultInjector>(module, profile);
    if (!module->available()) injector->Retire();
    EXPECT_TRUE(wrapped->Register(std::move(injector)).ok());
  }
  return wrapped;
}

TEST(FaultToleranceTest, AnnotateRegistryReportsPartialResults) {
  const auto& env = testing_env::GetEnvironment();
  const std::string down_id = env.corpus.available_ids.front();
  auto wrapped = WrapWithOneModuleDown(*env.corpus.registry, down_id);

  ExampleGenerator generator(env.cache, env.pool.get());
  auto report = AnnotateRegistry(generator, *wrapped);
  ASSERT_TRUE(report.ok()) << report.status();

  // The run survived the decayed module and annotated everything else.
  EXPECT_EQ(report->decayed, 1u);
  ASSERT_EQ(report->decayed_ids.size(), 1u);
  EXPECT_EQ(report->decayed_ids.front(), down_id);
  EXPECT_EQ(report->annotated + report->decayed,
            wrapped->AvailableModules().size());
  EXPECT_GT(report->examples, 0u);
  EXPECT_TRUE(wrapped->DataExamplesOf(down_id).empty());
}

TEST(FaultToleranceTest, EnactSkipsDecayedSteps) {
  const auto& env = testing_env::GetEnvironment();

  // Pick a module that actually appears in a workflow and is still
  // available, then take it down.
  std::string down_id;
  const GeneratedWorkflow* victim = nullptr;
  for (const GeneratedWorkflow& item : env.workflows.items) {
    for (const Processor& processor : item.workflow.processors) {
      ModulePtr module = *env.corpus.registry->Find(processor.module_id);
      if (module->available()) {
        down_id = processor.module_id;
        victim = &item;
        break;
      }
    }
    if (victim != nullptr) break;
  }
  ASSERT_NE(victim, nullptr);

  auto wrapped = WrapWithOneModuleDown(*env.corpus.registry, down_id);
  InvocationEngine engine(EngineOptions{.threads = 1});

  // The enactor degrades: the decayed step (and its dependents) are
  // skipped, everything else runs, and the module is reported.
  auto result = Enact(victim->workflow, *wrapped, victim->seeds, engine);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->complete());
  ASSERT_EQ(result->decayed_modules.size(), 1u);
  EXPECT_EQ(result->decayed_modules.front(), down_id);
  EXPECT_FALSE(result->skipped_processors.empty());
  EXPECT_EQ(result->outputs.size(), victim->workflow.outputs.size());
  for (const InvocationRecord& record : result->invocations) {
    EXPECT_NE(record.module_id, down_id);
  }
}

TEST(FaultToleranceTest, EnactRunsHealthyWorkflowsWhole) {
  const auto& env = testing_env::GetEnvironment();
  InvocationEngine engine(EngineOptions{.threads = 1});

  size_t enacted = 0;
  for (const GeneratedWorkflow& item : env.workflows.items) {
    if (!UnavailableModules(item.workflow, *env.corpus.registry).empty()) {
      continue;
    }
    auto result =
        Enact(item.workflow, *env.corpus.registry, item.seeds, engine);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->complete()) << item.workflow.id;
    EXPECT_EQ(result->missing_outputs, 0u);
    EXPECT_EQ(result->outputs.size(), item.workflow.outputs.size());
    // One invocation per processor: nothing skipped, nothing repeated.
    EXPECT_EQ(result->invocations.size(), item.workflow.processors.size());
    ++enacted;
  }
  EXPECT_GT(enacted, 0u);
}

TEST(FaultToleranceTest, ScanForDecayRetiresDynamicallyDecayedModules) {
  const auto& env = testing_env::GetEnvironment();

  // Take down one module that appears in the workflow corpus.
  std::string down_id;
  for (const GeneratedWorkflow& item : env.workflows.items) {
    for (const Processor& processor : item.workflow.processors) {
      ModulePtr module = *env.corpus.registry->Find(processor.module_id);
      if (module->available()) {
        down_id = processor.module_id;
        break;
      }
    }
    if (!down_id.empty()) break;
  }
  ASSERT_FALSE(down_id.empty());

  auto wrapped = WrapWithOneModuleDown(*env.corpus.registry, down_id);
  InvocationEngine engine(EngineOptions{.threads = 1});
  ASSERT_TRUE((*wrapped->Find(down_id))->available());

  auto report =
      ScanForDecay(*wrapped, env.workflows, engine, wrapped.get());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->workflows_enacted, env.workflows.items.size());
  EXPECT_GT(report->workflows_degraded, 0u);

  // The scan saw the down module and retired it in place.
  bool found = false;
  for (const std::string& id : report->decayed_ids) {
    if (id == down_id) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GE(report->newly_retired, 1u);
  EXPECT_FALSE((*wrapped->Find(down_id))->available());

  // A second scan finds it already retired: decay is reported (the probes
  // still fail) but nothing new is retired.
  auto again = ScanForDecay(*wrapped, env.workflows, engine, wrapped.get());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->newly_retired, 0u);
}

}  // namespace
}  // namespace dexa
