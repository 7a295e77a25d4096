// Fault-tolerant annotation: the curator-side pipeline running against
// unreliable module backends. Wraps the corpus registry in deterministic
// fault injectors, annotates it through an engine with retries, a deadline
// budget and a circuit breaker, and shows how the run degrades gracefully —
// partial annotations, decayed modules reported for repair — instead of
// aborting on the first fault.

#include <cstdio>
#include <iostream>
#include <memory>

#include "common/table.h"
#include "core/engine_config.h"
#include "core/example_generator.h"
#include "corpus/fault_injector.h"
#include "durability/evaluation_env.h"
#include "engine/invocation_engine.h"
#include "repair/repair.h"
#include "workflow/enactor.h"

int main() {
  using namespace dexa;

  auto env = BuildEvaluationEnv();
  if (!env.ok()) {
    std::cerr << env.status() << "\n";
    return 1;
  }
  const Corpus& corpus = env->corpus;

  // One fluent configuration for the whole pipeline: an 8-thread engine
  // that retries transient faults up to 4 times with jittered exponential
  // backoff (on the virtual clock — no wall time is ever slept), gives each
  // invocation a 1-virtual-second budget, and trips a module's circuit
  // breaker after 5 consecutive permanent failures.
  EngineConfig config = EngineConfig()
                            .Threads(8)
                            .MaxAttempts(4)
                            .Backoff(1'000'000, 2.0, 64'000'000)
                            .DeadlineNanos(1'000'000'000)
                            .Breaker(5);
  auto engine = config.BuildEngine();

  // Every module misbehaves: 20% of attempts fail transiently, and one
  // module's backend is permanently gone.
  FaultProfile profile;
  profile.seed = 0xFA17;
  profile.transient_rate = 0.2;
  profile.latency_ns = 1'000'000;
  auto wrapped = WrapRegistryWithFaults(*corpus.registry, profile,
                                        &engine->metrics());
  if (!wrapped.ok()) {
    std::cerr << wrapped.status() << "\n";
    return 1;
  }

  ExampleGenerator generator =
      config.MakeGenerator(env->cache, env->pool.get(), engine.get());
  auto report = AnnotateRegistry(generator, **wrapped);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }

  // The report carries its own final metrics snapshot — filled even when a
  // run aborts partway, so an aborted run's partial work is still
  // accounted for.
  const EngineMetricsSnapshot& metrics = report->metrics;
  if (!report->complete()) {
    std::cerr << "annotation aborted: " << report->run_status << "\n";
  }
  TablePrinter table({"metric", "value"});
  table.AddRow({"modules annotated", std::to_string(report->annotated)});
  table.AddRow({"modules decayed", std::to_string(report->decayed)});
  table.AddRow({"data examples", std::to_string(report->examples)});
  table.AddRow({"combinations lost to faults",
                std::to_string(report->transient_exhausted)});
  table.AddRow({"faults injected", std::to_string(metrics.injected_faults)});
  table.AddRow({"retries", std::to_string(metrics.retries)});
  table.AddRow({"virtual time spent (ms)",
                std::to_string(engine->clock().Now() / 1'000'000)});
  table.Print(std::cout, "Annotation under a 20% transient fault rate:");

  // Dynamic decay: probe the workflow corpus through a wrapper whose first
  // module is permanently down, retire what the scan finds, and hand the
  // decayed modules to the repair pipeline.
  auto probe = std::make_unique<ModuleRegistry>();
  bool first = true;
  for (const ModulePtr& module : corpus.registry->AllModules()) {
    FaultProfile probe_profile;
    probe_profile.down = first && module->available();
    if (probe_profile.down) first = false;
    auto injector = std::make_shared<FaultInjector>(module, probe_profile);
    if (!module->available()) injector->Retire();
    if (auto registered = probe->Register(std::move(injector));
        !registered.ok()) {
      std::cerr << registered << "\n";
      return 1;
    }
  }

  auto scan = ScanForDecay(*probe, env->workflows, *engine, probe.get());
  if (!scan.ok()) {
    std::cerr << scan.status() << "\n";
    return 1;
  }
  std::printf("\nDecay scan: %zu workflows enacted, %zu degraded\n",
              scan->workflows_enacted, scan->workflows_degraded);
  std::printf("Dynamically decayed modules retired for repair: %zu\n",
              scan->newly_retired);
  for (const std::string& id : scan->decayed_ids) {
    std::printf("  repair candidate: %s\n", id.c_str());
  }
  return 0;
}
