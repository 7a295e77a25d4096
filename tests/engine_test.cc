// Tests for the invocation-engine layer: pool scheduling, the determinism
// contract (any thread count yields an identical example set), and the
// concept cache's agreement with the ontology's own DFS.

#include <atomic>
#include <chrono>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/example_generator.h"
#include "engine/concept_cache.h"
#include "engine/invocation_engine.h"
#include "engine/metrics.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

// At four threads the batch sizes straddle one-index claims (fewer than
// 4 x 64 indices), the first two-index claims and a last claim cut short;
// 100,003 indices claim 390 or 195 at a time at four or eight threads.
TEST(InvocationEngineTest, ForEachRunsEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    InvocationEngine engine(EngineOptions{.threads = threads});
    for (size_t tasks : {1u, 2u, 511u, 512u, 513u, 1'000u, 100'003u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " tasks=" + std::to_string(tasks));
      std::vector<std::atomic<int>> runs(tasks);
      engine.ForEach(tasks, [&](size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
      });
      size_t wrong = 0;
      for (size_t i = 0; i < tasks; ++i) {
        if (runs[i].load() != 1) ++wrong;
      }
      EXPECT_EQ(wrong, 0u);
    }
  }
}

TEST(InvocationEngineTest, NestedForEachRunsInsideAChunkedBatch) {
  InvocationEngine engine(EngineOptions{.threads = 4});
  // Eight outer indices per claim.
  constexpr size_t kOuter = 4 * InvocationEngine::kClaimsPerThread * 8;
  constexpr size_t kInner = 5;
  const uint64_t batches_before = engine.metrics().Snapshot().batches;
  std::vector<std::atomic<int>> runs(kOuter * kInner);
  engine.ForEach(kOuter, [&](size_t outer) {
    engine.ForEach(kInner, [&](size_t inner) {
      runs[outer * kInner + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  size_t wrong = 0;
  for (const std::atomic<int>& count : runs) {
    if (count.load() != 1) ++wrong;
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(engine.metrics().Snapshot().batches - batches_before,
            1u + kOuter);
}

TEST(InvocationEngineTest, NestedForEachDoesNotDeadlock) {
  InvocationEngine engine(EngineOptions{.threads = 4});
  std::atomic<size_t> total{0};
  engine.ForEach(8, [&](size_t) {
    engine.ForEach(8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64u);
}

/// Spins until `engine` reports a worker waiting for a batch.
void WaitForIdleWorker(const InvocationEngine& engine) {
  while (engine.idle_workers() == 0) std::this_thread::yield();
}

TEST(InvocationEngineTest, NestedForEachRunsInlineOnASaturatedPool) {
  InvocationEngine engine(EngineOptions{.threads = 4});
  const std::thread::id main_thread = std::this_thread::get_id();
  const uint64_t batches_before = engine.metrics().Snapshot().batches;
  std::latch claimed(4);
  std::latch issued(4);
  std::atomic<bool> leaver_taken{false};
  std::atomic<size_t> foreign{0};
  engine.ForEach(4, [&](size_t) {
    // All four claimants (three workers and the caller) hold an outer
    // index, so no worker is idle when the inner batches are issued.
    claimed.arrive_and_wait();
    const std::thread::id caller = std::this_thread::get_id();
    // One worker finishes and goes idle while the other inner batches
    // still have indices left, which a queued batch would hand it.
    const bool leaver = caller != main_thread && !leaver_taken.exchange(true);
    engine.ForEach(16, [&](size_t i) {
      if (std::this_thread::get_id() != caller) {
        foreign.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (i == 0) issued.arrive_and_wait();
      if (i == 1 && !leaver) WaitForIdleWorker(engine);
    });
  });
  EXPECT_EQ(foreign.load(), 0u);
  EXPECT_EQ(engine.metrics().Snapshot().batches - batches_before, 1u + 4u);
}

TEST(InvocationEngineTest, NestedForEachReachesAnIdleWorker) {
  InvocationEngine engine(EngineOptions{.threads = 3});
  std::latch claimed(3);
  std::atomic<size_t> foreign{0};
  engine.ForEach(3, [&](size_t outer) {
    // Every claimant has taken its outer index, so the two that return
    // at once include a worker with nothing left to take: it blocks idle
    // until the inner batch below arrives. Wait until the engine reports it.
    claimed.arrive_and_wait();
    if (outer != 0) return;
    WaitForIdleWorker(engine);
    const std::thread::id caller = std::this_thread::get_id();
    engine.ForEach(2, [&](size_t) {
      if (std::this_thread::get_id() != caller) {
        foreign.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Hold the caller's index until another thread has taken one, with
      // a bound so an inline run fails the test instead of hanging it.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (foreign.load() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  });
  EXPECT_GT(foreign.load(), 0u);
}

TEST(InvocationEngineTest, RngStreamsAreStablePerTask) {
  InvocationEngine a(EngineOptions{.threads = 1, .seed = 99});
  InvocationEngine b(EngineOptions{.threads = 8, .seed = 99});
  for (uint64_t task = 0; task < 16; ++task) {
    EXPECT_EQ(a.RngFor(task).Next(), b.RngFor(task).Next());
  }
  EXPECT_NE(a.RngFor(0).Next(), a.RngFor(1).Next());
}

TEST(InvocationEngineTest, InvokeBatchPreservesInputOrder) {
  const auto& env = testing_env::GetEnvironment();
  InvocationEngine engine(EngineOptions{.threads = 8});
  ModulePtr module = *env.corpus.registry->FindByName("NormalizeAccession");

  const DataExampleSet& examples =
      env.corpus.registry->DataExamplesOf(module->spec().id);
  ASSERT_FALSE(examples.empty());
  std::vector<std::vector<Value>> inputs;
  for (const DataExample& example : examples) inputs.push_back(example.inputs);

  auto results = engine.InvokeBatch(*module, inputs, EnginePhase::kOther);
  ASSERT_EQ(results.size(), inputs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    auto direct = module->Invoke(inputs[i]);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(results[i]->size(), direct->size());
    for (size_t v = 0; v < direct->size(); ++v) {
      EXPECT_TRUE((*results[i])[v].Equals((*direct)[v]));
    }
  }
  EXPECT_GE(engine.metrics().Snapshot().invocations, inputs.size());
}

/// Full-set equality including the generator's partition bookkeeping
/// (DataExample::operator== only compares values).
bool IdenticalSets(const DataExampleSet& a, const DataExampleSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
    if (a[i].input_partitions != b[i].input_partitions) return false;
  }
  return true;
}

TEST(InvocationEngineTest, GenerationIsDeterministicAcrossThreadCounts) {
  const auto& env = testing_env::GetEnvironment();
  InvocationEngine serial(EngineOptions{.threads = 1});
  InvocationEngine pooled(EngineOptions{.threads = 8});
  ExampleGenerator serial_generator(env.cache, env.pool.get(),
                                    GeneratorOptions{}, &serial);
  ExampleGenerator pooled_generator(env.cache, env.pool.get(),
                                    GeneratorOptions{}, &pooled);

  size_t modules_checked = 0;
  size_t examples_checked = 0;
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    auto serial_outcome = serial_generator.Generate(*module);
    auto pooled_outcome = pooled_generator.Generate(*module);
    ASSERT_TRUE(serial_outcome.ok()) << id << ": " << serial_outcome.status();
    ASSERT_TRUE(pooled_outcome.ok()) << id << ": " << pooled_outcome.status();
    EXPECT_TRUE(
        IdenticalSets(serial_outcome->examples, pooled_outcome->examples))
        << "module " << id << " diverged between threads=1 and threads=8";
    EXPECT_EQ(serial_outcome->stats.combinations_tried,
              pooled_outcome->stats.combinations_tried);
    EXPECT_EQ(serial_outcome->stats.combinations_skipped,
              pooled_outcome->stats.combinations_skipped);
    EXPECT_EQ(serial_outcome->stats.invocation_errors,
              pooled_outcome->stats.invocation_errors);
    ++modules_checked;
    examples_checked += serial_outcome->examples.size();
  }
  EXPECT_EQ(modules_checked, env.corpus.available_ids.size());
  EXPECT_GT(examples_checked, 0u);
}

TEST(InvocationEngineTest, GeneratorRecordsSkippedCombinations) {
  const auto& env = testing_env::GetEnvironment();
  GeneratorOptions capped;
  capped.max_combinations = 1;
  ExampleGenerator generator(env.cache, env.pool.get(), capped);

  // CompareSequences is multi-input, so its cartesian product exceeds a cap
  // of one; everything past the cap must be accounted as skipped, never
  // silently dropped.
  ModulePtr module = *env.corpus.registry->FindByName("CompareSequences");
  auto outcome = generator.Generate(*module);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->stats.combinations_tried, 1u);
  EXPECT_GT(outcome->stats.combinations_skipped, 0u);

  // With the default cap nothing in the corpus is truncated.
  ExampleGenerator uncapped(env.cache, env.pool.get());
  auto full = uncapped.Generate(*module);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->stats.combinations_skipped, 0u);
  EXPECT_EQ(full->stats.combinations_tried,
            outcome->stats.combinations_tried +
                outcome->stats.combinations_skipped);
}

std::vector<ConceptId> Ids(std::span<const ConceptId> ids) {
  return {ids.begin(), ids.end()};
}

TEST(ConceptCacheTest, AgreesWithOntologyOnRandomSample) {
  const auto& env = testing_env::GetEnvironment();
  const Ontology& ontology = *env.corpus.ontology;
  ConceptCache cache(&ontology);
  std::vector<ConceptId> concepts = ontology.AllConcepts();
  ASSERT_FALSE(concepts.empty());

  Rng rng(2026);
  for (int i = 0; i < 500; ++i) {
    ConceptId a = concepts[rng.NextIndex(concepts.size())];
    ConceptId b = concepts[rng.NextIndex(concepts.size())];
    EXPECT_EQ(cache.IsSubsumedBy(a, b), ontology.IsSubsumedBy(a, b));
    EXPECT_EQ(cache.Comparable(a, b), ontology.Comparable(a, b));
    EXPECT_EQ(cache.LeastCommonSubsumer(a, b),
              ontology.LeastCommonSubsumer(a, b));
    EXPECT_EQ(Ids(cache.Descendants(a)), ontology.Descendants(a));
    EXPECT_EQ(Ids(cache.Partitions(a)), ontology.Partitions(a));
  }
}

TEST(ConceptCacheTest, LcsIsSymmetric) {
  const auto& env = testing_env::GetEnvironment();
  const Ontology& ontology = *env.corpus.ontology;
  ConceptCache cache(&ontology);
  std::vector<ConceptId> concepts = ontology.AllConcepts();
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    ConceptId a = concepts[rng.NextIndex(concepts.size())];
    ConceptId b = concepts[rng.NextIndex(concepts.size())];
    EXPECT_EQ(cache.LeastCommonSubsumer(a, b),
              cache.LeastCommonSubsumer(b, a));
  }
}

TEST(ConceptCacheTest, ConcurrentLookupsAgree) {
  const auto& env = testing_env::GetEnvironment();
  const Ontology& ontology = *env.corpus.ontology;
  ConceptCache cache(&ontology);
  std::vector<ConceptId> concepts = ontology.AllConcepts();

  InvocationEngine engine(EngineOptions{.threads = 8});
  std::atomic<size_t> mismatches{0};
  engine.ForEach(256, [&](size_t i) {
    Rng rng = engine.RngFor(i);
    for (int k = 0; k < 50; ++k) {
      ConceptId a = concepts[rng.NextIndex(concepts.size())];
      ConceptId b = concepts[rng.NextIndex(concepts.size())];
      if (cache.IsSubsumedBy(a, b) != ontology.IsSubsumedBy(a, b) ||
          Ids(cache.Descendants(a)) != ontology.Descendants(a)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(EngineMetricsTest, SnapshotAggregatesCounters) {
  EngineMetrics metrics;
  metrics.Add(EngineCounter::invocations, 2);
  metrics.Add(EngineCounter::invocation_errors);
  metrics.Add(EngineCounter::batches);
  metrics.Add(EngineCounter::cache_hits);
  metrics.AddPhaseNanos(EnginePhase::kGenerate, 1000);

  EngineMetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.invocations, 2u);
  EXPECT_EQ(snapshot.invocation_errors, 1u);
  EXPECT_EQ(snapshot.batches, 1u);
  EXPECT_EQ(snapshot.cache_hits, 1u);
  EXPECT_EQ(snapshot.phase_nanos[static_cast<size_t>(EnginePhase::kGenerate)],
            1000u);
}

}  // namespace
}  // namespace dexa
