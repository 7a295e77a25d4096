#ifndef DEXA_TESTS_TEST_UTIL_H_
#define DEXA_TESTS_TEST_UTIL_H_

// Shared fixtures for the dexa test suites. The full evaluation pipeline
// (BuildEvaluationEnv, then annotations) is expensive to rebuild per test,
// so suites share one lazily-built environment.

#include <cstdint>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "core/example_generator.h"
#include "durability/evaluation_env.h"
#include "kb/knowledge_base.h"
#include "kbimage/builder.h"
#include "kbimage/compiled_kb.h"
#include "ontology/mygrid.h"

namespace dexa {
namespace testing_env {

/// Builds (once) and returns the shared environment: BuildEvaluationEnv at
/// the corpus defaults, data examples generated into the registry, decayed
/// modules retired.
inline const EvaluationEnv& GetEnvironment() {
  static EvaluationEnv* env = [] {
    auto built = BuildEvaluationEnv();
    if (!built.ok()) {
      ADD_FAILURE() << "BuildEvaluationEnv: " << built.status();
      std::abort();
    }
    auto* out = new EvaluationEnv(std::move(built).value());

    ExampleGenerator generator(out->cache, out->pool.get());
    auto annotated = AnnotateRegistry(generator, *out->corpus.registry);
    if (!annotated.ok()) {
      ADD_FAILURE() << "AnnotateRegistry: " << annotated.status();
      std::abort();
    }
    if (!annotated->complete()) {
      ADD_FAILURE() << "AnnotateRegistry aborted: " << annotated->run_status;
      std::abort();
    }

    Status retired = RetireDecayedModules(out->corpus);
    if (!retired.ok()) {
      ADD_FAILURE() << "RetireDecayedModules: " << retired;
      std::abort();
    }
    return out;
  }();
  return *env;
}

/// Writes a KB image of the corpus defaults to `path`, as `dexa compile-kb`
/// does, and returns the seal it loads back with (0 on failure).
inline uint64_t WriteCorpusKbImage(const std::string& path) {
  const CorpusOptions defaults;
  Status written = kbimage::WriteKbImage(
      BuildMyGridOntology(), KnowledgeBase(defaults.seed), path);
  EXPECT_TRUE(written.ok()) << written;
  auto image = kbimage::CompiledKb::Load(path);
  EXPECT_TRUE(image.ok()) << image.status();
  return image.ok() ? (*image)->checksum() : 0;
}

}  // namespace testing_env
}  // namespace dexa

#endif  // DEXA_TESTS_TEST_UTIL_H_
