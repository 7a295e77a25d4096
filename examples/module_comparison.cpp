// Module comparison (Section 6 of the paper): compare the behavior of
// modules through data examples generated over identical input values, and
// demonstrate the Figure 7 case where a more general module substitutes a
// more specific one.

#include <iostream>

#include "core/matcher.h"
#include "durability/evaluation_env.h"

int main() {
  using namespace dexa;

  auto env = BuildEvaluationEnv();
  if (!env.ok()) {
    std::cerr << env.status() << "\n";
    return 1;
  }
  const Corpus& corpus = env->corpus;
  ExampleGenerator generator(env->cache, env->pool.get());
  ModuleMatcher matcher(env->cache, &generator);

  auto compare = [&](const char* left, const char* right) {
    auto a = corpus.registry->FindByName(left);
    auto b = corpus.registry->FindByName(right);
    if (!a.ok() || !b.ok()) {
      std::cerr << "lookup failed\n";
      return;
    }
    auto result = matcher.Compare(**a, **b);
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return;
    }
    std::cout << left << "  vs  " << right << "\n    -> "
              << BehaviorRelationName(result->relation) << " ("
              << result->examples_agreeing << "/" << result->examples_compared
              << " aligned examples agree"
              << (result->mapping.contextual ? ", contextual mapping" : "")
              << ")\n";
  };

  std::cout << "-- Equivalent behavior: two providers of the same service\n";
  compare("EBI_GetUniprotRecord", "DDBJ_GetUniprotRecord");

  std::cout << "\n-- Disjoint behavior: same signature, different function\n";
  compare("EBI_ComputeGcContent", "EBI_ComputeAtContent");

  std::cout << "\n-- Figure 7: a retired module matched by a more general "
               "available one\n";
  compare("GetGeneSequence", "EBI_GetBiologicalSequence");

  std::cout << "\n-- Incomparable: no 1-to-1 parameter mapping exists\n";
  compare("EBI_GetUniprotRecord", "Identify");
  return 0;
}
