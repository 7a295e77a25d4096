// Workflow repair (Section 6): the decayed-workflow curation exercise.
// Builds the corpus, enacts the workflow corpus to collect provenance,
// retires the 72 decayed modules, matches them against the available
// corpus, and repairs the broken workflows.

#include <cstdio>
#include <iostream>

#include "durability/evaluation_env.h"
#include "repair/repair.h"

int main() {
  using namespace dexa;

  auto env = BuildEvaluationEnv();
  if (!env.ok()) {
    std::cerr << env.status() << "\n";
    return 1;
  }
  Corpus& corpus = env->corpus;
  std::cout << "Workflow corpus: " << env->workflows.items.size()
            << " workflows enacted, " << env->provenance.num_invocations()
            << " provenance records collected\n";

  // Providers withdraw their modules; half the corpus decays.
  if (Status status = RetireDecayedModules(corpus); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }

  auto matching = MatchRetiredModules(corpus, env->provenance, env->cache);
  if (!matching.ok()) {
    std::cerr << matching.status() << "\n";
    return 1;
  }
  std::printf(
      "\nMatching the %zu unavailable modules against the available corpus:\n"
      "  equivalent substitute found : %zu\n"
      "  overlapping substitute found: %zu\n"
      "  no suitable substitute      : %zu\n",
      matching->retired_total, matching->with_equivalent,
      matching->with_overlapping, matching->with_none);

  // Show one concrete substitution.
  auto retired = corpus.registry->FindByName("soap_get_genes_by_pathway");
  if (retired.ok()) {
    const auto& best = matching->best.at((*retired)->spec().id);
    auto candidate = corpus.registry->Find(best.candidate_id);
    std::cout << "\nExample: retired 'soap_get_genes_by_pathway' is "
              << BehaviorRelationName(best.relation) << " to '"
              << (*candidate)->spec().name << "' (" << best.examples_agreeing
              << "/" << best.examples_compared << " examples agree)\n";
  }

  auto outcome =
      RepairWorkflows(corpus, env->workflows, env->provenance, *matching);
  if (!outcome.ok()) {
    std::cerr << outcome.status() << "\n";
    return 1;
  }
  std::printf(
      "\nRepairing the decayed corpus:\n"
      "  broken workflows            : %zu of %zu\n"
      "  repaired (total)            : %zu\n"
      "    via equivalent substitutes: %zu\n"
      "    via overlapping (in-context validated): %zu\n"
      "  fully repaired              : %zu\n"
      "  partly repaired             : %zu\n",
      outcome->broken_workflows, outcome->total_workflows,
      outcome->repaired_total, outcome->repaired_via_equivalent,
      outcome->repaired_via_overlapping, outcome->repaired_fully,
      outcome->repaired_partly);
  return 0;
}
