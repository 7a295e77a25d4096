// Discovery and composition: the designer-side use cases beyond the paper's
// evaluation. Finds modules by desired behavior (signature + an example of
// what they should do) and assembles validated multi-step pipelines from a
// source concept to a target concept (Section 8's future-work item,
// implemented).

#include <iostream>

#include "core/composition.h"
#include "core/discovery.h"
#include "durability/evaluation_env.h"

int main() {
  using namespace dexa;

  auto env = BuildEvaluationEnv();
  if (!env.ok()) {
    std::cerr << env.status() << "\n";
    return 1;
  }
  const Corpus& corpus = env->corpus;
  const Ontology& onto = *corpus.ontology;

  // --- Discovery: "something that turns a Uniprot accession into the
  // protein sequence" with a concrete behavior example.
  BehaviorDiscovery discovery(env->cache, corpus.registry.get());
  DiscoveryQuery query;
  query.input_concept = onto.Find("UniprotAccession");
  query.output_concept = onto.Find("ProteinSequence");
  const ProteinEntity& protein = corpus.kb->proteins()[0];
  DataExample example;
  example.inputs = {Value::Str(protein.accession)};
  example.outputs = {Value::Str(protein.sequence)};
  query.example = example;

  std::cout << "-- Discovery: UniprotAccession -> ProteinSequence, with an "
               "example --\n";
  for (const DiscoveryHit& hit : discovery.Search(query, 5)) {
    std::printf("  %5.2f  %-30s %s\n", hit.score, hit.module_name.c_str(),
                hit.why.c_str());
  }

  // --- Composition: assemble the paper's Figure 1 tail automatically.
  ExampleGuidedComposer composer(env->cache, corpus.registry.get(),
                                 env->pool.get());
  CompositionRequest request;
  request.source_concept = onto.Find("UniprotAccession");
  request.target_concept = onto.Find("AlignmentReport");
  request.max_depth = 2;
  request.max_results = 3;

  std::cout << "\n-- Composition: UniprotAccession -> AlignmentReport "
               "(validated chains) --\n";
  auto candidates = composer.Compose(request);
  if (!candidates.ok()) {
    std::cerr << candidates.status() << "\n";
    return 1;
  }
  for (const CompositionCandidate& candidate : *candidates) {
    std::cout << "  chain:";
    for (const std::string& module_id : candidate.module_ids) {
      std::cout << " -> "
                << (*corpus.registry->Find(module_id))->spec().name;
    }
    std::cout << "\n    witness: " << candidate.witness_input.ToString()
              << " yields a "
              << candidate.witness_output.AsString().substr(
                     0, candidate.witness_output.AsString().find('\n'))
              << "... report\n";
  }

  // --- A longer composition: DNA to peptide masses (translate + digest).
  request.source_concept = onto.Find("DNASequence");
  request.target_concept = onto.Find("PeptideMassList");
  request.target_type = StructuralType::List(StructuralType::Double());
  request.max_depth = 3;
  std::cout << "\n-- Composition: DNASequence -> PeptideMassList --\n";
  candidates = composer.Compose(request);
  if (!candidates.ok()) {
    std::cerr << candidates.status() << "\n";
    return 1;
  }
  for (const CompositionCandidate& candidate : *candidates) {
    std::cout << "  chain:";
    for (const std::string& module_id : candidate.module_ids) {
      std::cout << " -> "
                << (*corpus.registry->Find(module_id))->spec().name;
    }
    std::cout << "\n";
  }
  return 0;
}
