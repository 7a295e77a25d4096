// The paper's running example, end to end: the Figure 1 protein
// identification workflow and the Figure 6 value-added variant, built with
// the workflow API, enacted against the module corpus, then deliberately
// decayed and repaired (Section 6's story for Figure 6: GetHomologous
// disappeared and had to be replaced).

#include <iostream>

#include "common/strings.h"
#include "durability/evaluation_env.h"
#include "repair/repair.h"
#include "workflow/enactor.h"
#include "workflow/workflow_io.h"

using namespace dexa;

namespace {

/// Figure 1: Identify(peptide masses, error) -> GetRecord -> SearchSimple.
Workflow BuildFigure1(const ModuleRegistry& registry, const Ontology& onto) {
  Workflow wf;
  wf.id = "figure1";
  wf.name = "protein identification (Figure 1)";

  Parameter masses;
  masses.name = "peptide_masses";
  masses.structural_type = StructuralType::List(StructuralType::Double());
  masses.semantic_type = onto.Find("PeptideMassList");
  Parameter error;
  error.name = "error";
  error.structural_type = StructuralType::Double();
  error.semantic_type = onto.Find("ErrorTolerance");
  wf.inputs = {masses, error};

  // Identify produces a report; the corpus has no report->accession module,
  // so (exactly like the paper's workflow) the identification step feeds a
  // record retrieval through the best-match accession. We model the middle
  // step with GetMostSimilarProtein fed from a workflow input in Figure 6;
  // here the chain is Identify alone plus the alignment tail driven off a
  // retrieved record.
  Processor identify;
  identify.name = "Identify";
  identify.module_id = (*registry.FindByName("Identify"))->spec().id;
  identify.input_sources = {{PortSource::kWorkflowInputSource, 0},
                            {PortSource::kWorkflowInputSource, 1}};
  wf.processors = {identify};
  wf.outputs = {{"identification", {0, 0}}};
  return wf;
}

/// Figure 6: Identify -> GetHomologous -> GetGOTerm-ish tail. dexa's
/// corpus expresses the tail as GetHomologous (accession -> homolog
/// accessions); the decayed variant uses the retired v1_GetHomologous.
Workflow BuildFigure6(const ModuleRegistry& registry, const Ontology& onto,
                      bool use_retired) {
  Workflow wf;
  wf.id = use_retired ? "figure6-decayed" : "figure6";
  wf.name = "value-added protein identification (Figure 6)";

  Parameter accession;
  accession.name = "protein";
  accession.semantic_type = onto.Find("UniprotAccession");
  wf.inputs = {accession};

  Processor homologous;
  homologous.name = "GetHomologous";
  homologous.module_id =
      (*registry.FindByName(use_retired ? "v1_GetHomologous"
                                        : "GetHomologous"))
          ->spec()
          .id;
  homologous.input_sources = {{PortSource::kWorkflowInputSource, 0}};
  wf.processors = {homologous};
  wf.outputs = {{"homologs", {0, 0}}};
  return wf;
}

/// Enacts `workflow` on the serial engine; a run that skipped any processor
/// is an error here, since the example needs every output.
Result<EnactmentResult> EnactWhole(const Workflow& workflow,
                                   const ModuleRegistry& registry,
                                   const std::vector<Value>& inputs) {
  auto run = Enact(workflow, registry, inputs, InvocationEngine::Serial());
  if (run.ok() && !run->complete()) {
    return Status::Unavailable("workflow '" + workflow.id +
                               "' skipped processors " +
                               Join(run->skipped_processors, ", "));
  }
  return run;
}

}  // namespace

int main() {
  auto env = BuildEvaluationEnv();
  if (!env.ok()) {
    std::cerr << env.status() << "\n";
    return 1;
  }
  Corpus& corpus = env->corpus;
  const ModuleRegistry& registry = *corpus.registry;
  const Ontology& onto = *corpus.ontology;
  const KnowledgeBase& kb = *corpus.kb;

  // --- Figure 1.
  Workflow figure1 = BuildFigure1(registry, onto);
  if (Status status = ValidateWorkflow(figure1, registry, onto); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  std::vector<Value> masses;
  for (double mass : kb.proteins()[7].peptide_masses) {
    masses.push_back(Value::Real(mass));
  }
  auto run =
      EnactWhole(figure1, registry, {Value::ListOf(masses), Value::Real(5.0)});
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  std::cout << "-- Figure 1: protein identification --\n"
            << run->outputs[0].AsString() << "\n";

  // --- Figure 6, healthy.
  Workflow figure6 = BuildFigure6(registry, onto, /*use_retired=*/false);
  auto healthy =
      EnactWhole(figure6, registry, {Value::Str(kb.proteins()[7].accession)});
  if (!healthy.ok()) {
    std::cerr << healthy.status() << "\n";
    return 1;
  }
  std::cout << "-- Figure 6: homologs of " << kb.proteins()[7].accession
            << " --\n  " << healthy->outputs[0].ToString() << "\n";

  // --- Figure 6 built against the legacy provider, which then disappears.
  Workflow decayed = BuildFigure6(registry, onto, /*use_retired=*/true);
  if (Status status = RetireDecayedModules(corpus); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  // The enactor reports decay as data: the step is skipped and its module
  // named as a repair candidate.
  auto broken = Enact(decayed, registry,
                      {Value::Str(kb.proteins()[7].accession)},
                      InvocationEngine::Serial());
  if (!broken.ok()) {
    std::cerr << broken.status() << "\n";
    return 1;
  }
  std::cout << "\n-- Figure 6 after provider shutdown --\n  enactment: skipped "
            << Join(broken->skipped_processors, ", ")
            << ", decayed module " << Join(broken->decayed_modules, ", ")
            << "\n";

  // Repair: match the retired module, substitute, re-enact.
  auto matching = MatchRetiredModules(corpus, env->provenance, env->cache);
  if (!matching.ok()) {
    std::cerr << matching.status() << "\n";
    return 1;
  }
  const auto& best =
      matching->best.at(decayed.processors[0].module_id);
  auto substitute = registry.Find(best.candidate_id);
  std::cout << "  substitute found: " << (*substitute)->spec().name << " ("
            << BehaviorRelationName(best.relation) << ")\n";
  decayed.processors[0].module_id = best.candidate_id;
  auto repaired =
      EnactWhole(decayed, registry, {Value::Str(kb.proteins()[7].accession)});
  if (!repaired.ok()) {
    std::cerr << repaired.status() << "\n";
    return 1;
  }
  const bool same = repaired->outputs[0] == healthy->outputs[0];
  std::cout << "  repaired enactment: "
            << repaired->outputs[0].AsList().size() << " homologs, equal to "
            << "the healthy run: " << (same ? "yes" : "no") << "\n";
  if (!same) return 1;

  // The workflow DSL round-trips the repaired pipeline.
  std::cout << "\n-- repaired workflow, serialized --\n"
            << RenderWorkflowDsl(decayed, onto);
  return 0;
}
