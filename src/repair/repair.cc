#include "repair/repair.h"

#include <algorithm>
#include <utility>

#include "workflow/enactor.h"

namespace dexa {

Result<DecayScanReport> ScanForDecay(const ModuleRegistry& probe_registry,
                                     const WorkflowCorpus& workflow_corpus,
                                     InvocationEngine& engine,
                                     ModuleRegistry* retire_in) {
  DecayScanReport report;
  for (const GeneratedWorkflow& item : workflow_corpus.items) {
    auto enactment = Enact(item.workflow, probe_registry, item.seeds, engine);
    if (!enactment.ok()) return enactment.status();
    ++report.workflows_enacted;
    if (!enactment->complete()) ++report.workflows_degraded;
    for (const std::string& module_id : enactment->decayed_modules) {
      bool known = false;
      for (const std::string& existing : report.decayed_ids) {
        if (existing == module_id) {
          known = true;
          break;
        }
      }
      if (known) continue;
      report.decayed_ids.push_back(module_id);
      if (retire_in == nullptr) continue;
      auto module = retire_in->Find(module_id);
      // A decayed module absent from the retire target (e.g. a probe-only
      // wrapper) is still reported, just not retired anywhere.
      if (!module.ok()) continue;
      if ((*module)->available()) {
        (*module)->Retire();
        ++report.newly_retired;
      }
    }
  }
  return report;
}

DataExampleSet ExamplesFromProvenance(const ProvenanceCorpus& provenance,
                                      const std::string& module_id) {
  DataExampleSet examples;
  for (const InvocationRecord* record : provenance.RecordsOf(module_id)) {
    DataExample example;
    example.inputs = record->inputs;
    example.outputs = record->outputs;
    // Partition provenance is unknown for trace-derived examples.
    example.input_partitions.assign(record->inputs.size(), kInvalidConcept);
    // Skip duplicates (the same invocation may appear in many traces).
    bool duplicate = false;
    for (const DataExample& existing : examples) {
      if (existing == example) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) examples.push_back(std::move(example));
  }
  return examples;
}

namespace {

/// Ranks candidate quality: exact equivalence beats overlap beats the rest.
int RelationRank(BehaviorRelation relation, bool contextual) {
  if (relation == BehaviorRelation::kEquivalent && !contextual) return 3;
  if (relation == BehaviorRelation::kEquivalent && contextual) return 2;
  if (relation == BehaviorRelation::kOverlapping) return 2;
  if (relation == BehaviorRelation::kDisjoint) return 1;
  return 0;
}

}  // namespace

Result<MatchingReport> MatchRetiredModules(
    const Corpus& corpus, const ProvenanceCorpus& provenance,
    std::shared_ptr<const ConceptCache> cache, bool allow_contextual) {
  MatchingReport report;
  report.retired_total = corpus.retired_ids.size();

  // The matcher needs an ExampleGenerator only for its Compare() entry
  // point, which we do not use here (retired modules cannot be invoked);
  // pass a minimal generator over an empty pool. Generator and matcher
  // reason through the caller's concept cache.
  AnnotatedInstancePool empty_pool(corpus.ontology.get());
  ExampleGenerator generator(cache, &empty_pool);
  ModuleMatcher matcher(std::move(cache), &generator);

  std::vector<ModulePtr> candidates = corpus.registry->AvailableModules();

  for (const std::string& retired_id : corpus.retired_ids) {
    auto retired = corpus.registry->Find(retired_id);
    if (!retired.ok()) return retired.status();
    DataExampleSet examples = ExamplesFromProvenance(provenance, retired_id);

    SubstituteCandidate best;
    int best_rank = 0;
    for (const ModulePtr& candidate : candidates) {
      auto mapping = matcher.MapParameters((*retired)->spec(),
                                           candidate->spec(), allow_contextual);
      if (!mapping.ok()) continue;
      auto match =
          matcher.CompareAgainstExamples(examples, *candidate, *mapping);
      if (!match.ok()) return match.status();
      int rank = RelationRank(match->relation, mapping->contextual);
      bool better = rank > best_rank ||
                    (rank == best_rank && rank > 0 &&
                     match->examples_agreeing > best.examples_agreeing);
      if (better) {
        best_rank = rank;
        best.candidate_id = candidate->spec().id;
        best.relation = match->relation;
        best.mapping = *mapping;
        best.examples_compared = match->examples_compared;
        best.examples_agreeing = match->examples_agreeing;
      }
    }

    if (best_rank == 3) {
      ++report.with_equivalent;
    } else if (best_rank == 2) {
      ++report.with_overlapping;
      // A contextual all-agree match is reported as overlapping behavior
      // (Figure 7): the candidate's domain is wider than the retired
      // module's, so only part of it is known to coincide.
      if (best.relation == BehaviorRelation::kEquivalent) {
        best.relation = BehaviorRelation::kOverlapping;
      }
    } else {
      ++report.with_none;
      best.candidate_id.clear();
      best.relation = BehaviorRelation::kIncomparable;
    }
    report.best.emplace(retired_id, std::move(best));
  }
  return report;
}

namespace {

/// Applies a substitution to `workflow`: processor `processor_index` now
/// invokes `candidate`, with input wiring permuted per `mapping`, and
/// downstream references to its output ports remapped.
void SubstituteProcessor(Workflow& workflow, int processor_index,
                         const ModuleSpec& candidate,
                         const ParameterMapping& mapping) {
  Processor& processor =
      workflow.processors[static_cast<size_t>(processor_index)];
  std::vector<PortSource> new_sources(candidate.inputs.size());
  for (size_t i = 0; i < processor.input_sources.size() &&
                     i < mapping.input_mapping.size();
       ++i) {
    new_sources[static_cast<size_t>(mapping.input_mapping[i])] =
        processor.input_sources[i];
  }
  processor.input_sources = std::move(new_sources);
  processor.module_id = candidate.id;
  processor.name += "~" + candidate.name;

  auto remap_port = [&](PortSource& source) {
    if (source.processor != processor_index) return;
    if (static_cast<size_t>(source.port) < mapping.output_mapping.size()) {
      source.port = mapping.output_mapping[static_cast<size_t>(source.port)];
    }
  };
  for (Processor& downstream : workflow.processors) {
    for (PortSource& source : downstream.input_sources) remap_port(source);
  }
  for (WorkflowOutput& output : workflow.outputs) remap_port(output.source);
}

}  // namespace

Result<RepairOutcome> RepairWorkflows(const Corpus& corpus,
                                      const WorkflowCorpus& workflow_corpus,
                                      const ProvenanceCorpus& provenance,
                                      const MatchingReport& matching) {
  RepairOutcome outcome;
  outcome.total_workflows = workflow_corpus.items.size();
  const ModuleRegistry& registry = *corpus.registry;

  for (const GeneratedWorkflow& item : workflow_corpus.items) {
    std::vector<std::string> unavailable =
        UnavailableModules(item.workflow, registry);
    if (unavailable.empty()) continue;  // Still enactable.
    ++outcome.broken_workflows;

    // Partition the decayed processors into substitutable ones and dead
    // ends (no candidate). Dead ends are pruned from the verification
    // workflow: the paper validates substitutions on the sub-workflows that
    // contain them when other steps stay broken.
    std::vector<bool> keep(item.workflow.processors.size(), true);
    size_t unresolved = 0;
    bool verifiable = true;
    for (size_t p = 0; p < item.workflow.processors.size(); ++p) {
      const std::string& module_id = item.workflow.processors[p].module_id;
      auto module = registry.Find(module_id);
      if (!module.ok()) return module.status();
      if ((*module)->available()) continue;
      auto it = matching.best.find(module_id);
      bool has_candidate =
          it != matching.best.end() && !it->second.candidate_id.empty() &&
          (it->second.relation == BehaviorRelation::kEquivalent ||
           it->second.relation == BehaviorRelation::kOverlapping);
      if (!has_candidate) {
        keep[p] = false;
        ++unresolved;
      }
    }
    if (unresolved == item.workflow.processors.size()) continue;

    // Build the pruned verification workflow (workflow inputs and seeds are
    // kept whole; dropped processors simply stop consuming them).
    Workflow repaired;
    repaired.id = item.workflow.id + "#repaired";
    repaired.name = repaired.id;
    repaired.inputs = item.workflow.inputs;
    std::vector<int> remap(item.workflow.processors.size(), -1);
    for (size_t p = 0; p < item.workflow.processors.size(); ++p) {
      if (!keep[p]) continue;
      remap[p] = static_cast<int>(repaired.processors.size());
      Processor processor = item.workflow.processors[p];
      for (PortSource& source : processor.input_sources) {
        if (source.from_workflow_input()) continue;
        if (!keep[static_cast<size_t>(source.processor)]) {
          // A kept step consumes from a pruned dead end: the substitution
          // cannot be exercised, so the repair cannot be validated.
          verifiable = false;
          break;
        }
        source.processor = remap[static_cast<size_t>(source.processor)];
      }
      if (!verifiable) break;
      repaired.processors.push_back(std::move(processor));
    }
    if (!verifiable) continue;
    for (const WorkflowOutput& output : item.workflow.outputs) {
      if (output.source.from_workflow_input()) {
        repaired.outputs.push_back(output);
        continue;
      }
      if (!keep[static_cast<size_t>(output.source.processor)]) continue;
      WorkflowOutput remapped = output;
      remapped.source.processor =
          remap[static_cast<size_t>(output.source.processor)];
      repaired.outputs.push_back(std::move(remapped));
    }

    // Substitute every remaining decayed processor.
    struct AppliedSubstitution {
      int processor_index;
      std::string retired_id;
      const SubstituteCandidate* candidate;
    };
    std::vector<AppliedSubstitution> applied;
    for (size_t p = 0; p < repaired.processors.size(); ++p) {
      // By value: SubstituteProcessor overwrites the processor's module id.
      const std::string module_id = repaired.processors[p].module_id;
      auto module = registry.Find(module_id);
      if (!module.ok()) return module.status();
      if ((*module)->available()) continue;
      const SubstituteCandidate& best = matching.best.at(module_id);
      auto candidate = registry.Find(best.candidate_id);
      if (!candidate.ok()) return candidate.status();
      SubstituteProcessor(repaired, static_cast<int>(p), (*candidate)->spec(),
                          best.mapping);
      applied.push_back(
          AppliedSubstitution{static_cast<int>(p), module_id, &best});
    }
    if (applied.empty()) continue;  // Nothing could be substituted.

    // Re-enact on the original seeds and verify each substitution
    // in-context against the retired module's provenance.
    auto enactment =
        Enact(repaired, registry, item.seeds, InvocationEngine::Serial());
    bool verified = enactment.ok() && enactment->complete();
    if (verified) {
      for (const AppliedSubstitution& substitution : applied) {
        // Locate what the substitute consumed/produced during enactment.
        const InvocationRecord* actual = nullptr;
        const Processor& processor =
            repaired
                .processors[static_cast<size_t>(substitution.processor_index)];
        for (const InvocationRecord& record : enactment->invocations) {
          if (record.processor_name == processor.name) {
            actual = &record;
            break;
          }
        }
        if (actual == nullptr) {
          verified = false;
          break;
        }
        // Map the substitute's inputs back into the retired module's
        // parameter order and look the invocation up in the old traces.
        const ParameterMapping& mapping = substitution.candidate->mapping;
        std::vector<Value> retired_inputs(mapping.input_mapping.size());
        for (size_t i = 0; i < mapping.input_mapping.size(); ++i) {
          retired_inputs[i] =
              actual->inputs[static_cast<size_t>(mapping.input_mapping[i])];
        }
        const InvocationRecord* historical =
            provenance.FindByInputs(substitution.retired_id, retired_inputs);
        if (substitution.candidate->relation ==
            BehaviorRelation::kEquivalent) {
          // Equivalent substitutes are trusted; when a historical record
          // exists it must still agree.
          if (historical == nullptr) continue;
        } else if (historical == nullptr) {
          // Overlapping substitutes require in-context evidence.
          verified = false;
          break;
        }
        for (size_t o = 0; o < mapping.output_mapping.size(); ++o) {
          const Value& produced =
              actual->outputs[static_cast<size_t>(mapping.output_mapping[o])];
          if (!historical->outputs[o].Equals(produced)) {
            verified = false;
            break;
          }
        }
        if (!verified) break;
      }
    }
    if (!verified) continue;  // Substitutions rolled back; not repaired.

    ++outcome.repaired_total;
    if (unresolved == 0) {
      ++outcome.repaired_fully;
    } else {
      ++outcome.repaired_partly;
    }
    bool any_equivalent = false;
    for (const AppliedSubstitution& substitution : applied) {
      if (substitution.candidate->relation == BehaviorRelation::kEquivalent) {
        any_equivalent = true;
      }
    }
    if (any_equivalent) {
      ++outcome.repaired_via_equivalent;
    } else {
      ++outcome.repaired_via_overlapping;
    }
  }
  return outcome;
}

}  // namespace dexa
