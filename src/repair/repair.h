#ifndef DEXA_REPAIR_REPAIR_H_
#define DEXA_REPAIR_REPAIR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/matcher.h"
#include "corpus/corpus.h"
#include "provenance/workflow_corpus.h"

namespace dexa {

class InvocationEngine;

/// The best substitute identified for one retired module.
struct SubstituteCandidate {
  std::string candidate_id;  ///< "" when none was found.
  BehaviorRelation relation = BehaviorRelation::kIncomparable;
  ParameterMapping mapping;
  size_t examples_compared = 0;
  size_t examples_agreeing = 0;
};

/// Figure 8: matching the retired modules against the available corpus.
struct MatchingReport {
  size_t retired_total = 0;
  size_t with_equivalent = 0;   ///< Exact-concept, all examples agree.
  size_t with_overlapping = 0;  ///< Partial agreement, or agreement under a
                                ///< contextual (Figure 7) mapping.
  size_t with_none = 0;
  std::unordered_map<std::string, SubstituteCandidate> best;
};

/// What a decay scan over the workflow corpus observed.
struct DecayScanReport {
  size_t workflows_enacted = 0;
  /// Enactments that lost at least one processor to a fault.
  size_t workflows_degraded = 0;
  /// Modules that failed with permanent-class errors during the scan,
  /// deduplicated, in discovery order.
  std::vector<std::string> decayed_ids;
  /// Of those, modules flipped from available to retired in `retire_in`.
  size_t newly_retired = 0;
};

/// Probes the workflow corpus for dynamic decay: every workflow is enacted
/// resiliently through `probe_registry` (typically the live registry, or a
/// fault-injecting wrapper of it) and modules that fail with permanent-
/// class errors are collected. When `retire_in` is non-null, each decayed
/// module found there and still marked available is retired, so the
/// matching/repair pipeline (MatchRetiredModules + RepairWorkflows) picks
/// it up exactly like a provider-announced withdrawal. Structural workflow
/// errors abort the scan; faults do not.
[[nodiscard]] Result<DecayScanReport> ScanForDecay(const ModuleRegistry& probe_registry,
                                     const WorkflowCorpus& workflow_corpus,
                                     InvocationEngine& engine,
                                     ModuleRegistry* retire_in = nullptr);

/// Reconstructs data examples for a module from its provenance records
/// (Section 6: "by trawling those provenance traces, we were able to
/// construct data examples that characterize unavailable modules").
DataExampleSet ExamplesFromProvenance(const ProvenanceCorpus& provenance,
                                      const std::string& module_id);

/// Matches every retired module of `corpus` against the available modules,
/// using provenance-derived examples for the retired side. A candidate
/// whose aligned examples all agree under an exact mapping is equivalent; a
/// candidate agreeing on part of the examples — or on all of them but only
/// under a generalizing (contextual) mapping — is overlapping.
/// Subsumption reasons through `cache`. `allow_contextual=false` restricts
/// matching to exact-concept parameter mappings (an ablation of the
/// Figure 7 mechanism).
[[nodiscard]] Result<MatchingReport> MatchRetiredModules(
    const Corpus& corpus, const ProvenanceCorpus& provenance,
    std::shared_ptr<const ConceptCache> cache, bool allow_contextual = true);

/// Outcome of repairing the decayed workflow corpus.
struct RepairOutcome {
  size_t total_workflows = 0;
  size_t broken_workflows = 0;
  size_t repaired_total = 0;   ///< Workflows with >= 1 verified substitution.
  size_t repaired_fully = 0;   ///< Every decayed step substituted.
  size_t repaired_partly = 0;  ///< Some decayed steps remain.
  size_t repaired_via_equivalent = 0;   ///< >= 1 equivalent substitution.
  size_t repaired_via_overlapping = 0;  ///< Overlapping substitutions only.
};

/// Repairs every broken workflow of `workflow_corpus`: each decayed step is
/// replaced by its best substitute (if any); the repaired workflow is
/// re-enacted on its original seeds, and overlapping substitutions are
/// additionally verified against the retired module's provenance records
/// for the exact values that flowed at enactment (the in-context validation
/// of Section 6). Unverifiable substitutions are rolled back.
[[nodiscard]] Result<RepairOutcome> RepairWorkflows(const Corpus& corpus,
                                      const WorkflowCorpus& workflow_corpus,
                                      const ProvenanceCorpus& provenance,
                                      const MatchingReport& matching);

}  // namespace dexa

#endif  // DEXA_REPAIR_REPAIR_H_
