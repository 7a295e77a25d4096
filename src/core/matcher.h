#ifndef DEXA_CORE_MATCHER_H_
#define DEXA_CORE_MATCHER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/example_generator.h"
#include "engine/concept_cache.h"
#include "engine/invocation_engine.h"
#include "modules/data_example.h"
#include "modules/module.h"

namespace dexa {

/// Relation between the behaviors of two modules under their aligned data
/// examples (Section 6).
enum class BehaviorRelation {
  /// All aligned examples produce the same outputs: the modules are
  /// *eventually* equivalent (the heuristic cannot rule out uncovered
  /// corner cases, as the paper stresses).
  kEquivalent,
  /// Some but not all aligned examples agree.
  kOverlapping,
  /// No aligned example agrees.
  kDisjoint,
  /// No aligned example could be compared (no shared valid inputs).
  kIncomparable,
};

const char* BehaviorRelationName(BehaviorRelation relation);

/// A 1-to-1 mapping between the parameters of two modules (`map_param` in
/// Section 6): input i of the reference module feeds input
/// `input_mapping[i]` of the candidate, and output o of the reference is
/// compared against output `output_mapping[o]` of the candidate.
struct ParameterMapping {
  std::vector<int> input_mapping;
  std::vector<int> output_mapping;
  /// True when the mapping needed concept generalization (the candidate's
  /// input concepts strictly subsume the reference's, or its output
  /// concepts are super-concepts — the Figure 7 situation). Such candidates
  /// can still play the reference's role inside a workflow whose context
  /// only feeds the narrower concept.
  bool contextual = false;
};

/// Outcome of comparing a candidate against a reference module.
struct MatchResult {
  BehaviorRelation relation = BehaviorRelation::kIncomparable;
  ParameterMapping mapping;
  size_t examples_compared = 0;
  size_t examples_agreeing = 0;
};

/// Compares module behaviors through data examples (Section 6). The
/// comparison aligns the modules' data examples on *identical input values*
/// — dexa achieves this by replaying the reference module's example inputs
/// against the candidate — and classifies the outcome as equivalent,
/// overlapping or disjoint.
///
/// Subsumption queries go through a ConceptCache (one bitset word per
/// query), and candidate replays are batched through an InvocationEngine
/// with results folded in reference order, so relation verdicts are
/// thread-count-invariant.
class ModuleMatcher {
 public:
  /// Shares a concept cache (typically the generator's); `engine`
  /// defaults to the shared serial engine.
  ModuleMatcher(std::shared_ptr<const ConceptCache> cache,
                const ExampleGenerator* generator,
                InvocationEngine* engine = nullptr)
      : cache_(std::move(cache)),
        generator_(generator),
        engine_(engine != nullptr ? engine : &InvocationEngine::Serial()) {}

  /// Finds the 1-to-1 parameter mapping from `reference` onto `candidate`:
  /// structurally equal parameters whose concepts are equal (or, if
  /// `allow_contextual`, where the candidate input subsumes the reference
  /// input and the output concepts are comparable). NotFound when no
  /// complete mapping exists.
  [[nodiscard]] Result<ParameterMapping> MapParameters(const ModuleSpec& reference,
                                         const ModuleSpec& candidate,
                                         bool allow_contextual = true) const;

  /// Compares `candidate` against the reference examples `reference_examples`
  /// (e.g. generated for an available module, or reconstructed from
  /// provenance for an unavailable one). The candidate is invoked on each
  /// reference input vector (permuted through `mapping`); outputs are
  /// compared for deep equality.
  [[nodiscard]] Result<MatchResult> CompareAgainstExamples(
      const DataExampleSet& reference_examples, const Module& candidate,
      const ParameterMapping& mapping) const;

  /// End-to-end comparison of two invocable modules: generates examples for
  /// the reference, maps parameters, and replays against the candidate.
  [[nodiscard]] Result<MatchResult> Compare(const Module& reference,
                              const Module& candidate,
                              bool allow_contextual = true) const;

 private:
  std::shared_ptr<const ConceptCache> cache_;
  const ExampleGenerator* generator_;
  InvocationEngine* engine_;
};

}  // namespace dexa

#endif  // DEXA_CORE_MATCHER_H_
