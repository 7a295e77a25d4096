#ifndef DEXA_CORE_REDUNDANCY_H_
#define DEXA_CORE_REDUNDANCY_H_

#include <string>
#include <vector>

#include "modules/data_example.h"
#include "modules/module.h"

namespace dexa {

/// Result of redundancy detection over one module's data-example set.
struct RedundancyReport {
  /// Example indices grouped into predicted behavior clusters; examples in
  /// the same cluster are predicted to describe the same class of behavior.
  std::vector<std::vector<size_t>> clusters;

  /// Predicted number of redundant examples: every example beyond the
  /// first of its cluster.
  size_t predicted_redundant(size_t total) const {
    return total - clusters.size();
  }

  /// True if examples i and j landed in the same cluster.
  bool SameCluster(size_t i, size_t j) const;
};

/// Detects redundant data examples *without* ground truth — the paper's
/// Section 8 future work ("we envisage examining the use of record linkage
/// techniques ... for detecting redundant data examples").
///
/// Two examples are predicted redundant when their record-linkage
/// fingerprints agree. A fingerprint summarizes, per output slot, the
/// *relationship* between output and inputs (echo, case change,
/// containment, permutation) and, failing that, the output's observable
/// shape (flat-file format, identifier namespace, term-ness, sequence
/// alphabet, numeric kind), plus the pattern of absent optional inputs.
/// The features deliberately ignore concrete values — that is what makes
/// examples from the same behavior class collide.
/// Feature-set knobs; each extra feature raises precision (fewer false
/// merges) at some cost in recall (true duplicates split apart). The
/// bench_redundancy ablation sweeps these.
struct RedundancyOptions {
  /// Output-to-input relations (echo / case / containment / permutation).
  bool use_relations = true;
  /// Order-of-magnitude buckets on numeric outputs.
  bool use_magnitude = true;
  /// Qualify containment relations by the extracted identifier namespace.
  bool qualify_contained = true;
};

class RedundancyDetector {
 public:
  explicit RedundancyDetector(RedundancyOptions options = {})
      : options_(options) {}

  /// Clusters `examples` by fingerprint (stable order: clusters appear in
  /// first-occurrence order, indices ascending).
  RedundancyReport Detect(const ModuleSpec& spec,
                          const DataExampleSet& examples) const;

  /// The fingerprint string of one example (exposed for tests).
  std::string Fingerprint(const ModuleSpec& spec,
                          const DataExample& example) const;

 private:
  RedundancyOptions options_;
};

/// Pairwise-classification quality of the detector against ground truth on
/// one module: a pair of examples is "redundant" when both describe the
/// same documented behavior class.
struct RedundancyQuality {
  size_t true_positive_pairs = 0;
  size_t false_positive_pairs = 0;
  size_t false_negative_pairs = 0;

  double precision() const {
    size_t predicted = true_positive_pairs + false_positive_pairs;
    return predicted == 0 ? 1.0
                          : static_cast<double>(true_positive_pairs) /
                                static_cast<double>(predicted);
  }
  double recall() const {
    size_t actual = true_positive_pairs + false_negative_pairs;
    return actual == 0 ? 1.0
                       : static_cast<double>(true_positive_pairs) /
                             static_cast<double>(actual);
  }
};

/// Scores `report` against the module's BehaviorGroundTruth (requires one).
[[nodiscard]] Result<RedundancyQuality> EvaluateRedundancyDetection(
    const Module& module, const DataExampleSet& examples,
    const RedundancyReport& report);

}  // namespace dexa

#endif  // DEXA_CORE_REDUNDANCY_H_
