#ifndef DEXA_CORE_COVERAGE_H_
#define DEXA_CORE_COVERAGE_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/instance_classifier.h"
#include "core/partitioner.h"
#include "modules/data_example.h"
#include "modules/module.h"

namespace dexa {

/// Partition-coverage of a module's data examples (the `coverage` metric of
/// Section 4.2): which of the input and output partitions identified by the
/// partitioner are exercised by at least one data example.
struct CoverageReport {
  size_t input_partitions = 0;
  size_t covered_input_partitions = 0;
  size_t output_partitions = 0;
  size_t covered_output_partitions = 0;

  /// Output partitions with no covering example, per parameter order.
  std::vector<ConceptId> uncovered_outputs;

  size_t total_partitions() const {
    return input_partitions + output_partitions;
  }
  size_t covered_partitions() const {
    return covered_input_partitions + covered_output_partitions;
  }
  /// coverage(m) = #coveredPartitions / #partitions (Section 4.2).
  double coverage() const {
    return total_partitions() == 0
               ? 1.0
               : static_cast<double>(covered_partitions()) /
                     static_cast<double>(total_partitions());
  }
  bool inputs_fully_covered() const {
    return covered_input_partitions == input_partitions;
  }
  bool outputs_fully_covered() const {
    return covered_output_partitions == output_partitions;
  }
};

/// Computes the coverage report for `spec` under `examples`.
///
/// Input partitions are covered when an example's recorded
/// `input_partitions` hits them (falling back to classification for
/// examples without provenance, e.g. trace-derived ones). Output partitions
/// are covered when some example's output value is classified into them
/// (Section 3.3: output coverage is obtained "for free" from the
/// input-derived examples).
class CoverageAnalyzer {
 public:
  /// Convenience: builds a private concept cache over `ontology`.
  explicit CoverageAnalyzer(const Ontology* ontology)
      : CoverageAnalyzer(std::make_shared<ConceptCache>(ontology)) {}

  /// Shares `cache` (and its compiled KB) with the rest of the pipeline;
  /// this is how --kb-image runs route coverage reasoning through the
  /// mapped image.
  explicit CoverageAnalyzer(std::shared_ptr<const ConceptCache> cache)
      : partitioner_(cache), classifier_(std::move(cache)) {}

  CoverageReport Analyze(const ModuleSpec& spec,
                         const DataExampleSet& examples) const;

 private:
  DomainPartitioner partitioner_;
  InstanceClassifier classifier_;
};

}  // namespace dexa

#endif  // DEXA_CORE_COVERAGE_H_
