#ifndef DEXA_CORE_INSTANCE_CLASSIFIER_H_
#define DEXA_CORE_INSTANCE_CLASSIFIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/concept_cache.h"
#include "ontology/ontology.h"
#include "types/value.h"

namespace dexa {

/// Assigns ontology concepts to raw data values. Used in two places:
///  * output-partition coverage (Section 3.3): deciding which partition of
///    an output parameter's domain a produced value belongs to;
///  * pool harvesting: refining a coarse parameter annotation (e.g.
///    "Accession") to the most specific concept a provenance value
///    instantiates, so the pool obeys realization semantics.
///
/// Classification is grammar/format-based: accession grammars
/// (kb/accessions.h), flat-file sniffing (formats/sniffer.h), sequence
/// alphabet analysis, and term/parameter shape checks.
///
/// Concept names are resolved exactly once, at construction: the
/// classifier compiles a ConceptId-indexed recognizer table from the
/// cache's compiled KB, so the per-value hot path (Matches/Classify) is
/// pure ConceptId arithmetic with no string-keyed ontology lookups.
class InstanceClassifier {
 public:
  /// Convenience: builds a private concept cache over `ontology`.
  explicit InstanceClassifier(const Ontology* ontology);

  /// Shares `cache` (and its compiled KB) with the rest of the pipeline.
  explicit InstanceClassifier(std::shared_ptr<const ConceptCache> cache);

  /// The most specific partition of `declared` (per
  /// ConceptCache::Partitions) that `value` instantiates; `declared` itself
  /// when the value matches no finer recognizer but `declared` is
  /// realizable; kInvalidConcept when nothing fits (e.g. declared is
  /// covered and no sub-concept matches).
  ConceptId Classify(const Value& value, ConceptId declared) const;

  /// True if `value` matches the recognizer for `concept` (leaf-level
  /// membership test). Concepts without a dedicated recognizer accept any
  /// non-null value.
  bool Matches(const Value& value, ConceptId concept_id) const;

 private:
  /// How a string value is tested against one concept. Exactly one rule
  /// per concept, compiled from the concept's name at construction.
  enum class StringRule : uint8_t {
    kAnyNonEmpty = 0,  ///< No dedicated recognizer.
    kUniprotAccession,
    kPdbAccession,
    kEmblAccession,
    kKeggGeneId,
    kEnzymeId,
    kGlycanId,
    kLigandId,
    kCompoundId,
    kPathwayId,
    kGoTermId,
    kDnaSequence,
    kRnaSequence,
    kProteinSequence,
    kSniffedFormat,  ///< SniffFormat(s) == aux.
    kTermPrefix,     ///< "<aux><id> ! <label>" term instance.
    kAlgorithmName,
    kDatabaseName,
    kTextDocument,
  };

  struct Recognizer {
    StringRule string_rule = StringRule::kAnyNonEmpty;
    const char* aux = nullptr;  ///< Format name / term prefix.
    bool numeric = false;       ///< Accepts int/double values.
    bool peptide_mass_list = false;  ///< The list-shaped leaf.
  };

  void CompileRecognizers();

  std::shared_ptr<const ConceptCache> cache_;
  std::vector<Recognizer> recognizers_;  ///< Indexed by ConceptId.
};

}  // namespace dexa

#endif  // DEXA_CORE_INSTANCE_CLASSIFIER_H_
