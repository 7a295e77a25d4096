#ifndef DEXA_CORE_ANNOTATION_SUGGESTER_H_
#define DEXA_CORE_ANNOTATION_SUGGESTER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/instance_classifier.h"
#include "engine/concept_cache.h"
#include "ontology/ontology.h"
#include "types/structural_type.h"
#include "types/value.h"

namespace dexa {

/// A ranked concept suggestion for a parameter.
struct ConceptSuggestion {
  ConceptId concept_id = kInvalidConcept;
  double score = 0.0;
};

/// The curator-assistance step of the paper's architecture (Figure 3,
/// box 1): tools like Radiant and Meteor-S "assist the curators in the
/// annotation of parameters by suggesting an ordered list of concepts ...
/// constructed by matching the module parameters with the domain ontology
/// using schema matching techniques".
///
/// dexa's suggester combines two signals:
///  * lexical: token overlap between the parameter's name and the concept
///    names (camelCase/snake_case tokenization, substring credit);
///  * instance-based: when a sample value is supplied, concepts whose
///    recognizers accept it are boosted — the schema-matching literature's
///    "instance-level matcher".
///
/// Concept names are the suggester's data (lexical matching is its job),
/// so they are materialized once at construction from the compiled KB;
/// Suggest() itself performs no string-keyed ontology lookups.
class AnnotationSuggester {
 public:
  /// Shares `cache` (and its compiled KB) with the rest of the pipeline.
  explicit AnnotationSuggester(std::shared_ptr<const ConceptCache> cache);

  /// Ranked suggestions for a parameter named `parameter_name` with the
  /// given structural type; `sample` (optional, pass Value::Null() for
  /// none) is a value observed flowing through the parameter.
  std::vector<ConceptSuggestion> Suggest(const std::string& parameter_name,
                                         const StructuralType& type,
                                         const Value& sample = Value::Null(),
                                         size_t top_k = 5) const;

 private:
  InstanceClassifier classifier_;
  std::vector<std::string> names_;  ///< Indexed by ConceptId.
  std::vector<char> covered_;       ///< Indexed by ConceptId.
};

/// Splits an identifier into lowercase tokens ("getProteinSequence" ->
/// {"get", "protein", "sequence"}; "peptide_masses" -> {"peptide",
/// "masses"}). Exposed for tests.
std::vector<std::string> TokenizeIdentifier(const std::string& identifier);

}  // namespace dexa

#endif  // DEXA_CORE_ANNOTATION_SUGGESTER_H_
