#include "core/annotation_suggester.h"

#include <algorithm>
#include <cctype>
#include <memory>

#include "common/strings.h"
#include "core/instance_classifier.h"

namespace dexa {

std::vector<std::string> TokenizeIdentifier(const std::string& identifier) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (size_t i = 0; i < identifier.size(); ++i) {
    char c = identifier[i];
    if (c == '_' || c == '-' || c == ' ' || c == '.') {
      flush();
      continue;
    }
    if (std::isupper(static_cast<unsigned char>(c))) {
      // Camel-case boundary, except inside an acronym run ("DNASeq" keeps
      // "dna" together by splitting before the last upper of a run that is
      // followed by a lower).
      bool prev_upper =
          i > 0 && std::isupper(static_cast<unsigned char>(identifier[i - 1]));
      bool next_lower =
          i + 1 < identifier.size() &&
          std::islower(static_cast<unsigned char>(identifier[i + 1]));
      if (!prev_upper || next_lower) flush();
    }
    current.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  flush();
  return tokens;
}

namespace {

/// Lexical affinity of a parameter-name token set to a concept name in
/// [0, 1]: fraction of concept tokens matched by a parameter token
/// (equality or prefix containment, so "seq" matches "sequence").
double LexicalScore(const std::vector<std::string>& parameter_tokens,
                    const std::string& concept_name) {
  std::vector<std::string> concept_tokens = TokenizeIdentifier(concept_name);
  if (concept_tokens.empty()) return 0.0;
  size_t matched = 0;
  for (const std::string& concept_token : concept_tokens) {
    for (const std::string& parameter_token : parameter_tokens) {
      if (concept_token == parameter_token ||
          (parameter_token.size() >= 3 &&
           StartsWith(concept_token, parameter_token)) ||
          (concept_token.size() >= 3 &&
           StartsWith(parameter_token, concept_token))) {
        ++matched;
        break;
      }
    }
  }
  return static_cast<double>(matched) /
         static_cast<double>(concept_tokens.size());
}

}  // namespace

AnnotationSuggester::AnnotationSuggester(const Ontology* ontology)
    : AnnotationSuggester(std::make_shared<ConceptCache>(ontology)) {}

AnnotationSuggester::AnnotationSuggester(
    std::shared_ptr<const ConceptCache> cache)
    : classifier_(cache) {
  const kbimage::CompiledKb& kb = cache->kb();
  names_.reserve(kb.ConceptCount());
  covered_.reserve(kb.ConceptCount());
  for (size_t c = 0; c < kb.ConceptCount(); ++c) {
    const ConceptId id = static_cast<ConceptId>(c);
    names_.emplace_back(kb.ConceptName(id));
    covered_.push_back(kb.Covered(id) ? 1 : 0);
  }
}

std::vector<ConceptSuggestion> AnnotationSuggester::Suggest(
    const std::string& parameter_name, const StructuralType& type,
    const Value& sample, size_t top_k) const {
  std::vector<std::string> tokens = TokenizeIdentifier(parameter_name);

  // The sample value (or its elements, for lists) feeds the instance-level
  // matcher.
  const Value* scalar_sample = &sample;
  if (sample.is_list() && !sample.AsList().empty()) {
    scalar_sample = &sample.AsList()[0];
  }

  std::vector<ConceptSuggestion> suggestions;
  for (size_t c = 0; c < names_.size(); ++c) {
    const ConceptId concept_id = static_cast<ConceptId>(c);
    if (covered_[c]) continue;  // Suggest realizable concepts only.
    ConceptSuggestion suggestion;
    suggestion.concept_id = concept_id;
    suggestion.score = LexicalScore(tokens, names_[c]);
    if (!sample.is_null()) {
      bool matches = classifier_.Matches(sample, concept_id) ||
                     (scalar_sample != &sample &&
                      classifier_.Matches(*scalar_sample, concept_id));
      if (matches) {
        suggestion.score += 1.0;
      } else {
        suggestion.score *= 0.25;  // Lexical hit contradicted by the data.
      }
    }
    (void)type;
    if (suggestion.score > 0.0) suggestions.push_back(suggestion);
  }

  std::sort(suggestions.begin(), suggestions.end(),
            [&](const ConceptSuggestion& a, const ConceptSuggestion& b) {
              if (a.score != b.score) return a.score > b.score;
              return names_[static_cast<size_t>(a.concept_id)] <
                     names_[static_cast<size_t>(b.concept_id)];
            });
  if (suggestions.size() > top_k) suggestions.resize(top_k);
  return suggestions;
}

}  // namespace dexa
