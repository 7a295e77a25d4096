#include "core/annotation_verifier.h"

#include <algorithm>
#include <span>

namespace dexa {

const char* AnnotationVerdictName(AnnotationVerdict verdict) {
  switch (verdict) {
    case AnnotationVerdict::kConfirmed:
      return "confirmed";
    case AnnotationVerdict::kOverGeneral:
      return "over-general";
    case AnnotationVerdict::kViolated:
      return "violated";
    case AnnotationVerdict::kUnobserved:
      return "unobserved";
  }
  return "unknown";
}

std::vector<OutputAnnotationReport> AnnotationVerifier::VerifyOutputs(
    const ModuleSpec& spec, const DataExampleSet& examples) const {
  std::vector<OutputAnnotationReport> reports;
  for (size_t o = 0; o < spec.outputs.size(); ++o) {
    const Parameter& param = spec.outputs[o];
    OutputAnnotationReport report;
    report.output_index = o;
    report.parameter_name = param.name;
    report.declared = param.semantic_type;

    bool observed = false;
    bool violated = false;
    for (const DataExample& example : examples) {
      if (o >= example.outputs.size()) continue;
      const Value& value = example.outputs[o];
      if (value.is_null()) continue;
      observed = true;

      auto note = [&](ConceptId partition) {
        if (partition == kInvalidConcept) {
          violated = true;
          return;
        }
        if (std::find(report.observed_partitions.begin(),
                      report.observed_partitions.end(),
                      partition) == report.observed_partitions.end()) {
          report.observed_partitions.push_back(partition);
        }
      };

      ConceptId whole = classifier_.Classify(value, param.semantic_type);
      if (whole != kInvalidConcept) {
        note(whole);
      } else if (value.is_list()) {
        bool any = false;
        for (const Value& element : value.AsList()) {
          ConceptId partition =
              classifier_.Classify(element, param.semantic_type);
          if (partition != kInvalidConcept) {
            note(partition);
            any = true;
          }
        }
        if (!any && !value.AsList().empty()) violated = true;
      } else {
        violated = true;
      }
    }

    if (!observed) {
      report.verdict = AnnotationVerdict::kUnobserved;
    } else if (violated) {
      report.verdict = AnnotationVerdict::kViolated;
    } else {
      // All observed values fit. Confirmed when every realizable partition
      // of the declared concept is witnessed; over-general otherwise.
      const std::span<const ConceptId> declared_partitions =
          cache_->Partitions(param.semantic_type);
      bool all_witnessed = true;
      for (ConceptId partition : declared_partitions) {
        if (std::find(report.observed_partitions.begin(),
                      report.observed_partitions.end(),
                      partition) == report.observed_partitions.end()) {
          all_witnessed = false;
          break;
        }
      }
      if (all_witnessed) {
        report.verdict = AnnotationVerdict::kConfirmed;
      } else {
        report.verdict = AnnotationVerdict::kOverGeneral;
        // Tightest concept covering everything observed.
        ConceptId lcs = report.observed_partitions[0];
        for (size_t i = 1; i < report.observed_partitions.size(); ++i) {
          lcs = cache_->LeastCommonSubsumer(lcs,
                                            report.observed_partitions[i]);
        }
        report.suggested = lcs;
      }
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace dexa
