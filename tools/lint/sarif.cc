#include "tools/lint/sarif.h"

#include "common/json.h"

namespace dexa::lint {
namespace {

/// Appends a SARIF location object; `message` (optional) becomes the
/// location's message text — used for taint-chain hops.
void Loc(std::string& out, const std::string& file, int line,
         const std::string& message = "") {
  out += "{\"physicalLocation\": {\"artifactLocation\": {\"uri\": ";
  AppendJsonString(out, file);
  out += "}, \"region\": {\"startLine\": ";
  out += std::to_string(line < 1 ? 1 : line);
  out += "}}";
  if (!message.empty()) {
    out += ", \"message\": {\"text\": ";
    AppendJsonString(out, message);
    out += "}";
  }
  out += "}";
}

}  // namespace

std::string ReportToSarif(const LintReport& report) {
  std::string out;
  out +=
      "{\"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "\"version\": \"2.1.0\",\n"
      "\"runs\": [{\n"
      "  \"tool\": {\"driver\": {\n"
      "    \"name\": \"dexa-lint\",\n"
      "    \"informationUri\": \"docs/STATIC_ANALYSIS.md\",\n"
      "    \"rules\": [";
  bool first = true;
  for (const RuleInfo& rule : Rules()) {
    if (!first) out += ",";
    first = false;
    out += "\n      {\"id\": ";
    AppendJsonString(out, rule.name);
    out += ", \"shortDescription\": {\"text\": ";
    AppendJsonString(out, rule.summary);
    out += "}, \"properties\": {\"family\": ";
    AppendJsonString(out, rule.family);
    out += "}}";
  }
  out += "\n    ]\n  }},\n  \"results\": [";
  first = true;
  for (const Finding& finding : report.findings) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"ruleId\": ";
    AppendJsonString(out, finding.rule);
    out += ", \"level\": \"error\", \"message\": {\"text\": ";
    AppendJsonString(out, finding.message);
    out += "},\n     \"locations\": [";
    Loc(out, finding.file, finding.line);
    out += "]";
    if (!finding.flow.empty()) {
      out += ",\n     \"codeFlows\": [{\"threadFlows\": [{\"locations\": [";
      bool first_step = true;
      for (const FlowStep& step : finding.flow) {
        if (!first_step) out += ", ";
        first_step = false;
        out += "{\"location\": ";
        Loc(out, step.file, step.line, step.note);
        out += "}";
      }
      out += "]}]}]";
    }
    out += "}";
  }
  out += first ? "]\n}]}\n" : "\n  ]\n}]}\n";
  return out;
}

}  // namespace dexa::lint
