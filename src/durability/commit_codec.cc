#include "durability/commit_codec.h"

#include <limits>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "modules/registry_io.h"

namespace dexa {

namespace {

constexpr const char* kAnnotateHeaderKind = "run annotate";
constexpr const char* kModuleCommitKind = "commit module";
constexpr const char* kEnactHeaderKind = "run enact";
constexpr const char* kStepCommitKind = "commit step";

Result<uint64_t> ParseU64Field(const std::string& text, const char* what) {
  uint64_t value = 0;
  if (!ParseU64(text, &value)) {
    return Status::ParseError(std::string("malformed ") + what + " '" +
                              text + "'");
  }
  return value;
}

/// `key value` line with the given key, or ParseError.
Result<std::string> ExpectField(const std::vector<std::string>& lines,
                                size_t index, const std::string& key) {
  if (index >= lines.size() || !StartsWith(lines[index], key + " ")) {
    return Status::ParseError("journal record missing '" + key + "' field");
  }
  return lines[index].substr(key.size() + 1);
}

}  // namespace

uint64_t AnnotateConfigFingerprint(const ModuleRegistry& registry,
                                   const GeneratorOptions& options) {
  uint64_t fp = StableHash64("dexa annotate v1");
  for (const ModulePtr& module : registry.AvailableModules()) {
    fp = HashCombine(fp, StableHash64(module->spec().id));
  }
  fp = HashCombine(fp, static_cast<uint64_t>(options.max_combinations));
  fp = HashCombine(fp, static_cast<uint64_t>(options.use_realization));
  fp = HashCombine(fp, static_cast<uint64_t>(options.full_cartesian));
  fp = HashCombine(fp,
                   static_cast<uint64_t>(options.include_null_for_optional));
  return fp;
}

std::string EncodeAnnotateRunHeader(const AnnotateRunHeader& header) {
  std::string out = std::string(kAnnotateHeaderKind) + "\n";
  out += "modules " + std::to_string(header.modules) + "\n";
  out += "fingerprint " + std::to_string(header.fingerprint) + "\n";
  // Optional trailing field: absent for in-memory runs so their journals
  // stay byte-identical to the pre-image format.
  if (header.kb_checksum != 0) {
    out += "kb_checksum " + std::to_string(header.kb_checksum) + "\n";
  }
  return out;
}

Result<AnnotateRunHeader> DecodeAnnotateRunHeader(const std::string& payload) {
  std::vector<std::string> lines = SplitLines(payload);
  if (lines.empty() || lines[0] != kAnnotateHeaderKind) {
    return Status::ParseError("not an annotate run header record");
  }
  AnnotateRunHeader header;
  auto modules = ExpectField(lines, 1, "modules");
  if (!modules.ok()) return modules.status();
  auto count = ParseU64Field(*modules, "module count");
  if (!count.ok()) return count.status();
  header.modules = *count;
  auto fingerprint = ExpectField(lines, 2, "fingerprint");
  if (!fingerprint.ok()) return fingerprint.status();
  auto fp = ParseU64Field(*fingerprint, "fingerprint");
  if (!fp.ok()) return fp.status();
  header.fingerprint = *fp;
  if (lines.size() > 3 && StartsWith(lines[3], "kb_checksum ")) {
    auto checksum = ParseU64Field(lines[3].substr(12), "kb checksum");
    if (!checksum.ok()) return checksum.status();
    header.kb_checksum = *checksum;
  }
  return header;
}

std::string EncodeModuleCommit(const ModuleCommit& commit,
                               const Ontology& ontology) {
  std::string out = std::string(kModuleCommitKind) + "\n";
  out += "id " + commit.module_id + "\n";
  out += "decayed " + std::to_string(commit.decayed ? 1 : 0) + "\n";
  out += "transient_exhausted " + std::to_string(commit.transient_exhausted) +
         "\n";
  AppendDataExamples(out, commit.examples, ontology);
  return out;
}

Result<ModuleCommit> DecodeModuleCommit(const std::string& payload,
                                        const Ontology& ontology) {
  std::vector<std::string> lines = SplitLines(payload);
  if (lines.empty() || lines[0] != kModuleCommitKind) {
    return Status::ParseError("not a module commit record");
  }
  ModuleCommit commit;
  auto id = ExpectField(lines, 1, "id");
  if (!id.ok()) return id.status();
  commit.module_id = *id;
  auto decayed = ExpectField(lines, 2, "decayed");
  if (!decayed.ok()) return decayed.status();
  if (*decayed != "0" && *decayed != "1") {
    return Status::ParseError("malformed decayed flag '" + *decayed + "'");
  }
  commit.decayed = *decayed == "1";
  auto exhausted = ExpectField(lines, 3, "transient_exhausted");
  if (!exhausted.ok()) return exhausted.status();
  auto count = ParseU64Field(*exhausted, "transient_exhausted");
  if (!count.ok()) return count.status();
  commit.transient_exhausted = *count;

  DataExampleParser parser(ontology);
  for (size_t n = 4; n < lines.size(); ++n) {
    if (lines[n].empty()) continue;
    Status parsed = parser.ParseLine(lines[n]);
    if (!parsed.ok()) {
      return Status::ParseError("module commit line " + std::to_string(n + 1) +
                                ": " + parsed.message());
    }
  }
  if (parser.in_example()) {
    return Status::ParseError("module commit record ends inside an example");
  }
  commit.examples = parser.TakeExamples();
  return commit;
}

uint64_t EnactConfigFingerprint(const std::string& workflow_id,
                                const std::vector<Value>& inputs) {
  uint64_t fp = StableHash64("dexa enact v1");
  fp = HashCombine(fp, StableHash64(workflow_id));
  for (const Value& input : inputs) fp = HashCombine(fp, input.Hash());
  return fp;
}

std::string EncodeEnactRunHeader(const EnactRunHeader& header) {
  std::string out = std::string(kEnactHeaderKind) + "\n";
  out += "workflow " + header.workflow_id + "\n";
  out += "processors " + std::to_string(header.processors) + "\n";
  out += "fingerprint " + std::to_string(header.fingerprint) + "\n";
  return out;
}

Result<EnactRunHeader> DecodeEnactRunHeader(const std::string& payload) {
  std::vector<std::string> lines = SplitLines(payload);
  if (lines.empty() || lines[0] != kEnactHeaderKind) {
    return Status::ParseError("not an enact run header record");
  }
  EnactRunHeader header;
  auto workflow = ExpectField(lines, 1, "workflow");
  if (!workflow.ok()) return workflow.status();
  header.workflow_id = *workflow;
  auto processors = ExpectField(lines, 2, "processors");
  if (!processors.ok()) return processors.status();
  auto count = ParseU64Field(*processors, "processor count");
  if (!count.ok()) return count.status();
  header.processors = *count;
  auto fingerprint = ExpectField(lines, 3, "fingerprint");
  if (!fingerprint.ok()) return fingerprint.status();
  auto fp = ParseU64Field(*fingerprint, "fingerprint");
  if (!fp.ok()) return fp.status();
  header.fingerprint = *fp;
  return header;
}

std::string EncodeStepCommit(const StepCommit& commit) {
  std::string out = std::string(kStepCommitKind) + "\n";
  out += "processor " + std::to_string(commit.processor) + "\n";
  out += "workflow " + commit.record.workflow_id + "\n";
  out += "name " + commit.record.processor_name + "\n";
  out += "module " + commit.record.module_id + "\n";
  for (const Value& input : commit.record.inputs) {
    out += "in " + input.ToString() + "\n";
  }
  for (const Value& output : commit.record.outputs) {
    out += "out " + output.ToString() + "\n";
  }
  return out;
}

Result<StepCommit> DecodeStepCommit(const std::string& payload) {
  std::vector<std::string> lines = SplitLines(payload);
  if (lines.empty() || lines[0] != kStepCommitKind) {
    return Status::ParseError("not a step commit record");
  }
  StepCommit commit;
  auto processor = ExpectField(lines, 1, "processor");
  if (!processor.ok()) return processor.status();
  auto index = ParseU64Field(*processor, "processor index");
  if (!index.ok()) return index.status();
  if (*index > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::ParseError("processor index " + *processor +
                              " out of range");
  }
  commit.processor = static_cast<int>(*index);
  auto workflow = ExpectField(lines, 2, "workflow");
  if (!workflow.ok()) return workflow.status();
  commit.record.workflow_id = *workflow;
  auto name = ExpectField(lines, 3, "name");
  if (!name.ok()) return name.status();
  commit.record.processor_name = *name;
  auto module = ExpectField(lines, 4, "module");
  if (!module.ok()) return module.status();
  commit.record.module_id = *module;
  for (size_t n = 5; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    if (line.empty()) continue;
    if (StartsWith(line, "in ")) {
      auto value = Value::Parse(line.substr(3));
      if (!value.ok()) return value.status();
      commit.record.inputs.push_back(std::move(value).value());
    } else if (StartsWith(line, "out ")) {
      auto value = Value::Parse(line.substr(4));
      if (!value.ok()) return value.status();
      commit.record.outputs.push_back(std::move(value).value());
    } else {
      return Status::ParseError("step commit: unrecognized line '" + line +
                                "'");
    }
  }
  return commit;
}

}  // namespace dexa
