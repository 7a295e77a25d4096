#include "durability/commit_codec.h"

#include <limits>
#include <string_view>
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

Result<uint64_t> ParseU64Field(std::string_view text, const char* what) {
  uint64_t value = 0;
  if (!ParseU64(text, &value)) {
    return Status::ParseError(std::string("malformed ") + what + " '" +
                              std::string(text) + "'");
  }
  return value;
}

/// True if the next line of `lines` is `kind`, the line opening a record.
bool ReadKind(LineReader& lines, std::string_view kind) {
  std::string_view line;
  return lines.Next(&line) && line == kind;
}

/// The value of the next line of `lines`, which must read `key value`;
/// ParseError if it does not or the record has no line left.
Result<std::string_view> ExpectField(LineReader& lines, std::string_view key) {
  std::string_view line;
  if (!lines.Next(&line) || line.size() <= key.size() ||
      !StartsWith(line, key) || line[key.size()] != ' ') {
    return Status::ParseError("journal record missing '" + std::string(key) +
                              "' field");
  }
  return line.substr(key.size() + 1);
}

}  // namespace

uint64_t AnnotateConfigFingerprint(const ModuleRegistry& registry,
                                   const GeneratorOptions& options) {
  uint64_t fp = StableHash64("dexa annotate v1");
  for (const ModuleIndex index : registry.AvailableIndices()) {
    fp = HashCombine(fp, StableHash64(registry.At(index)->spec().id));
  }
  fp = HashCombine(fp, static_cast<uint64_t>(options.max_combinations));
  fp = HashCombine(fp, static_cast<uint64_t>(options.use_realization));
  fp = HashCombine(fp, static_cast<uint64_t>(options.full_cartesian));
  // Generate always tries null for optional inputs. Fingerprints have always
  // mixed in 1 for that behaviour; keeping it keeps the journal headers and
  // shard manifests already on disk valid.
  fp = HashCombine(fp, uint64_t{1});
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

Result<AnnotateRunHeader> DecodeAnnotateRunHeader(std::string_view payload) {
  LineReader lines(payload);
  if (!ReadKind(lines, kAnnotateHeaderKind)) {
    return Status::ParseError("not an annotate run header record");
  }
  AnnotateRunHeader header;
  DEXA_ASSIGN_OR_RETURN(const std::string_view modules,
                        ExpectField(lines, "modules"));
  DEXA_ASSIGN_OR_RETURN(header.modules,
                        ParseU64Field(modules, "module count"));
  DEXA_ASSIGN_OR_RETURN(const std::string_view fingerprint,
                        ExpectField(lines, "fingerprint"));
  DEXA_ASSIGN_OR_RETURN(header.fingerprint,
                        ParseU64Field(fingerprint, "fingerprint"));
  std::string_view line;
  if (lines.Next(&line) && StartsWith(line, "kb_checksum ")) {
    DEXA_ASSIGN_OR_RETURN(header.kb_checksum,
                          ParseU64Field(line.substr(12), "kb checksum"));
  }
  return header;
}

std::string EncodeModuleCommit(const ModuleCommit& commit,
                               const Ontology& ontology) {
  std::string out = kModuleCommitKind;
  out += "\nid ";
  out += commit.module_id;
  out += commit.decayed ? "\ndecayed 1" : "\ndecayed 0";
  out += "\ntransient_exhausted ";
  out += std::to_string(commit.transient_exhausted);
  out += '\n';
  AppendDataExamples(out, commit.examples, ontology);
  return out;
}

Result<ModuleCommit> DecodeModuleCommit(std::string_view payload,
                                        const Ontology& ontology) {
  LineReader lines(payload);
  if (!ReadKind(lines, kModuleCommitKind)) {
    return Status::ParseError("not a module commit record");
  }
  ModuleCommit commit;
  DEXA_ASSIGN_OR_RETURN(const std::string_view id, ExpectField(lines, "id"));
  commit.module_id = id;
  DEXA_ASSIGN_OR_RETURN(const std::string_view decayed,
                        ExpectField(lines, "decayed"));
  if (decayed != "0" && decayed != "1") {
    return Status::ParseError("malformed decayed flag '" +
                              std::string(decayed) + "'");
  }
  commit.decayed = decayed == "1";
  DEXA_ASSIGN_OR_RETURN(const std::string_view exhausted,
                        ExpectField(lines, "transient_exhausted"));
  DEXA_ASSIGN_OR_RETURN(commit.transient_exhausted,
                        ParseU64Field(exhausted, "transient_exhausted"));

  // The data-example blocks start on the record's fifth line.
  DataExampleParser parser(ontology);
  std::string_view line;
  for (size_t number = 5; lines.Next(&line); ++number) {
    if (line.empty()) continue;
    Status parsed = parser.ParseLine(line);
    if (!parsed.ok()) {
      return Status::ParseError("module commit line " +
                                std::to_string(number) + ": " +
                                parsed.message());
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

Result<EnactRunHeader> DecodeEnactRunHeader(std::string_view payload) {
  LineReader lines(payload);
  if (!ReadKind(lines, kEnactHeaderKind)) {
    return Status::ParseError("not an enact run header record");
  }
  EnactRunHeader header;
  DEXA_ASSIGN_OR_RETURN(const std::string_view workflow,
                        ExpectField(lines, "workflow"));
  header.workflow_id = workflow;
  DEXA_ASSIGN_OR_RETURN(const std::string_view processors,
                        ExpectField(lines, "processors"));
  DEXA_ASSIGN_OR_RETURN(header.processors,
                        ParseU64Field(processors, "processor count"));
  DEXA_ASSIGN_OR_RETURN(const std::string_view fingerprint,
                        ExpectField(lines, "fingerprint"));
  DEXA_ASSIGN_OR_RETURN(header.fingerprint,
                        ParseU64Field(fingerprint, "fingerprint"));
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

Result<StepCommit> DecodeStepCommit(std::string_view payload) {
  LineReader lines(payload);
  if (!ReadKind(lines, kStepCommitKind)) {
    return Status::ParseError("not a step commit record");
  }
  StepCommit commit;
  DEXA_ASSIGN_OR_RETURN(const std::string_view processor,
                        ExpectField(lines, "processor"));
  DEXA_ASSIGN_OR_RETURN(const uint64_t index,
                        ParseU64Field(processor, "processor index"));
  if (index > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::ParseError("processor index " + std::string(processor) +
                              " out of range");
  }
  commit.processor = static_cast<int>(index);
  DEXA_ASSIGN_OR_RETURN(const std::string_view workflow,
                        ExpectField(lines, "workflow"));
  commit.record.workflow_id = workflow;
  DEXA_ASSIGN_OR_RETURN(const std::string_view name,
                        ExpectField(lines, "name"));
  commit.record.processor_name = name;
  DEXA_ASSIGN_OR_RETURN(const std::string_view module,
                        ExpectField(lines, "module"));
  commit.record.module_id = module;
  std::string_view line;
  while (lines.Next(&line)) {
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
      return Status::ParseError("step commit: unrecognized line '" +
                                std::string(line) + "'");
    }
  }
  return commit;
}

}  // namespace dexa
