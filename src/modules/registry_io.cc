#include "modules/registry_io.h"

#include <utility>

#include "common/strings.h"

namespace dexa {

namespace {
constexpr const char* kHeader = "# dexa annotations v1";
}  // namespace

void AppendDataExamples(std::string& out, const DataExampleSet& examples,
                        const Ontology& ontology) {
  for (const DataExample& example : examples) {
    out += "example\n";
    for (size_t i = 0; i < example.inputs.size(); ++i) {
      ConceptId partition = i < example.input_partitions.size()
                                ? example.input_partitions[i]
                                : kInvalidConcept;
      out += "in ";
      if (partition == kInvalidConcept) {
        out += '-';
      } else {
        out += ontology.NameOf(partition);
      }
      out += ' ';
      example.inputs[i].AppendTo(out);
      out += '\n';
    }
    for (const Value& output : example.outputs) {
      out += "out ";
      output.AppendTo(out);
      out += '\n';
    }
    out += "end\n";
  }
}

Status DataExampleParser::ParseLine(std::string_view line) {
  if (line == "example") {
    if (in_example_) return Status::ParseError("nested example");
    in_example_ = true;
    example_ = DataExample();
  } else if (StartsWith(line, "in ")) {
    if (!in_example_) return Status::ParseError("'in' outside an example");
    std::string_view rest = line.substr(3);
    size_t space = rest.find(' ');
    if (space == std::string_view::npos) {
      return Status::ParseError("malformed 'in' line");
    }
    const std::string_view concept_name = rest.substr(0, space);
    ConceptId partition = kInvalidConcept;
    if (concept_name != "-") {
      partition = ontology_.Find(concept_name);
      if (partition == kInvalidConcept) {
        return Status::ParseError("unknown concept '" +
                                  std::string(concept_name) + "'");
      }
    }
    auto value = Value::Parse(rest.substr(space + 1));
    if (!value.ok()) return Status::ParseError(value.status().ToString());
    example_.inputs.push_back(std::move(value).value());
    example_.input_partitions.push_back(partition);
  } else if (StartsWith(line, "out ")) {
    if (!in_example_) return Status::ParseError("'out' outside an example");
    auto value = Value::Parse(line.substr(4));
    if (!value.ok()) return Status::ParseError(value.status().ToString());
    example_.outputs.push_back(std::move(value).value());
  } else if (line == "end") {
    if (!in_example_) return Status::ParseError("'end' outside an example");
    in_example_ = false;
    examples_.push_back(std::move(example_));
  } else {
    return Status::ParseError("unrecognized line '" + std::string(line) +
                              "'");
  }
  return Status::OK();
}

std::string SaveAnnotations(const ModuleRegistry& registry,
                            const Ontology& ontology) {
  std::string out = std::string(kHeader) + "\n";
  for (ModuleIndex index = 0; index < registry.size(); ++index) {
    const DataExampleSet& examples = registry.DataExamplesAt(index);
    if (examples.empty()) continue;
    const ModuleSpec& spec = registry.At(index)->spec();
    out += "module ";
    out += spec.id;
    out += ' ';
    out += spec.name;
    out += '\n';
    AppendDataExamples(out, examples, ontology);
  }
  return out;
}

Result<size_t> LoadAnnotations(const std::string& text,
                               const Ontology& ontology,
                               ModuleRegistry& registry) {
  std::vector<std::string> lines = SplitLines(text);
  if (lines.empty() || lines[0] != kHeader) {
    return Status::ParseError("missing dexa annotations header");
  }

  // Stage-then-commit: everything parses into `staged` first and the
  // registry is only mutated after the whole document checked out, so a
  // malformed or truncated file can never leave partial annotation state
  // behind.
  std::vector<std::pair<std::string, DataExampleSet>> staged;
  std::string current_module;
  DataExampleParser parser(ontology);

  auto flush_module = [&]() {
    if (current_module.empty()) return;
    staged.emplace_back(current_module, parser.TakeExamples());
  };

  for (size_t n = 1; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    auto err = [&](const std::string& msg) {
      return Status::ParseError("line " + std::to_string(n + 1) + ": " + msg);
    };
    if (line.empty() || line[0] == '#') continue;
    if (StartsWith(line, "module ")) {
      if (parser.in_example()) return err("'module' inside an example");
      flush_module();
      std::vector<std::string> parts = Split(line, ' ');
      if (parts.size() < 2) return err("malformed module line");
      current_module = parts[1];
      if (!registry.Find(current_module).ok()) {
        return err("unknown module id '" + current_module + "'");
      }
      continue;
    }
    if (line == "example" && current_module.empty()) {
      return err("'example' before any module");
    }
    Status parsed = parser.ParseLine(line);
    if (!parsed.ok()) return err(parsed.message());
  }
  if (parser.in_example()) {
    // The document stops mid-example: a truncation (half-written file,
    // interrupted copy), not a grammar error.
    return Status::Corrupted("annotations file ends inside an example");
  }
  flush_module();

  for (auto& [module_id, examples] : staged) {
    DEXA_RETURN_IF_ERROR(
        registry.SetDataExamples(module_id, std::move(examples)));
  }
  return staged.size();
}

}  // namespace dexa
