#ifndef DEXA_MODULES_REGISTRY_IO_H_
#define DEXA_MODULES_REGISTRY_IO_H_

#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "modules/data_example.h"
#include "modules/registry.h"
#include "ontology/ontology.h"

namespace dexa {

/// The data-example block grammar, shared by the annotations file below and
/// the journal's module commit records (durability/commit_codec.h):
///
///   example
///   in <partition-concept-or--> <value>
///   out <value>
///   end
///
/// Values use Value::ToString() (single-line, escaped). Appends one block
/// per example of `examples` to `out`.
void AppendDataExamples(std::string& out, const DataExampleSet& examples,
                        const Ontology& ontology);

/// Reads the blocks AppendDataExamples writes, one line at a time, so each
/// container keeps its own framing lines (and their positions, for error
/// messages) around them.
class DataExampleParser {
 public:
  explicit DataExampleParser(const Ontology& ontology) : ontology_(ontology) {}

  /// Consumes one line of the block grammar. kParseError, with a message
  /// that names no position, for a line outside the grammar or out of
  /// place (e.g. `in` before `example`).
  [[nodiscard]] Status ParseLine(std::string_view line);

  /// True between an `example` line and its `end`.
  bool in_example() const { return in_example_; }

  /// The examples whose `end` was read so far; the parser keeps none.
  DataExampleSet TakeExamples() { return std::exchange(examples_, {}); }

 private:
  const Ontology& ontology_;
  DataExampleSet examples_;
  DataExample example_;
  bool in_example_ = false;
};

/// Serializes the registry's data-example annotations to a line-oriented
/// text format. The registry of the paper's architecture (Figure 3) is a
/// persistent store; this is its on-disk representation.
///
///   # dexa annotations v1
///   module <id> <name>
///   <data-example blocks, see AppendDataExamples>
///
/// Only modules with a non-empty annotation are emitted.
std::string SaveAnnotations(const ModuleRegistry& registry,
                            const Ontology& ontology);

/// Loads annotations saved by SaveAnnotations back into `registry`
/// (modules are matched by id and must already be registered; their stored
/// example sets are replaced). Returns the number of modules restored.
///
/// All-or-nothing: the document is staged in full before the registry is
/// touched, so a rejected file never leaves partial annotation state.
/// Malformed-but-complete input fails with kParseError; input that ends
/// mid-example fails with kCorrupted (the file was truncated, e.g. by a
/// crash or interrupted copy).
[[nodiscard]] Result<size_t> LoadAnnotations(const std::string& text,
                               const Ontology& ontology,
                               ModuleRegistry& registry);

}  // namespace dexa

#endif  // DEXA_MODULES_REGISTRY_IO_H_
