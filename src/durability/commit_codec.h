#ifndef DEXA_DURABILITY_COMMIT_CODEC_H_
#define DEXA_DURABILITY_COMMIT_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/example_generator.h"
#include "modules/data_example.h"
#include "modules/registry.h"
#include "ontology/ontology.h"
#include "workflow/enactor.h"

namespace dexa {

/// The payload grammar of journal records. Every record is a small
/// line-oriented text document whose first line names the record kind;
/// the journal framing (length + CRC32) guarantees each decoded payload is
/// byte-exact, so the codec never has to defend against truncation — only
/// against records from a different run (fingerprint mismatch). Decoders
/// read the payload as views into it, one line at a time (LineReader,
/// common/strings.h), and copy only the fields a record keeps.

/// First record of every annotation journal: identifies the run so a resume
/// against a different registry or generator configuration is rejected
/// instead of silently replaying foreign results.
struct AnnotateRunHeader {
  uint64_t modules = 0;      ///< AvailableModules() count at run start.
  uint64_t fingerprint = 0;  ///< AnnotateConfigFingerprint of the run.
  /// Seal of the compiled KB image the run reasons over, or 0 for the
  /// in-memory backend. A resume whose image checksum differs refuses to
  /// replay: the journal's commits were derived from a different KB.
  /// Encoded only when nonzero, so in-memory journals are byte-identical
  /// to the pre-image format (old journals decode with checksum 0).
  uint64_t kb_checksum = 0;
};

/// Stable hash of everything the journal's replay semantics depend on: the
/// available module ids in registration order and the generator options.
/// Two runs with equal fingerprints produce identical per-module outcomes,
/// so one may replay the other's journal.
uint64_t AnnotateConfigFingerprint(const ModuleRegistry& registry,
                                   const GeneratorOptions& options);

std::string EncodeAnnotateRunHeader(const AnnotateRunHeader& header);
[[nodiscard]] Result<AnnotateRunHeader> DecodeAnnotateRunHeader(
    std::string_view payload);

/// One committed module annotation (ModuleCommit, core/example_generator.h):
/// an id/decayed/transient_exhausted preamble, then the data-example blocks
/// of modules/registry_io.h. `decayed` decodes from `0` or `1` only.
std::string EncodeModuleCommit(const ModuleCommit& commit,
                               const Ontology& ontology);
[[nodiscard]] Result<ModuleCommit> DecodeModuleCommit(
    std::string_view payload, const Ontology& ontology);

/// First record of every enactment journal.
struct EnactRunHeader {
  std::string workflow_id;
  uint64_t processors = 0;
  uint64_t fingerprint = 0;  ///< Hash of workflow id + input values.
};

uint64_t EnactConfigFingerprint(const std::string& workflow_id,
                                const std::vector<Value>& inputs);

std::string EncodeEnactRunHeader(const EnactRunHeader& header);
[[nodiscard]] Result<EnactRunHeader> DecodeEnactRunHeader(
    std::string_view payload);

/// One committed enactment step: the processor index in the workflow's
/// processor list plus the full invocation record, so a resumed enactment
/// serves the outputs (and re-emits the provenance) without re-invoking.
/// A processor index above INT_MAX does not decode.
struct StepCommit {
  int processor = -1;
  InvocationRecord record;
};

std::string EncodeStepCommit(const StepCommit& commit);
[[nodiscard]] Result<StepCommit> DecodeStepCommit(std::string_view payload);

}  // namespace dexa

#endif  // DEXA_DURABILITY_COMMIT_CODEC_H_
