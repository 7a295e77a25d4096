#ifndef DEXA_KBIMAGE_BUILDER_H_
#define DEXA_KBIMAGE_BUILDER_H_

#include <string>

#include "common/io_env.h"
#include "common/result.h"
#include "kb/knowledge_base.h"
#include "ontology/ontology.h"

namespace dexa::kbimage {

/// Compiles `ontology` + `kb` into the binary image format (format.h):
/// interns every string, assigns the ontology's dense ConceptIds
/// verbatim, precomputes the subsumption bitset matrix in one pass over
/// the DAG, derives depths and the LCS matrix from its rows, copies the
/// descendants/partitions lists from the Ontology's own DFS (so the image
/// reproduces their deterministic orders bit-for-bit), serializes the KB
/// entities, and seals the result with per-section CRC-32s plus a
/// whole-image SealHash64.
///
/// Compiling the same inputs always yields the same bytes (and thus the
/// same seal) — the seal doubles as the KB fingerprint durable runs pin.
[[nodiscard]] Result<std::string> CompileKbImage(const Ontology& ontology,
                                                 const KnowledgeBase& kb);

/// CompileKbImage + atomic write (tmp file + rename) to `path` through the
/// I/O seam (`io` nullptr = real filesystem): disk faults surface typed
/// with no torn image file left behind.
[[nodiscard]] Status WriteKbImage(const Ontology& ontology,
                                  const KnowledgeBase& kb,
                                  const std::string& path,
                                  IoEnv* io = nullptr);

}  // namespace dexa::kbimage

#endif  // DEXA_KBIMAGE_BUILDER_H_
