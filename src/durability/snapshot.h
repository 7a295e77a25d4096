#ifndef DEXA_DURABILITY_SNAPSHOT_H_
#define DEXA_DURABILITY_SNAPSHOT_H_

#include <string>

#include "common/io_env.h"
#include "common/result.h"
#include "modules/registry.h"
#include "ontology/ontology.h"
#include "pool/instance_pool.h"
#include "provenance/trace.h"

namespace dexa {

/// File names of the three run-state artifacts inside a snapshot directory.
inline constexpr const char* kSnapshotPoolFile = "pool.dexa";
inline constexpr const char* kSnapshotAnnotationsFile = "annotations.dexa";
inline constexpr const char* kSnapshotTracesFile = "traces.dexa";

/// The full durable state of an annotation run, snapshotted together: the
/// annotated instance pool, the per-module data-example annotations, and
/// the provenance trace corpus. Each artifact is written with
/// WriteFileAtomic through `io` (nullptr = the real filesystem), so a crash
/// between files leaves a mix of old and new artifacts but never a torn one.
[[nodiscard]] Status WriteRunStateSnapshot(const std::string& dir,
                             const AnnotatedInstancePool& pool,
                             const ModuleRegistry& registry,
                             const Ontology& ontology,
                             const ProvenanceCorpus& provenance,
                             IoEnv* io = nullptr);

/// What RestoreRunState recovered from a snapshot directory.
struct RestoredRunState {
  AnnotatedInstancePool pool;
  ProvenanceCorpus provenance;
  /// Modules whose annotations were restored into the registry.
  size_t modules_restored = 0;

  explicit RestoredRunState(const Ontology* ontology) : pool(ontology) {}
};

/// Restores a WriteRunStateSnapshot directory, reading through `io`
/// (nullptr = the real filesystem): parses the pool and trace artifacts and
/// loads the annotations back into `registry`. Corrupt or truncated
/// artifacts surface as typed errors (kCorrupted / kParseError) from the
/// underlying readers — never partial state: `registry` is only mutated
/// after every artifact parsed cleanly.
[[nodiscard]] Result<RestoredRunState> RestoreRunState(const std::string& dir,
                                         const Ontology& ontology,
                                         ModuleRegistry& registry,
                                         IoEnv* io = nullptr);

}  // namespace dexa

#endif  // DEXA_DURABILITY_SNAPSHOT_H_
