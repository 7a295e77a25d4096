#include "durability/snapshot.h"

#include <utility>

#include "durability/trace_io.h"
#include "modules/registry_io.h"
#include "pool/pool_io.h"

namespace dexa {

Status WriteRunStateSnapshot(const std::string& dir,
                             const AnnotatedInstancePool& pool,
                             const ModuleRegistry& registry,
                             const Ontology& ontology,
                             const ProvenanceCorpus& provenance, IoEnv* io) {
  IoEnv& env = io != nullptr ? *io : IoEnv::Real();
  DEXA_RETURN_IF_ERROR(CreateDurableDir(env, dir));
  DEXA_RETURN_IF_ERROR(WriteFileAtomic(env, JoinPath(dir, kSnapshotPoolFile),
                                       SavePool(pool)));
  DEXA_RETURN_IF_ERROR(
      WriteFileAtomic(env, JoinPath(dir, kSnapshotAnnotationsFile),
                      SaveAnnotations(registry, ontology)));
  DEXA_RETURN_IF_ERROR(WriteFileAtomic(env, JoinPath(dir, kSnapshotTracesFile),
                                       SaveTraces(provenance)));
  return Status::OK();
}

Result<RestoredRunState> RestoreRunState(const std::string& dir,
                                         const Ontology& ontology,
                                         ModuleRegistry& registry,
                                         IoEnv* io) {
  IoEnv& env = io != nullptr ? *io : IoEnv::Real();
  auto pool_text = env.ReadFile(JoinPath(dir, kSnapshotPoolFile));
  if (!pool_text.ok()) return pool_text.status();
  auto annotations_text = env.ReadFile(JoinPath(dir, kSnapshotAnnotationsFile));
  if (!annotations_text.ok()) return annotations_text.status();
  auto traces_text = env.ReadFile(JoinPath(dir, kSnapshotTracesFile));
  if (!traces_text.ok()) return traces_text.status();

  RestoredRunState state(&ontology);
  auto pool = LoadPool(*pool_text, ontology);
  if (!pool.ok()) return pool.status();
  state.pool = std::move(pool).value();

  auto traces = LoadTraces(*traces_text);
  if (!traces.ok()) return traces.status();
  state.provenance = std::move(traces).value();

  // Parsed last so the registry stays untouched when the pool or trace
  // artifacts are the damaged ones (LoadAnnotations itself stages before
  // committing).
  auto restored = LoadAnnotations(*annotations_text, ontology, registry);
  if (!restored.ok()) return restored.status();
  state.modules_restored = *restored;
  return state;
}

}  // namespace dexa
