#ifndef DEXA_SERVE_SERVE_ENV_H_
#define DEXA_SERVE_SERVE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine_config.h"
#include "corpus/corpus.h"
#include "durability/evaluation_env.h"
#include "serve/run_manager.h"
#include "serve/wire.h"

namespace dexa::serve {

/// Configuration of the shared serving environment.
struct ServeEnvOptions {
  /// Compiled KB image to serve from; "" builds the in-memory corpus.
  std::string kb_image_path;

  /// Directory durable runs journal under (one `run-<n>` subdirectory per
  /// run). "" disables the durable kinds.
  std::string journal_root;

  /// Worker threads of the shared engine (0 = hardware concurrency).
  size_t threads = 1;

  /// Engine seed — per-task RNG streams fork from it, so it pins the whole
  /// run output.
  uint64_t seed = 0x5eed;
};

/// One run as a client asks for it: the fields of a submit request, parsed
/// once. ServeEnv::Prepare builds every kind from it, and a durable run's
/// RUN descriptor records exactly its kind, workflow and shards, so a
/// restarted daemon rebuilds the run from the same spec.
struct RunSpec {
  /// annotate | annotate_durable | enact | enact_durable | shard.
  std::string kind = "annotate";
  uint64_t offset = 0;  ///< annotate: first available module.
  uint64_t count = 0;   ///< annotate: modules, 0 = through the end.
  bool traced = false;  ///< annotate: attach a per-run Tracer.
  uint64_t workflow = 0;  ///< enact kinds: index into the workflow corpus.
  uint64_t shards = 1;    ///< shard: 1..4096.
  /// annotate_durable, shard: injected crash. Never recorded in RUN.
  CrashPlan crash;
  /// annotate_durable, enact_durable: injected disk faults, through a
  /// per-run FaultyIoEnv. Never recorded in RUN.
  IoFaultProfile io_fault;
  /// Virtual-clock queue deadline, 0 = the manager default. Never recorded.
  uint64_t deadline_ns = 0;
};

/// Parses the run fields of a submit request (or of a RUN descriptor): the
/// io_* fault fields, deadline_ns, then the kind's own fields. Every error
/// is kInvalidArgument.
[[nodiscard]] Result<RunSpec> ParseRunSpec(const WireMessage& message);

/// Everything the daemon shares across runs — corpus, ontology, concept
/// cache, workflow corpus, instance pool, and ONE pooled InvocationEngine —
/// plus the builder that turns a RunSpec into a PreparedRun. Create calls
/// BuildEvaluationEnv, as the CLI does, so every run the daemon executes is
/// byte-identical to the same run issued one-shot from the command line
/// (the serve equivalence suite pins this).
///
/// Isolation model: runs share the immutable state (KB, ontology, cache,
/// pool, modules) and the engine, but each PreparedRun gets its own
/// ModuleRegistry (annotations land per-run), its own ExampleGenerator,
/// journal and tracer — concurrent tenants cannot observe each other's
/// annotations or journals.
class ServeEnv {
 public:
  [[nodiscard]] static Result<std::unique_ptr<ServeEnv>> Create(
      ServeEnvOptions options);

  ServeEnv(const ServeEnv&) = delete;
  ServeEnv& operator=(const ServeEnv&) = delete;

  // -- Run factories -------------------------------------------------------

  /// Builds the run `spec` describes. Durable kinds journal under a fresh
  /// `run-<n>` directory and write its RUN descriptor there, through the
  /// run's FaultyIoEnv when `spec.io_fault` is armed; an enact run's
  /// workflow index is checked before any directory is allocated.
  [[nodiscard]] Result<PreparedRun> Prepare(const RunSpec& spec);

  /// Annotation of `count` available modules starting at `offset` (count 0
  /// = through the end), in a per-run subset registry. Example generation
  /// is module-local, so each module's annotation is byte-identical to the
  /// one a full-registry run produces. `traced` attaches a per-run Tracer.
  [[nodiscard]] Result<PreparedRun> PrepareAnnotate(size_t offset,
                                                    size_t count, bool traced);

  /// Resumes the durable run journaled in `dir`: parses its RUN descriptor
  /// with ParseRunSpec and runs Prepare's builder over the recovered
  /// journal. A descriptor that does not parse, names a kind that does not
  /// journal, or holds fields its kind does not record fails kCorrupted
  /// before the journal is touched.
  [[nodiscard]] Result<PreparedRun> PrepareResume(const std::string& dir);

  /// Journal directories under journal_root holding an unfinished durable
  /// run (RUN descriptor present, DONE marker absent), sorted. These are
  /// the runs a restarted daemon resumes at startup. A root or run
  /// directory that cannot be listed fails typed, never reads as "nothing
  /// to resume".
  [[nodiscard]] Result<std::vector<std::string>> UnfinishedJournalDirs()
      const;

  // -- Shared state --------------------------------------------------------

  InvocationEngine& engine() { return *engine_; }
  const Corpus& corpus() const { return env_.corpus; }
  size_t workflow_count() const { return env_.workflows.items.size(); }
  size_t available_modules() const {
    return env_.corpus.available_ids.size();
  }
  uint64_t kb_checksum() const { return env_.kb_checksum; }
  const std::string& journal_root() const { return options_.journal_root; }

  /// Stable digest of a run registry's annotations — what clients compare
  /// against a one-shot run to check byte-identical results.
  uint64_t AnnotationsDigest(const ModuleRegistry& registry) const;

  /// Stable digest of an enactment's outputs.
  static uint64_t EnactDigest(const EnactmentResult& result);

 private:
  ServeEnv() = default;

  /// The builder behind Prepare and PrepareResume: a fresh run when
  /// `resume_dir` is "", otherwise the run whose journal is in `resume_dir`.
  [[nodiscard]] Result<PreparedRun> Build(const RunSpec& spec,
                                          const std::string& resume_dir);

  /// Allocates the next `run-<n>` journal directory name.
  std::string NextRunDir();

  /// Per-run registry holding available modules [offset, offset+count).
  [[nodiscard]] Result<std::unique_ptr<ModuleRegistry>> SubsetRegistry(
      size_t offset, size_t count) const;

  /// Per-run full copy of the corpus registry, registration order
  /// preserved (durable runs: the journal fingerprint covers it).
  [[nodiscard]] Result<std::unique_ptr<ModuleRegistry>> FullRegistry() const;

  std::unique_ptr<ExampleGenerator> MakeGenerator() const;

  ServeEnvOptions options_;
  EngineConfig config_;
  std::unique_ptr<InvocationEngine> engine_;
  /// Declared after engine_, so it is destroyed first: its cache holds a
  /// pointer to the engine's metrics.
  EvaluationEnv env_;
  uint64_t next_run_dir_ = 0;
};

}  // namespace dexa::serve

#endif  // DEXA_SERVE_SERVE_ENV_H_
