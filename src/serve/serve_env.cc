#include "serve/serve_env.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "modules/registry_io.h"
#include "serve/wire.h"

namespace dexa::serve {

namespace {

constexpr char kRunDescriptor[] = "RUN";
constexpr char kRunDirPrefix[] = "run-";

/// Parses the numeric suffix of a `run-<n>` directory name; returns false
/// for anything else.
bool ParseRunDirIndex(const std::string& name, uint64_t& index) {
  const std::string_view prefix = kRunDirPrefix;
  return StartsWith(name, prefix) &&
         ParseU64(std::string_view(name).substr(prefix.size()), &index);
}

/// A `run-<n>` directory under the journal root.
struct RunDir {
  std::string path;
  uint64_t index = 0;
};

/// The `run-<n>` directories under `root`, in name order, listed through
/// `io`. A root that cannot be listed — or holds an entry whose type cannot
/// be read — fails with a status naming it: a run-<n> the scan skipped
/// could be reused by a new run or left unresumed.
Result<std::vector<RunDir>> ListRunDirs(IoEnv& io, const std::string& root) {
  auto entries = io.ListDir(root);
  if (!entries.ok()) {
    return Status(entries.status().code(),
                  "cannot list journal root '" + root +
                      "': " + entries.status().message());
  }
  std::vector<RunDir> dirs;
  for (const DirEntry& entry : *entries) {
    uint64_t index = 0;
    if (entry.is_dir && ParseRunDirIndex(entry.name, index)) {
      dirs.push_back({JoinPath(root, entry.name), index});
    }
  }
  return dirs;
}

/// True for the kinds that journal under a `run-<n>` directory.
bool IsDurableKind(const std::string& kind) {
  return kind == "annotate_durable" || kind == "enact_durable" ||
         kind == kShardWireKind;
}

/// The RUN descriptor of a durable run: its kind, plus the workflow or the
/// shard count that kind reads.
std::string EncodeRunDescriptor(const RunSpec& spec) {
  WireMessage descriptor;
  descriptor["kind"] = spec.kind;
  if (spec.kind == "enact_durable") {
    descriptor["workflow"] = std::to_string(spec.workflow);
  } else if (spec.kind == kShardWireKind) {
    descriptor["shards"] = std::to_string(spec.shards);
  }
  return EncodeWire(descriptor) + "\n";
}

/// The spec a RUN descriptor records. A descriptor EncodeRunDescriptor
/// would not have written is refused, so a resumed run never re-arms a
/// crash plan, a disk fault or a deadline.
Result<RunSpec> DecodeRunDescriptor(const std::string& text) {
  DEXA_ASSIGN_OR_RETURN(const WireMessage descriptor, ParseWire(text));
  DEXA_ASSIGN_OR_RETURN(RunSpec spec, ParseRunSpec(descriptor));
  if (!IsDurableKind(spec.kind)) {
    return Status::InvalidArgument("kind '" + spec.kind +
                                   "' does not journal");
  }
  if (EncodeRunDescriptor(spec) != text) {
    return Status::InvalidArgument("holds fields its kind does not record");
  }
  return spec;
}

}  // namespace

Result<RunSpec> ParseRunSpec(const WireMessage& message) {
  RunSpec spec;
  spec.kind = WireGet(message, "kind", "annotate");
  // An absent numeric field keeps its default.
  const auto optional_uint = [&](const char* key, uint64_t& dst) -> Status {
    if (message.count(key) != 0) {
      DEXA_ASSIGN_OR_RETURN(dst, WireUint(message, key));
    }
    return Status::OK();
  };
  IoFaultProfile& io = spec.io_fault;
  const struct {
    const char* key;
    uint64_t* dst;
  } io_fields[] = {
      {"io_seed", &io.seed},
      {"io_enospc_after", &io.enospc_after_bytes},
      {"io_eio_write", &io.eio_write_at},
      {"io_fsync_fail", &io.fsync_fail_at},
      {"io_rename_fail", &io.rename_fail_at},
      {"io_eio_read", &io.eio_read_at},
  };
  for (const auto& field : io_fields) {
    DEXA_RETURN_IF_ERROR(optional_uint(field.key, *field.dst));
  }
  if (message.count("io_short") != 0) {
    io.short_writes = WireGet(message, "io_short") != "0";
  }
  if (io.armed() && spec.kind != "annotate_durable" &&
      spec.kind != "enact_durable") {
    return Status::InvalidArgument(
        "io_* fault injection applies to durable kinds only");
  }
  DEXA_RETURN_IF_ERROR(optional_uint("deadline_ns", spec.deadline_ns));

  if (spec.kind == "annotate") {
    DEXA_RETURN_IF_ERROR(optional_uint("offset", spec.offset));
    DEXA_RETURN_IF_ERROR(optional_uint("count", spec.count));
    spec.traced = WireGet(message, "traced") == "1";
    return spec;
  }
  if (spec.kind == "enact" || spec.kind == "enact_durable") {
    DEXA_ASSIGN_OR_RETURN(spec.workflow, WireUint(message, "workflow"));
    return spec;
  }
  if (spec.kind == kShardWireKind) {
    DEXA_RETURN_IF_ERROR(optional_uint("shards", spec.shards));
    if (spec.shards == 0 || spec.shards > 4096) {
      return Status::InvalidArgument("shards must be in [1, 4096]");
    }
  } else if (spec.kind != "annotate_durable") {
    return Status::InvalidArgument("unknown kind '" + spec.kind + "'");
  }
  // annotate_durable and shard take an optional crash injection.
  const std::string point = WireGet(message, "crash");
  if (point.empty()) return spec;
  DEXA_ASSIGN_OR_RETURN(spec.crash.point, ParseCrashPoint(point));
  spec.crash.key = WireGet(message, "crash_key");
  if (spec.crash.key.empty()) {
    return Status::InvalidArgument("crash injection needs crash_key");
  }
  return spec;
}

Result<std::unique_ptr<ServeEnv>> ServeEnv::Create(ServeEnvOptions options) {
  std::unique_ptr<ServeEnv> serve(new ServeEnv());
  serve->options_ = std::move(options);

  // Durable runs journal under run-<n> directories; continue the numbering
  // after whatever a previous daemon instance left behind. A root that
  // cannot be created or listed fails startup; a new one is durable before
  // any run is accepted into it.
  const std::string& root = serve->options_.journal_root;
  if (!root.empty()) {
    DEXA_RETURN_IF_ERROR(CreateDurableDir(serve->io(), root));
    DEXA_ASSIGN_OR_RETURN(const std::vector<RunDir> dirs,
                          ListRunDirs(serve->io(), root));
    for (const RunDir& dir : dirs) {
      serve->next_run_dir_ = std::max(serve->next_run_dir_, dir.index + 1);
    }
  }

  serve->config_ = EngineConfig()
                       .Threads(serve->options_.threads)
                       .Seed(serve->options_.seed);
  serve->engine_ = serve->config_.BuildEngine();
  auto env = BuildEvaluationEnv({}, serve->options_.kb_image_path,
                                &serve->engine_->metrics());
  if (!env.ok()) return env.status();
  serve->env_ = std::move(env).value();
  return serve;
}

std::string ServeEnv::NextRunDir() {
  return JoinPath(options_.journal_root,
                  kRunDirPrefix + std::to_string(next_run_dir_++));
}

Result<std::unique_ptr<ModuleRegistry>> ServeEnv::SubsetRegistry(
    size_t offset, size_t count) const {
  const std::vector<std::string>& ids = env_.corpus.available_ids;
  if (offset > ids.size()) {
    return Status::InvalidArgument("offset " + std::to_string(offset) +
                                   " past the " + std::to_string(ids.size()) +
                                   " available modules");
  }
  // count 0 means "to the end"; the comparison clamps without forming
  // offset + count, which wraps for counts near 2^64.
  const size_t end = (count == 0 || count >= ids.size() - offset)
                         ? ids.size()
                         : offset + count;
  auto registry = std::make_unique<ModuleRegistry>();
  for (size_t i = offset; i < end; ++i) {
    auto module = env_.corpus.registry->Find(ids[i]);
    if (!module.ok()) return module.status();
    DEXA_RETURN_IF_ERROR(registry->Register(*module));
  }
  return registry;
}

Result<std::unique_ptr<ModuleRegistry>> ServeEnv::FullRegistry() const {
  auto registry = std::make_unique<ModuleRegistry>();
  for (const ModulePtr& module : env_.corpus.registry->AllModules()) {
    DEXA_RETURN_IF_ERROR(registry->Register(module));
  }
  return registry;
}

std::unique_ptr<ExampleGenerator> ServeEnv::MakeGenerator() const {
  return std::make_unique<ExampleGenerator>(
      env_.cache, env_.pool.get(), config_.generator_options(), engine_.get());
}

Result<PreparedRun> ServeEnv::PrepareAnnotate(size_t offset, size_t count,
                                              bool traced) {
  auto registry = SubsetRegistry(offset, count);
  if (!registry.ok()) return registry.status();

  PreparedRun run;
  run.registry = std::move(*registry);
  run.generator = MakeGenerator();
  if (traced) run.tracer = std::make_unique<obs::Tracer>(&engine_->clock());
  run.request = MakeAnnotateRun(*run.generator, *run.registry);
  run.request.tracer = run.tracer.get();
  run.label = "annotate[" + std::to_string(offset) + "," +
              std::to_string(offset + run.registry->size()) + ")";
  return run;
}

Result<PreparedRun> ServeEnv::Prepare(const RunSpec& spec) {
  return Build(spec, /*resume_dir=*/"");
}

Result<PreparedRun> ServeEnv::PrepareResume(const std::string& dir) {
  DEXA_ASSIGN_OR_RETURN(const std::string text,
                        io().ReadFile(JoinPath(dir, kRunDescriptor)));
  auto spec = DecodeRunDescriptor(text);
  if (!spec.ok()) {
    return Status::Corrupted("RUN descriptor in " + dir + ": " +
                             spec.status().message());
  }
  return Build(*spec, dir);
}

Result<PreparedRun> ServeEnv::Build(const RunSpec& spec,
                                    const std::string& resume_dir) {
  if (spec.kind == "annotate") {
    auto run = PrepareAnnotate(spec.offset, spec.count, spec.traced);
    if (run.ok()) run->deadline_ns = spec.deadline_ns;
    return run;
  }
  const bool enact = spec.kind == "enact" || spec.kind == "enact_durable";
  if (!enact && !IsDurableKind(spec.kind)) {
    return Status::InvalidArgument("unknown kind '" + spec.kind + "'");
  }
  if (enact && spec.workflow >= env_.workflows.items.size()) {
    return Status::InvalidArgument(
        "workflow index " + std::to_string(spec.workflow) + " out of range (" +
        std::to_string(env_.workflows.items.size()) + " generated)");
  }
  const GeneratedWorkflow* item =
      enact ? &env_.workflows.items[spec.workflow] : nullptr;

  PreparedRun run;
  run.deadline_ns = spec.deadline_ns;
  if (spec.kind == "enact") {
    run.request = MakeEnactRun(item->workflow, *env_.corpus.registry,
                               item->seeds, *engine_);
    run.label = "enact " + item->workflow.id;
    return run;
  }

  // The durable kinds: a fresh run-<n> directory, or the resumed one.
  const bool shard = spec.kind == kShardWireKind;
  const bool resume = !resume_dir.empty();
  if (!resume && options_.journal_root.empty()) {
    return Status::InvalidArgument(
        std::string(shard ? "sharded" : "durable") +
        " runs need a journal root (--journal-root)");
  }
  if (!enact) {
    // A full copy in registration order: the journal fingerprint covers it.
    DEXA_ASSIGN_OR_RETURN(run.registry, FullRegistry());
  }
  run.journal_dir = resume ? resume_dir : NextRunDir();
  if (spec.crash.armed()) run.crash = std::make_unique<CrashPlan>(spec.crash);
  run.io = options_.io;
  if (spec.io_fault.armed()) {
    run.faulty = std::make_unique<FaultyIoEnv>(spec.io_fault, options_.io);
    run.io = run.faulty.get();
  }
  IoEnv& io = run.io != nullptr ? *run.io : IoEnv::Real();

  if (shard) {
    // The run root holds a MANIFEST and one journal per shard; the shard
    // runner resumes each shard from its own journal prefix.
    if (!resume) DEXA_RETURN_IF_ERROR(CreateDurableDir(io, run.journal_dir));
  } else {
    if (resume) {
      DEXA_ASSIGN_OR_RETURN(
          JournalRecovery recovery,
          RecoverJournal(run.journal_dir, &engine_->metrics(), &io));
      run.recovery = std::make_unique<JournalRecovery>(std::move(recovery));
    }
    auto journal =
        resume ? RunJournal::Resume(run.journal_dir, *run.recovery, {},
                                    &engine_->metrics(), &io)
               : RunJournal::Create(run.journal_dir, {}, &engine_->metrics(),
                                    &io);
    if (!journal.ok()) return journal.status();
    run.journal = std::make_unique<RunJournal>(std::move(*journal));
  }
  if (!resume) {
    DEXA_RETURN_IF_ERROR(
        WriteFileAtomic(io, JoinPath(run.journal_dir, kRunDescriptor),
                        EncodeRunDescriptor(spec)));
  }

  if (shard) {
    // ExecuteBatch hands the run to the shard runner; `request` stays at
    // its default kAnnotate kind, which status views read.
    run.sharded = std::make_unique<ShardedRunSpec>();
    run.sharded->options.shards = static_cast<uint32_t>(spec.shards);
    run.sharded->options.root = run.journal_dir;
    run.sharded->options.kb_checksum = env_.kb_checksum;
    run.sharded->options.crash = run.crash.get();
    run.sharded->options.orchestrator = engine_.get();
    run.sharded->config = config_;
    run.sharded->ontology = env_.corpus.ontology.get();
    run.sharded->pool = env_.pool.get();
    run.label = "annotate-sharded x" + std::to_string(spec.shards) + " " +
                run.journal_dir;
  } else if (enact) {
    run.request = MakeDurableEnactRun(item->workflow, *env_.corpus.registry,
                                      item->seeds, *engine_, *run.journal);
    run.label = "enact-durable " + item->workflow.id;
  } else {
    run.generator = MakeGenerator();
    run.request = MakeDurableAnnotateRun(*run.generator, *run.registry,
                                         *env_.corpus.ontology, *run.journal);
    run.request.kb_checksum = env_.kb_checksum;
    run.request.crash = run.crash.get();
    run.label = "annotate-durable " + run.journal_dir;
  }
  run.request.resume = run.recovery.get();
  if (resume) run.label = "resume " + run.journal_dir;
  return run;
}

Result<std::vector<std::string>> ServeEnv::UnfinishedJournalDirs() const {
  std::vector<std::string> unfinished;
  if (options_.journal_root.empty()) return unfinished;
  DEXA_ASSIGN_OR_RETURN(const std::vector<RunDir> dirs,
                        ListRunDirs(io(), options_.journal_root));
  for (const RunDir& dir : dirs) {
    DEXA_ASSIGN_OR_RETURN(const std::vector<DirEntry> entries,
                          io().ListDir(dir.path));
    const auto holds = [&](const char* name) {
      return std::any_of(entries.begin(), entries.end(),
                         [&](const DirEntry& e) { return e.name == name; });
    };
    if (holds(kRunDescriptor) && !holds(kDoneMarker)) {
      unfinished.push_back(dir.path);
    }
  }
  return unfinished;
}

uint64_t ServeEnv::AnnotationsDigest(const ModuleRegistry& registry) const {
  return StableHash64(SaveAnnotations(registry, *env_.corpus.ontology));
}

uint64_t ServeEnv::EnactDigest(const EnactmentResult& result) {
  std::string rendered;
  for (const Value& value : result.outputs) {
    rendered += value.ToString();
    rendered += '\n';
  }
  rendered += "missing=" + std::to_string(result.missing_outputs) + "\n";
  for (const std::string& id : result.decayed_modules) {
    rendered += "decayed=" + id + "\n";
  }
  return StableHash64(rendered);
}

}  // namespace dexa::serve
