#include "serve/serve_env.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "modules/registry_io.h"
#include "serve/wire.h"

namespace dexa::serve {

namespace {

constexpr char kRunDescriptor[] = "RUN";
constexpr char kDoneMarker[] = "DONE";
constexpr char kRunDirPrefix[] = "run-";

Status WriteTextFile(IoEnv& io, const std::filesystem::path& path,
                     const std::string& content) {
  return WriteFileAtomic(io, path.string(), content);
}

Result<std::string> ReadTextFile(const std::filesystem::path& path) {
  auto content = IoEnv::Real().ReadFile(path.string());
  if (!content.ok() && content.status().IsNotFound()) {
    return Status::NotFound("cannot read " + path.string());
  }
  return content;
}

/// Parses the numeric suffix of a `run-<n>` directory name; returns false
/// for anything else.
bool ParseRunDirIndex(const std::string& name, uint64_t& index) {
  const std::string_view prefix = kRunDirPrefix;
  return StartsWith(name, prefix) &&
         ParseU64(std::string_view(name).substr(prefix.size()), &index);
}

}  // namespace

Result<std::unique_ptr<ServeEnv>> ServeEnv::Create(ServeEnvOptions options) {
  std::unique_ptr<ServeEnv> env(new ServeEnv());
  env->options_ = std::move(options);
  env->config_ =
      EngineConfig().Threads(env->options_.threads).Seed(env->options_.seed);
  env->engine_ = env->config_.BuildEngine();

  // Same recipe as the CLI's BuildEnv: reason over the mapped image when
  // one is given, else compile the in-memory ontology — the same tables
  // either way, so both produce byte-identical runs.
  CorpusOptions corpus_options;
  if (!env->options_.kb_image_path.empty()) {
    auto image = kbimage::CompiledKb::Load(env->options_.kb_image_path);
    if (!image.ok()) return image.status();
    env->kb_image_ =
        std::shared_ptr<const kbimage::CompiledKb>(std::move(image).value());
    env->kb_checksum_ = env->kb_image_->checksum();
    env->engine_->metrics().Add(EngineCounter::kb_image_loads);
    auto ontology = env->kb_image_->MaterializeOntology();
    if (!ontology.ok()) return ontology.status();
    corpus_options.prebuilt_ontology =
        std::make_shared<Ontology>(std::move(ontology).value());
    auto kb = env->kb_image_->MaterializeKnowledgeBase();
    if (!kb.ok()) return kb.status();
    corpus_options.prebuilt_kb = std::move(kb).value();
    corpus_options.seed = env->kb_image_->kb_seed();
  }
  auto corpus = BuildCorpus(corpus_options);
  if (!corpus.ok()) return corpus.status();
  env->corpus_ = std::move(corpus).value();
  if (env->kb_image_ != nullptr) {
    env->cache_ = std::make_shared<ConceptCache>(env->kb_image_,
                                                 &env->engine_->metrics());
  } else {
    env->cache_ = std::make_shared<ConceptCache>(env->corpus_.ontology.get(),
                                                 &env->engine_->metrics());
  }
  auto workflows = GenerateWorkflowCorpus(env->corpus_);
  if (!workflows.ok()) return workflows.status();
  env->workflows_ = std::move(workflows).value();
  auto provenance = BuildProvenanceCorpus(env->corpus_, env->workflows_);
  if (!provenance.ok()) return provenance.status();
  env->provenance_ = std::move(provenance).value();
  env->pool_ = std::make_unique<AnnotatedInstancePool>(
      HarvestPool(env->provenance_, *env->corpus_.registry,
                  *env->corpus_.ontology));

  // Durable runs journal under run-<n> directories; continue the numbering
  // after whatever a previous daemon instance left behind.
  if (!env->options_.journal_root.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(env->options_.journal_root, ec);
    for (const auto& entry : std::filesystem::directory_iterator(
             env->options_.journal_root, ec)) {
      uint64_t index = 0;
      if (entry.is_directory() &&
          ParseRunDirIndex(entry.path().filename().string(), index)) {
        if (index >= env->next_run_dir_) env->next_run_dir_ = index + 1;
      }
    }
  }
  return env;
}

std::string ServeEnv::NextRunDir() {
  return (std::filesystem::path(options_.journal_root) /
          (kRunDirPrefix + std::to_string(next_run_dir_++)))
      .string();
}

Result<std::unique_ptr<ModuleRegistry>> ServeEnv::SubsetRegistry(
    size_t offset, size_t count) const {
  const std::vector<std::string>& ids = corpus_.available_ids;
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
    auto module = corpus_.registry->Find(ids[i]);
    if (!module.ok()) return module.status();
    DEXA_RETURN_IF_ERROR(registry->Register(*module));
  }
  return registry;
}

Result<std::unique_ptr<ModuleRegistry>> ServeEnv::FullRegistry() const {
  auto registry = std::make_unique<ModuleRegistry>();
  for (const ModulePtr& module : corpus_.registry->AllModules()) {
    DEXA_RETURN_IF_ERROR(registry->Register(module));
  }
  return registry;
}

std::unique_ptr<ExampleGenerator> ServeEnv::MakeGenerator() const {
  return std::make_unique<ExampleGenerator>(
      cache_, pool_.get(), config_.generator_options(), engine_.get());
}

Result<PreparedRun> ServeEnv::PrepareAnnotate(size_t offset, size_t count,
                                              bool traced) {
  auto registry = SubsetRegistry(offset, count);
  if (!registry.ok()) return registry.status();

  PreparedRun run;
  run.registry = std::move(*registry);
  run.generator = MakeGenerator();
  run.metrics = std::make_unique<obs::MetricsRegistry>();
  if (traced) run.tracer = std::make_unique<obs::Tracer>(&engine_->clock());
  run.request = MakeAnnotateRun(*run.generator, *run.registry);
  run.request.obs.metrics = run.metrics.get();
  run.request.obs.tracer = run.tracer.get();
  run.label = "annotate[" + std::to_string(offset) + "," +
              std::to_string(offset + run.registry->size()) + ")";
  return run;
}

Result<PreparedRun> ServeEnv::PrepareDurableAnnotate(
    const CrashPlan* crash, const IoFaultProfile* io_fault) {
  if (options_.journal_root.empty()) {
    return Status::InvalidArgument(
        "durable runs need a journal root (--journal-root)");
  }
  auto registry = FullRegistry();
  if (!registry.ok()) return registry.status();

  PreparedRun run;
  run.registry = std::move(*registry);
  run.generator = MakeGenerator();
  run.metrics = std::make_unique<obs::MetricsRegistry>();
  run.journal_dir = NextRunDir();
  if (io_fault != nullptr && io_fault->armed()) {
    run.io = std::make_unique<FaultyIoEnv>(*io_fault);
  }
  IoEnv& io = run.io != nullptr ? *run.io : IoEnv::Real();
  auto journal =
      RunJournal::Create(run.journal_dir, {}, &engine_->metrics(), &io);
  if (!journal.ok()) return journal.status();
  run.journal = std::make_unique<RunJournal>(std::move(*journal));
  WireMessage descriptor;
  descriptor["kind"] = WireKindName(RunKind::kAnnotate, /*durable=*/true);
  DEXA_RETURN_IF_ERROR(WriteTextFile(
      io, std::filesystem::path(run.journal_dir) / kRunDescriptor,
      EncodeWire(descriptor) + "\n"));

  run.request = MakeDurableAnnotateRun(*run.generator, *run.registry,
                                       *corpus_.ontology, *run.journal);
  run.request.kb_checksum = kb_checksum_;
  run.request.obs.metrics = run.metrics.get();
  if (crash != nullptr && crash->armed()) {
    run.crash = std::make_unique<CrashPlan>(*crash);
    run.request.crash = run.crash.get();
  }
  run.label = "annotate-durable " + run.journal_dir;
  return run;
}

Result<PreparedRun> ServeEnv::PrepareShardedAnnotate(uint32_t shards,
                                                     const CrashPlan* crash) {
  if (options_.journal_root.empty()) {
    return Status::InvalidArgument(
        "sharded runs need a journal root (--journal-root)");
  }
  if (shards == 0) {
    return Status::InvalidArgument("sharded runs need at least one shard");
  }
  auto registry = FullRegistry();
  if (!registry.ok()) return registry.status();

  PreparedRun run;
  run.registry = std::move(*registry);
  run.metrics = std::make_unique<obs::MetricsRegistry>();
  run.journal_dir = NextRunDir();

  run.sharded = std::make_unique<ShardedRunSpec>();
  run.sharded->options.shards = shards;
  run.sharded->options.root = run.journal_dir;
  run.sharded->options.kb_checksum = kb_checksum_;
  run.sharded->options.orchestrator = engine_.get();
  run.sharded->config = config_;
  run.sharded->ontology = corpus_.ontology.get();
  run.sharded->pool = pool_.get();
  if (crash != nullptr && crash->armed()) {
    run.crash = std::make_unique<CrashPlan>(*crash);
    run.sharded->options.crash = run.crash.get();
  }

  // The request itself is never submitted (the shard runner submits one
  // RunRequest per shard); its default kAnnotate kind feeds status views.
  WireMessage descriptor;
  descriptor["kind"] = kShardWireKind;
  descriptor["shards"] = std::to_string(shards);
  IoEnv& io = IoEnv::Real();
  DEXA_RETURN_IF_ERROR(io.CreateDirs(run.journal_dir));
  DEXA_RETURN_IF_ERROR(WriteTextFile(
      io, std::filesystem::path(run.journal_dir) / kRunDescriptor,
      EncodeWire(descriptor) + "\n"));
  run.label = "annotate-sharded x" + std::to_string(shards) + " " +
              run.journal_dir;
  return run;
}

Result<PreparedRun> ServeEnv::PrepareEnact(size_t workflow_index,
                                           bool durable,
                                           const IoFaultProfile* io_fault) {
  if (workflow_index >= workflows_.items.size()) {
    return Status::InvalidArgument(
        "workflow index " + std::to_string(workflow_index) + " out of range (" +
        std::to_string(workflows_.items.size()) + " generated)");
  }
  const GeneratedWorkflow& item = workflows_.items[workflow_index];

  PreparedRun run;
  run.metrics = std::make_unique<obs::MetricsRegistry>();
  if (!durable) {
    run.request = MakeEnactRun(item.workflow, *corpus_.registry, item.seeds,
                               *engine_);
    run.request.obs.metrics = run.metrics.get();
    run.label = "enact " + item.workflow.id;
    return run;
  }
  if (options_.journal_root.empty()) {
    return Status::InvalidArgument(
        "durable runs need a journal root (--journal-root)");
  }
  run.journal_dir = NextRunDir();
  if (io_fault != nullptr && io_fault->armed()) {
    run.io = std::make_unique<FaultyIoEnv>(*io_fault);
  }
  IoEnv& io = run.io != nullptr ? *run.io : IoEnv::Real();
  auto journal =
      RunJournal::Create(run.journal_dir, {}, &engine_->metrics(), &io);
  if (!journal.ok()) return journal.status();
  run.journal = std::make_unique<RunJournal>(std::move(*journal));
  WireMessage descriptor;
  descriptor["kind"] = WireKindName(RunKind::kEnact, /*durable=*/true);
  descriptor["workflow"] = std::to_string(workflow_index);
  DEXA_RETURN_IF_ERROR(WriteTextFile(
      io, std::filesystem::path(run.journal_dir) / kRunDescriptor,
      EncodeWire(descriptor) + "\n"));
  run.request = MakeDurableEnactRun(item.workflow, *corpus_.registry,
                                    item.seeds, *engine_, *run.journal);
  run.request.obs.metrics = run.metrics.get();
  run.label = "enact-durable " + item.workflow.id;
  return run;
}

Result<PreparedRun> ServeEnv::PrepareResume(const std::string& dir) {
  auto descriptor_text =
      ReadTextFile(std::filesystem::path(dir) / kRunDescriptor);
  if (!descriptor_text.ok()) return descriptor_text.status();
  std::string line = *descriptor_text;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  auto descriptor = ParseWire(line);
  if (!descriptor.ok()) return descriptor.status();
  const std::string kind = WireGet(*descriptor, "kind");

  if (kind == kShardWireKind) {
    // The run root holds a MANIFEST and per-shard journal directories, not
    // wal segments — no root-level journal to recover. The shard runner
    // resumes each shard from its own journal prefix; shards that already
    // completed replay, the rest re-run.
    auto shards = WireUint(*descriptor, "shards");
    if (!shards.ok()) return shards.status();
    if (*shards == 0) {
      return Status::Corrupted("RUN descriptor in " + dir +
                               " pins zero shards");
    }
    auto registry = FullRegistry();
    if (!registry.ok()) return registry.status();
    PreparedRun run;
    run.registry = std::move(*registry);
    run.metrics = std::make_unique<obs::MetricsRegistry>();
    run.journal_dir = dir;
    run.sharded = std::make_unique<ShardedRunSpec>();
    run.sharded->options.shards = static_cast<uint32_t>(*shards);
    run.sharded->options.root = dir;
    run.sharded->options.kb_checksum = kb_checksum_;
    run.sharded->options.orchestrator = engine_.get();
    run.sharded->config = config_;
    run.sharded->ontology = corpus_.ontology.get();
    run.sharded->pool = pool_.get();
    run.label = "resume " + dir;
    return run;
  }

  auto recovery = RecoverJournal(dir, &engine_->metrics());
  if (!recovery.ok()) return recovery.status();

  PreparedRun run;
  run.recovery = std::make_unique<JournalRecovery>(std::move(*recovery));
  auto journal =
      RunJournal::Resume(dir, *run.recovery, {}, &engine_->metrics());
  if (!journal.ok()) return journal.status();
  run.journal = std::make_unique<RunJournal>(std::move(*journal));
  run.journal_dir = dir;
  run.metrics = std::make_unique<obs::MetricsRegistry>();

  if (kind == WireKindName(RunKind::kAnnotate, /*durable=*/true)) {
    auto registry = FullRegistry();
    if (!registry.ok()) return registry.status();
    run.registry = std::move(*registry);
    run.generator = MakeGenerator();
    run.request = MakeDurableAnnotateRun(*run.generator, *run.registry,
                                         *corpus_.ontology, *run.journal);
    run.request.kb_checksum = kb_checksum_;
  } else if (kind == WireKindName(RunKind::kEnact, /*durable=*/true)) {
    auto workflow_index = WireUint(*descriptor, "workflow");
    if (!workflow_index.ok()) return workflow_index.status();
    if (*workflow_index >= workflows_.items.size()) {
      return Status::Corrupted("RUN descriptor in " + dir +
                               " names an out-of-range workflow");
    }
    const GeneratedWorkflow& item = workflows_.items[*workflow_index];
    run.request = MakeDurableEnactRun(item.workflow, *corpus_.registry,
                                      item.seeds, *engine_, *run.journal);
  } else {
    return Status::Corrupted("RUN descriptor in " + dir +
                             " has unknown kind '" + kind + "'");
  }
  run.request.resume = run.recovery.get();
  run.request.obs.metrics = run.metrics.get();
  run.label = "resume " + dir;
  return run;
}

std::vector<std::string> ServeEnv::UnfinishedJournalDirs() const {
  std::vector<std::string> dirs;
  if (options_.journal_root.empty()) return dirs;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.journal_root, ec)) {
    uint64_t index = 0;
    if (!entry.is_directory() ||
        !ParseRunDirIndex(entry.path().filename().string(), index)) {
      continue;
    }
    if (!std::filesystem::exists(entry.path() / kRunDescriptor)) continue;
    if (std::filesystem::exists(entry.path() / kDoneMarker)) continue;
    dirs.push_back(entry.path().string());
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

uint64_t ServeEnv::AnnotationsDigest(const ModuleRegistry& registry) const {
  return StableHash64(SaveAnnotations(registry, *corpus_.ontology));
}

uint64_t ServeEnv::EnactDigest(const ResilientEnactmentResult& result) {
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
