#include "shard/sharded_annotate.h"

#include <memory>
#include <utility>

#include "common/rng.h"
#include "core/run_api.h"
#include "durability/commit_codec.h"

namespace dexa {

namespace {

/// Builds the sub-registry holding exactly `ids` (which must exist in
/// `registry`), preserving their relative registration order.
Result<std::unique_ptr<ModuleRegistry>> SubRegistry(
    const ModuleRegistry& registry, const std::vector<std::string>& ids) {
  auto sub = std::make_unique<ModuleRegistry>();
  for (const std::string& id : ids) {
    auto module = registry.Find(id);
    if (!module.ok()) {
      return Status::Internal("shard partition references unknown module '" +
                              id + "'");
    }
    DEXA_RETURN_IF_ERROR(sub->Register(std::move(*module)));
  }
  return sub;
}

/// The manifest this (registry, config, options) triple would pin — the
/// value InitShardedRun writes and every later step validates against.
Result<ShardManifest> ComputeManifest(const ModuleRegistry& registry,
                                      const EngineConfig& config,
                                      const ShardOptions& options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("sharded run needs at least one shard");
  }
  if (options.root.empty()) {
    return Status::InvalidArgument("sharded run needs a root directory");
  }
  ShardManifest m;
  m.shards = options.shards;
  m.modules_total = registry.AvailableModules().size();
  m.fingerprint =
      AnnotateConfigFingerprint(registry, config.generator_options());
  m.kb_checksum = options.kb_checksum;
  m.partition_salt = kShardPartitionSalt;
  m.segment_bytes = JournalOptions{}.segment_bytes;
  const auto partition =
      PartitionRegistry(registry, options.shards, kShardPartitionSalt);
  m.entries.reserve(options.shards);
  for (const std::vector<std::string>& ids : partition) {
    auto sub = SubRegistry(registry, ids);
    if (!sub.ok()) return sub.status();
    ShardManifestEntry entry;
    entry.modules = ids.size();
    entry.fingerprint =
        AnnotateConfigFingerprint(**sub, config.generator_options());
    m.entries.push_back(entry);
  }
  return m;
}

bool SameManifest(const ShardManifest& a, const ShardManifest& b) {
  if (a.shards != b.shards || a.modules_total != b.modules_total ||
      a.fingerprint != b.fingerprint || a.kb_checksum != b.kb_checksum ||
      a.partition_salt != b.partition_salt ||
      a.segment_bytes != b.segment_bytes ||
      a.entries.size() != b.entries.size()) {
    return false;
  }
  for (size_t k = 0; k < a.entries.size(); ++k) {
    if (a.entries[k].modules != b.entries[k].modules ||
        a.entries[k].fingerprint != b.entries[k].fingerprint) {
      return false;
    }
  }
  return true;
}

/// Reads the pinned manifest and checks it describes exactly the run this
/// caller is configured for.
Result<ShardManifest> LoadValidatedManifest(const ModuleRegistry& registry,
                                            const EngineConfig& config,
                                            const ShardOptions& options,
                                            IoEnv* io) {
  auto pinned = ReadShardManifest(options.root, io);
  if (!pinned.ok()) return pinned.status();
  auto expected = ComputeManifest(registry, config, options);
  if (!expected.ok()) return expected.status();
  if (!SameManifest(*pinned, *expected)) {
    return Status::InvalidArgument(
        "shard manifest at " + options.root +
        " pins a different run configuration (registry, generator options, "
        "shard count, salt, or journal framing changed); refusing to mix");
  }
  return pinned;
}

}  // namespace

uint32_t ShardOfModule(const std::string& module_id, uint32_t shards,
                       uint64_t salt) {
  if (shards <= 1) return 0;
  return static_cast<uint32_t>(HashCombine(salt, StableHash64(module_id)) %
                               shards);
}

std::vector<std::vector<std::string>> PartitionRegistry(
    const ModuleRegistry& registry, uint32_t shards, uint64_t salt) {
  std::vector<std::vector<std::string>> partition(shards == 0 ? 1 : shards);
  for (const ModulePtr& module : registry.AvailableModules()) {
    partition[ShardOfModule(module->spec().id, shards, salt)].push_back(
        module->spec().id);
  }
  return partition;
}

Result<ShardManifest> InitShardedRun(const ModuleRegistry& registry,
                                     const EngineConfig& config,
                                     const ShardOptions& options, IoEnv* io) {
  auto expected = ComputeManifest(registry, config, options);
  if (!expected.ok()) return expected.status();
  auto pinned = ReadShardManifest(options.root, io);
  if (pinned.ok()) {
    if (!SameManifest(*pinned, *expected)) {
      return Status::InvalidArgument(
          "shard manifest at " + options.root +
          " pins a different run configuration; wipe the root or match it");
    }
    return pinned;  // resume: the existing pin stands
  }
  if (!pinned.status().IsNotFound()) return pinned.status();
  DEXA_RETURN_IF_ERROR(WriteShardManifest(options.root, *expected, io));
  return expected;
}

Result<ShardRunReport> RunShard(const ModuleRegistry& registry,
                                const Ontology& ontology,
                                const AnnotatedInstancePool& pool,
                                const EngineConfig& config,
                                const ShardOptions& options, uint32_t shard,
                                IoEnv* io) {
  auto manifest = LoadValidatedManifest(registry, config, options, io);
  if (!manifest.ok()) return manifest.status();
  if (shard >= manifest->shards) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range (manifest pins " +
                                   std::to_string(manifest->shards) + ")");
  }
  const auto partition = PartitionRegistry(registry, manifest->shards,
                                           manifest->partition_salt);
  auto sub = SubRegistry(registry, partition[shard]);
  if (!sub.ok()) return sub.status();

  ShardRunReport out;
  out.shard = shard;
  out.journal_dir = ShardDir(options.root, shard);

  // Each shard owns its engine and the reasoner that counts into it, as a
  // separate worker process would.
  auto engine = config.BuildEngine();
  auto cache = std::make_shared<ConceptCache>(&ontology, &engine->metrics());
  ExampleGenerator generator = config.MakeGenerator(cache, &pool, engine.get());

  // Auto-resume: a valid journal prefix in the shard directory means a
  // prior attempt ran here — replay it. No journal directory yet or an
  // empty prefix means fresh; any other failure is returned as it is,
  // since starting fresh would remove the shard's committed segments.
  JournalRecovery recovery;
  bool resume = false;
  auto recovered = RecoverJournal(out.journal_dir, &engine->metrics(), io);
  if (!recovered.ok() && !recovered.status().IsNotFound()) {
    return recovered.status();
  }
  if (recovered.ok() && !recovered->records.empty()) {
    recovery = std::move(*recovered);
    resume = true;
  }
  Result<RunJournal> journal =
      resume ? RunJournal::Resume(out.journal_dir, recovery, {},
                                  &engine->metrics(), io)
             : RunJournal::Create(out.journal_dir, {}, &engine->metrics(), io);
  if (!journal.ok()) return journal.status();

  RunRequest request =
      MakeDurableAnnotateRun(generator, **sub, ontology, *journal);
  request.kb_checksum = options.kb_checksum;
  request.crash = options.crash;
  if (resume) request.resume = &recovery;

  auto result = SubmitRun(request);
  if (!result.ok()) return result.status();
  out.report = std::move(result->annotate);
  out.resumed = resume;
  return out;
}

Result<MergeReport> MergeShards(ModuleRegistry& registry,
                                const Ontology& ontology,
                                const EngineConfig& config,
                                const ShardOptions& options, IoEnv* io) {
  auto manifest = LoadValidatedManifest(registry, config, options, io);
  if (!manifest.ok()) return manifest.status();
  const auto partition = PartitionRegistry(registry, manifest->shards,
                                           manifest->partition_salt);

  // Collect every shard's recovered record sequence, check completeness
  // against the manifest pin, and decode all commits before writing a
  // single merged byte. This phase is per-shard independent, so it fans
  // out over the orchestrator when one is configured — decoding is the
  // bulk of the merge cost and must not serialize behind the interleave.
  std::vector<std::vector<std::string>> records(manifest->shards);
  std::vector<std::vector<ModuleCommit>> commits(manifest->shards);
  std::vector<Status> shard_status(manifest->shards);
  const auto recover_shard = [&](size_t k) {
    auto recovered = RecoverJournal(ShardDir(options.root, k), nullptr, io);
    if (!recovered.ok()) {
      shard_status[k] =
          recovered.status().IsNotFound()
              ? Status::Unavailable("shard " + std::to_string(k) +
                                    " has no journal yet; run it before "
                                    "merging")
              : recovered.status();
      return;
    }
    const size_t expected = 1 + partition[k].size();
    if (recovered->records.size() != expected) {
      shard_status[k] = Status::Unavailable(
          "shard " + std::to_string(k) + " is incomplete: journal holds " +
          std::to_string(recovered->records.size()) + " of " +
          std::to_string(expected) + " records; resume it before merging");
      return;
    }
    auto header = DecodeAnnotateRunHeader(recovered->records[0]);
    if (!header.ok()) {
      shard_status[k] = header.status();
      return;
    }
    if (header->modules != manifest->entries[k].modules ||
        header->fingerprint != manifest->entries[k].fingerprint ||
        header->kb_checksum != manifest->kb_checksum) {
      shard_status[k] = Status::Corrupted(
          "shard " + std::to_string(k) +
          " journal header does not match the manifest pin (foreign or "
          "stale journal)");
      return;
    }
    commits[k].reserve(recovered->records.size() - 1);
    for (size_t i = 1; i < recovered->records.size(); ++i) {
      auto commit = DecodeModuleCommit(recovered->records[i], ontology);
      if (!commit.ok()) {
        shard_status[k] = commit.status();
        return;
      }
      if (commit->module_id != partition[k][i - 1]) {
        shard_status[k] = Status::Corrupted(
            "shard " + std::to_string(k) +
            " commit order diverged: expected module '" + partition[k][i - 1] +
            "', journal holds '" + commit->module_id + "'");
        return;
      }
      commits[k].push_back(std::move(*commit));
    }
    records[k] = std::move(recovered->records);
  };
  if (options.orchestrator != nullptr && manifest->shards > 1) {
    options.orchestrator->ForEach(manifest->shards, recover_shard);
  } else {
    for (uint32_t k = 0; k < manifest->shards; ++k) recover_shard(k);
  }
  for (uint32_t k = 0; k < manifest->shards; ++k) {
    DEXA_RETURN_IF_ERROR(shard_status[k]);
  }

  MergeReport out;
  out.merged_dir = MergedDir(options.root);
  // The merged journal takes the default group commit, as every journal
  // does: each segment is fsynced at its seal, and every frame reaches the
  // file as it is appended.
  auto merged = RunJournal::Create(out.merged_dir, {}, /*metrics=*/nullptr,
                                   io);
  if (!merged.ok()) return merged.status();

  // Synthesized one-shot run header, then the per-module commit payloads
  // re-framed VERBATIM in full-registry registration order: a deterministic
  // k-way interleave keyed on the partition function. Identical payload
  // sequence + identical framing options == byte-identical journal.
  AnnotateRunHeader header;
  header.modules = manifest->modules_total;
  header.fingerprint = manifest->fingerprint;
  header.kb_checksum = manifest->kb_checksum;
  DEXA_RETURN_IF_ERROR(merged->Append(EncodeAnnotateRunHeader(header)));

  std::vector<size_t> cursor(manifest->shards, 0);
  for (const ModuleIndex index : registry.AvailableIndices()) {
    const uint32_t k = ShardOfModule(registry.At(index)->spec().id,
                                     manifest->shards,
                                     manifest->partition_salt);
    // records[k][0] is the shard header; commits[k][i] decodes
    // records[k][i + 1] (ids already verified against the partition above).
    DEXA_RETURN_IF_ERROR(merged->Append(records[k][cursor[k] + 1]));
    DEXA_RETURN_IF_ERROR(ApplyCommit(std::move(commits[k][cursor[k]++]),
                                     index, registry, out.merged));
  }
  // Fsync the tail segment, as a completed one-shot run does. Sealing writes
  // no bytes, so the merged journal compares byte-identical to it.
  out.records = merged->records_appended();
  DEXA_RETURN_IF_ERROR(merged->Seal());
  return out;
}

Result<ShardedAnnotateReport> RunShardedAnnotate(
    ModuleRegistry& registry, const Ontology& ontology,
    const AnnotatedInstancePool& pool, const EngineConfig& config,
    const ShardOptions& options, IoEnv* io) {
  auto manifest = InitShardedRun(registry, config, options, io);
  if (!manifest.ok()) return manifest.status();

  ShardedAnnotateReport out;
  std::vector<Result<ShardRunReport>> runs;
  runs.reserve(manifest->shards);
  for (uint32_t k = 0; k < manifest->shards; ++k) {
    runs.emplace_back(Status::Internal("shard never ran"));
  }
  if (options.orchestrator != nullptr && manifest->shards > 1) {
    options.orchestrator->ForEach(manifest->shards, [&](size_t k) {
      runs[k] = RunShard(registry, ontology, pool, config, options,
                         static_cast<uint32_t>(k), io);
    });
  } else {
    for (uint32_t k = 0; k < manifest->shards; ++k) {
      runs[k] = RunShard(registry, ontology, pool, config, options, k, io);
    }
  }
  Status aborted;
  for (uint32_t k = 0; k < manifest->shards; ++k) {
    if (!runs[k].ok()) return runs[k].status();
    if (aborted.ok() && !runs[k]->report.run_status.ok()) {
      aborted = runs[k]->report.run_status;
    }
    out.shards.push_back(std::move(*runs[k]));
  }
  if (!aborted.ok()) {
    // A shard crashed (injected or real): hand back the per-shard picture
    // without merging; re-submitting resumes the unfinished subset.
    out.merged.run_status = aborted;
    return out;
  }
  auto merge = MergeShards(registry, ontology, config, options, io);
  if (!merge.ok()) return merge.status();
  out.merged = std::move(merge->merged);
  out.merged_dir = std::move(merge->merged_dir);
  out.merged_records = merge->records;
  return out;
}

}  // namespace dexa
