// dexa — command-line front end over the library.
//
// Dispatch is table-driven: every subcommand is one Command row (name,
// synopsis, arity, handler) in kCommands, and main() only parses the shared
// global flags, finds the row, and calls it. Global flags may appear
// anywhere on the line and apply to every subcommand:
//
//   --kb-image=<file>   serve all reasoning from a compiled KB image
//                       (mmap-backed, interned ids) instead of the
//                       in-memory corpus
//   --threads=<n>       worker threads of the invocation engine, 0..1024
//                       (default 1 = serial, 0 = hardware concurrency;
//                       runs are byte-identical at any thread count)
//   --seed=<n>          engine seed (per-task RNG streams + retry jitter)
//
// Every numeric flag and argument is a plain decimal integer checked
// against its range (common/strings.h ParseU64); anything else fails with
// an InvalidArgument that names the flag.
//
// Every run routes through the RunRequest facade (core/run_api.h): the
// annotate/resume/serve commands all build a RunRequest and call SubmitRun.

#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/io_env.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/composition.h"
#include "core/coverage.h"
#include "core/discovery.h"
#include "core/engine_config.h"
#include "core/example_generator.h"
#include "core/matcher.h"
#include "core/metrics.h"
#include "core/run_api.h"
#include "corpus/corpus.h"
#include "corpus/fault_injector.h"
#include "durability/evaluation_env.h"
#include "durability/journal.h"
#include "durability/snapshot.h"
#include "kb/knowledge_base.h"
#include "kbimage/builder.h"
#include "kbimage/compiled_kb.h"
#include "modules/registry_io.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "ontology/mygrid.h"
#include "pool/pool_io.h"
#include "provenance/workflow_corpus.h"
#include "repair/repair.h"
#include "serve/server.h"
#include "shard/sharded_annotate.h"
#include "study/study.h"
#include "workflow/workflow_io.h"

namespace {

using namespace dexa;

/// Everything a command handler gets: the parsed global flags, the engine
/// they configure, and a lazily-built evaluation environment.
struct CliContext {
  std::string kb_image_path;
  EngineConfig config;
  std::unique_ptr<InvocationEngine> engine;
  std::optional<EvaluationEnv> env;

  ExampleGenerator MakeGenerator() const {
    return config.MakeGenerator(env->cache, env->pool.get(), engine.get());
  }
};

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

/// The value of `arg` when it reads `<flag>=<value>`, else nullopt.
std::optional<std::string_view> FlagValue(std::string_view arg,
                                          std::string_view flag) {
  if (arg.size() <= flag.size() || arg.substr(0, flag.size()) != flag ||
      arg[flag.size()] != '=') {
    return std::nullopt;
  }
  return arg.substr(flag.size() + 1);
}

/// Parses the value of the numeric flag `flag` with ParseU64 and checks it
/// lies in [min, max]; anything else is an InvalidArgument naming the flag.
Result<uint64_t> ParseNumericFlag(std::string_view flag,
                                  std::string_view value, uint64_t min,
                                  uint64_t max) {
  uint64_t parsed = 0;
  if (!ParseU64(value, &parsed) || parsed < min || parsed > max) {
    return Status::InvalidArgument(
        std::string(flag) + " takes an integer in [" + std::to_string(min) +
        ", " + std::to_string(max) + "], got '" + std::string(value) + "'");
  }
  return parsed;
}

/// Builds the evaluation environment into `ctx.env`. `annotate` is false
/// for the durable/traced subcommands, which run (or resume) the
/// annotation themselves through the facade instead of inline.
Status BuildEnv(CliContext& ctx, bool retire, bool annotate) {
  auto env =
      BuildEvaluationEnv({}, ctx.kb_image_path, &ctx.engine->metrics());
  if (!env.ok()) return env.status();
  ctx.env.emplace(std::move(env).value());
  if (annotate) {
    ExampleGenerator generator = ctx.MakeGenerator();
    auto result =
        SubmitRun(MakeAnnotateRun(generator, *ctx.env->corpus.registry));
    if (!result.ok()) return result.status();
    if (!result->complete()) return result->run_status;
  }
  if (retire) {
    DEXA_RETURN_IF_ERROR(RetireDecayedModules(ctx.env->corpus));
  }
  return Status::OK();
}

/// Writes `content` to `path` in place (never via a temp-file rename, so
/// device paths work), failing with the IoEnv seam's typed status.
int WriteFile(const std::string& path, const std::string& content) {
  auto file = IoEnv::Real().NewWritableFile(path);
  if (!file.ok()) return Fail(file.status());
  Status written = (*file)->Append(content);
  if (written.ok()) written = (*file)->Close();
  if (!written.ok()) return Fail(written);
  std::cout << "wrote " << content.size() << " bytes to " << path << "\n";
  return 0;
}

int CmdTables(CliContext& ctx, const std::vector<std::string>&) {
  const EvaluationEnv& env = *ctx.env;
  std::map<ModuleKind, int> census;
  std::map<std::string, int, std::greater<std::string>> completeness;
  std::map<std::string, int, std::greater<std::string>> conciseness;
  CoverageAnalyzer analyzer(env.cache);
  size_t exceptions = 0;
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    census[module->spec().kind]++;
    const DataExampleSet& examples = env.corpus.registry->DataExamplesOf(id);
    auto metrics = EvaluateBehaviorMetrics(*module, examples);
    if (metrics.ok()) {
      completeness[FormatFixed(metrics->completeness(), 3)]++;
      conciseness[FormatFixed(metrics->conciseness(), 2)]++;
    }
    if (!analyzer.Analyze(module->spec(), examples).outputs_fully_covered()) {
      ++exceptions;
    }
  }
  TablePrinter kinds({"Kind of data manipulation", "# of modules"});
  for (const auto& [kind, count] : census) {
    kinds.AddRow({ModuleKindName(kind), std::to_string(count)});
  }
  kinds.Print(std::cout, "Table 3: kinds of data manipulation.");
  std::cout << "\n";
  TablePrinter table1({"Completeness", "# of modules"});
  for (const auto& [value, count] : completeness) {
    table1.AddRow({value, std::to_string(count)});
  }
  table1.Print(std::cout, "Table 1: completeness.");
  std::cout << "\n";
  TablePrinter table2({"Conciseness", "# of modules"});
  for (const auto& [value, count] : conciseness) {
    table2.AddRow({value, std::to_string(count)});
  }
  table2.Print(std::cout, "Table 2: conciseness.");
  std::cout << "\nOutput-coverage exceptions: " << exceptions
            << " (paper: 19)\n";
  return 0;
}

int CmdShowModule(CliContext& ctx, const std::string& name) {
  const EvaluationEnv& env = *ctx.env;
  auto module = env.corpus.registry->FindByName(name);
  if (!module.ok()) return Fail(module.status());
  const ModuleSpec& spec = (*module)->spec();
  std::cout << spec.name << " (" << ModuleKindName(spec.kind) << ")\n";
  for (const Parameter& param : spec.inputs) {
    std::cout << "  in  " << param.name << " : "
              << param.structural_type.ToString() << " / "
              << env.corpus.ontology->NameOf(param.semantic_type)
              << (param.optional ? " (optional)" : "") << "\n";
  }
  for (const Parameter& param : spec.outputs) {
    std::cout << "  out " << param.name << " : "
              << param.structural_type.ToString() << " / "
              << env.corpus.ontology->NameOf(param.semantic_type) << "\n";
  }
  const DataExampleSet& examples =
      env.corpus.registry->DataExamplesOf(spec.id);
  std::cout << "data examples (" << examples.size() << "):\n";
  for (const DataExample& example : examples) {
    std::string rendered = RenderDataExample(example);
    if (rendered.size() > 160) rendered = rendered.substr(0, 157) + "...";
    std::cout << "  " << rendered << "\n";
  }
  return 0;
}

/// Annotates the whole registry with run tracing enabled and writes the
/// Chrome-trace and/or metrics exports.
int CmdAnnotateTraced(CliContext& ctx, const std::string& trace_path,
                      const std::string& metrics_path) {
  ExampleGenerator generator = ctx.MakeGenerator();
  obs::Tracer tracer(&generator.engine().clock());
  RunRequest request =
      MakeAnnotateRun(generator, *ctx.env->corpus.registry);
  request.tracer = &tracer;
  auto result = SubmitRun(request);
  if (!result.ok()) return Fail(result.status());
  if (!result->complete()) return Fail(result->run_status);
  const AnnotateReport& report = result->annotate;
  std::cout << "annotated " << report.annotated << " module(s), "
            << report.decayed << " decayed, " << report.examples
            << " data example(s); " << tracer.spans().size()
            << " trace span(s)\n";
  int failed = 0;
  if (!trace_path.empty()) {
    failed |= WriteFile(trace_path, obs::WriteChromeTrace(tracer));
  }
  if (!metrics_path.empty()) {
    failed |= WriteFile(metrics_path,
                        obs::WriteMetricsJson(result->counters, &tracer));
  }
  return failed;
}

/// Prints a durable run's report, with the records its journal gained,
/// and, when the run completed, writes the run-state snapshot (pool +
/// annotations + provenance) next to the journal.
int FinishDurableRun(CliContext& ctx, const std::string& dir,
                     const AnnotateReport& report, uint64_t journal_records) {
  EvaluationEnv& env = *ctx.env;
  TablePrinter table({"metric", "value"});
  table.AddRow({"modules annotated", std::to_string(report.annotated)});
  table.AddRow({"modules decayed", std::to_string(report.decayed)});
  table.AddRow({"modules replayed from journal",
                std::to_string(report.replayed)});
  table.AddRow({"data examples", std::to_string(report.examples)});
  table.AddRow({"journal records", std::to_string(journal_records)});
  table.Print(std::cout, "Durable annotation run:");
  if (!report.complete()) {
    std::cout << "run aborted: " << report.run_status << "\n"
              << "resume with: dexa resume " << dir << "\n";
    return 1;
  }
  Status snapshot = WriteRunStateSnapshot(dir + "/state", *env.pool,
                                          *env.corpus.registry,
                                          *env.corpus.ontology,
                                          env.provenance);
  if (!snapshot.ok()) return Fail(snapshot);
  std::cout << "run complete; state snapshot in " << dir << "/state\n";
  return 0;
}

int CmdAnnotateDurable(CliContext& ctx, const std::string& dir,
                       const CrashPlan& crash) {
  ExampleGenerator generator = ctx.MakeGenerator();
  auto journal =
      RunJournal::Create(dir, {}, &generator.engine().metrics());
  if (!journal.ok()) return Fail(journal.status());
  RunRequest request = MakeDurableAnnotateRun(
      generator, *ctx.env->corpus.registry, *ctx.env->corpus.ontology,
      *journal);
  request.crash = &crash;
  request.kb_checksum = ctx.env->kb_checksum;
  auto result = SubmitRun(request);
  if (!result.ok()) return Fail(result.status());
  return FinishDurableRun(ctx, dir, result->annotate,
                          result->counters.journal_records);
}

/// Sharded durable annotation: `annotate --journal <dir> --shards=N`.
/// Partitions the registry over N shards, journals each under
/// `<dir>/shard-<k>`, and merges to the canonical `<dir>/merged` journal —
/// byte-identical to the one-shot durable run. Re-running the same command
/// after a crash resumes the unfinished shard subset.
int CmdAnnotateSharded(CliContext& ctx, const std::string& dir,
                       uint32_t shards, const CrashPlan& crash) {
  ShardOptions options;
  options.shards = shards;
  options.root = dir;
  options.kb_checksum = ctx.env->kb_checksum;
  options.orchestrator = ctx.engine.get();
  if (crash.armed()) options.crash = &crash;
  auto result = RunShardedAnnotate(*ctx.env->corpus.registry,
                                   *ctx.env->corpus.ontology, *ctx.env->pool,
                                   ctx.config, options);
  if (!result.ok()) return Fail(result.status());
  if (!result->merged.run_status.ok()) {
    std::cout << "sharded annotate aborted ("
              << result->merged.run_status.message()
              << "); re-run the same command to resume the unfinished "
                 "shard(s)\n";
    return 1;
  }
  std::cout << "sharded annotate x" << shards << ": merged "
            << result->merged_records << " record(s) into "
            << result->merged_dir << "\n";
  return FinishDurableRun(ctx, dir, result->merged, result->merged_records);
}

/// The annotate modes share one subcommand: `annotate <module>` prints a
/// module, `annotate --trace-out/--metrics-out` runs traced, `annotate
/// --journal <dir>` runs durable, and `--journal <dir> --shards=N` runs
/// sharded.
int CmdAnnotate(CliContext& ctx, const std::vector<std::string>& args) {
  if (args.size() == 1 && args[0].rfind("--", 0) != 0) {
    return CmdShowModule(ctx, args[0]);
  }
  if (!args.empty() && args[0] == "--journal") {
    if (args.size() < 2) {
      return Fail(Status::InvalidArgument(
          "usage: annotate --journal <dir> [--shards=<n>] "
          "[--crash before|after|torn <module-id>]"));
    }
    const std::string dir = args[1];
    CrashPlan crash;
    uint64_t shards = 0;  // 0 = plain (unsharded) durable run.
    size_t i = 2;
    while (i < args.size()) {
      if (args[i] == "--crash" && i + 2 < args.size()) {
        auto point = ParseCrashPoint(args[i + 1]);
        if (!point.ok()) return Fail(point.status());
        crash.point = *point;
        crash.key = args[i + 2];
        i += 3;
      } else if (auto value = FlagValue(args[i], "--shards")) {
        auto parsed = ParseNumericFlag("--shards", *value, 1, 4096);
        if (!parsed.ok()) return Fail(parsed.status());
        shards = *parsed;
        i += 1;
      } else {
        return Fail(Status::InvalidArgument(
            "usage: annotate --journal <dir> [--shards=<n>] "
            "[--crash before|after|torn <module-id>]"));
      }
    }
    if (shards > 0) {
      return CmdAnnotateSharded(ctx, dir, static_cast<uint32_t>(shards),
                                crash);
    }
    return CmdAnnotateDurable(ctx, dir, crash);
  }
  std::string trace_out, metrics_out;
  for (const std::string& arg : args) {
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else {
      return Fail(Status::InvalidArgument("unknown annotate argument '" +
                                          arg + "'"));
    }
  }
  if (trace_out.empty() && metrics_out.empty()) {
    return Fail(Status::InvalidArgument(
        "usage: annotate <module> | annotate [--trace-out=<f>] "
        "[--metrics-out=<f>] | annotate --journal <dir>"));
  }
  return CmdAnnotateTraced(ctx, trace_out, metrics_out);
}

int CmdResume(CliContext& ctx, const std::vector<std::string>& args) {
  const std::string& dir = args[0];
  ExampleGenerator generator = ctx.MakeGenerator();
  auto recovery = RecoverJournal(dir, &generator.engine().metrics());
  if (!recovery.ok()) return Fail(recovery.status());
  std::cout << "recovered " << recovery->records.size() << " record(s) from "
            << recovery->segments_scanned << " segment(s)";
  if (recovery->tail_discarded()) {
    std::cout << "; discarded " << recovery->bytes_discarded
              << " damaged tail byte(s) (" << recovery->tail_status.message()
              << ")";
  }
  std::cout << "\n";
  auto journal = RunJournal::Resume(dir, *recovery, {},
                                    &generator.engine().metrics());
  if (!journal.ok()) return Fail(journal.status());
  RunRequest request = MakeDurableAnnotateRun(
      generator, *ctx.env->corpus.registry, *ctx.env->corpus.ontology,
      *journal);
  request.resume = &*recovery;
  request.kb_checksum = ctx.env->kb_checksum;
  auto result = SubmitRun(request);
  if (!result.ok()) return Fail(result.status());
  return FinishDurableRun(ctx, dir, result->annotate,
                          result->counters.journal_records);
}

int CmdCompare(CliContext& ctx, const std::vector<std::string>& args) {
  const EvaluationEnv& env = *ctx.env;
  auto left = env.corpus.registry->FindByName(args[0]);
  auto right = env.corpus.registry->FindByName(args[1]);
  if (!left.ok()) return Fail(left.status());
  if (!right.ok()) return Fail(right.status());
  ExampleGenerator generator = ctx.MakeGenerator();
  ModuleMatcher matcher(env.cache, &generator);
  auto result = matcher.Compare(**left, **right);
  if (!result.ok()) return Fail(result.status());
  std::cout << args[0] << " vs " << args[1] << ": "
            << BehaviorRelationName(result->relation) << " ("
            << result->examples_agreeing << "/" << result->examples_compared
            << " aligned examples agree"
            << (result->mapping.contextual ? ", contextual mapping" : "")
            << ")\n";
  return 0;
}

/// The structural type concept instances conventionally use ("PeptideMassList"
/// is a list of masses; numeric measures are doubles; everything else is a
/// string).
StructuralType DefaultTypeFor(const std::string& concept_name) {
  if (concept_name == "PeptideMassList") {
    return StructuralType::List(StructuralType::Double());
  }
  for (const char* numeric : {"ErrorTolerance", "ThresholdValue",
                              "MolecularMass", "Score", "Fraction"}) {
    if (concept_name == numeric) return StructuralType::Double();
  }
  for (const char* integral : {"SequenceLength", "Count"}) {
    if (concept_name == integral) return StructuralType::Integer();
  }
  return StructuralType::String();
}

int CmdDiscover(CliContext& ctx, const std::vector<std::string>& args) {
  const EvaluationEnv& env = *ctx.env;
  ConceptId in_concept = env.corpus.ontology->Find(args[0]);
  ConceptId out_concept = env.corpus.ontology->Find(args[1]);
  if (in_concept == kInvalidConcept || out_concept == kInvalidConcept) {
    return Fail(Status::NotFound("unknown concept (see export-ontology)"));
  }
  BehaviorDiscovery discovery(env.cache, env.corpus.registry.get());
  DiscoveryQuery query;
  query.input_concept = in_concept;
  query.input_type = DefaultTypeFor(args[0]);
  query.output_concept = out_concept;
  query.output_type = DefaultTypeFor(args[1]);
  auto hits = discovery.Search(query, 10);
  if (hits.empty()) {
    std::cout << "no modules match " << args[0] << " -> " << args[1] << "\n";
    return 0;
  }
  for (const DiscoveryHit& hit : hits) {
    std::printf("  %5.2f  %-32s %s\n", hit.score, hit.module_name.c_str(),
                hit.why.c_str());
  }
  return 0;
}

int CmdCompose(CliContext& ctx, const std::vector<std::string>& args) {
  const EvaluationEnv& env = *ctx.env;
  ConceptId in_concept = env.corpus.ontology->Find(args[0]);
  ConceptId out_concept = env.corpus.ontology->Find(args[1]);
  if (in_concept == kInvalidConcept || out_concept == kInvalidConcept) {
    return Fail(Status::NotFound("unknown concept (see export-ontology)"));
  }
  size_t depth = 3;
  if (args.size() == 3) {
    auto parsed = ParseNumericFlag("compose depth", args[2], 1, 16);
    if (!parsed.ok()) return Fail(parsed.status());
    depth = static_cast<size_t>(*parsed);
  }
  ExampleGuidedComposer composer(env.cache, env.corpus.registry.get(),
                                 env.pool.get());
  CompositionRequest request;
  request.source_concept = in_concept;
  request.source_type = DefaultTypeFor(args[0]);
  request.target_concept = out_concept;
  request.target_type = DefaultTypeFor(args[1]);
  request.max_depth = depth;
  auto candidates = composer.Compose(request);
  if (!candidates.ok()) return Fail(candidates.status());
  if (candidates->empty()) {
    std::cout << "no validated chain from " << args[0] << " to " << args[1]
              << " within depth " << depth << "\n";
    return 0;
  }
  for (const CompositionCandidate& candidate : *candidates) {
    std::cout << "  chain:";
    for (const std::string& module_id : candidate.module_ids) {
      std::cout << " -> "
                << (*env.corpus.registry->Find(module_id))->spec().name;
    }
    std::cout << "\n";
  }
  return 0;
}

int CmdStudy(CliContext& ctx, const std::vector<std::string>&) {
  auto result = RunUnderstandingStudy(ctx.env->corpus, DefaultStudyUsers());
  if (!result.ok()) return Fail(result.status());
  TablePrinter table({"participant", "without examples", "with examples"});
  for (const StudyUserResult& user : result->users) {
    table.AddRow({user.user,
                  std::to_string(user.identified_without_examples),
                  std::to_string(user.identified_with_examples)});
  }
  table.Print(std::cout,
              "Understanding study (Figure 5 of the paper):");
  std::cout << "average identification rate with examples: "
            << FormatFixed(result->AverageIdentificationRate() * 100.0, 1)
            << "%\n";
  return 0;
}

int CmdRepair(CliContext& ctx, const std::vector<std::string>&) {
  EvaluationEnv& env = *ctx.env;
  auto matching = MatchRetiredModules(env.corpus, env.provenance, env.cache);
  if (!matching.ok()) return Fail(matching.status());
  std::cout << "retired modules: " << matching->retired_total
            << "; equivalent: " << matching->with_equivalent
            << "; overlapping: " << matching->with_overlapping
            << "; none: " << matching->with_none << "\n";
  auto outcome =
      RepairWorkflows(env.corpus, env.workflows, env.provenance, *matching);
  if (!outcome.ok()) return Fail(outcome.status());
  std::cout << "broken workflows: " << outcome->broken_workflows
            << "; repaired: " << outcome->repaired_total << " ("
            << outcome->repaired_via_equivalent << " via equivalent, "
            << outcome->repaired_via_overlapping << " via overlapping; "
            << outcome->repaired_partly << " partly)\n";
  return 0;
}

int CmdExportRegistry(CliContext& ctx, const std::vector<std::string>& args) {
  return WriteFile(args[0], SaveAnnotations(*ctx.env->corpus.registry,
                                            *ctx.env->corpus.ontology));
}

int CmdExportOntology(CliContext& ctx, const std::vector<std::string>& args) {
  return WriteFile(args[0], ctx.env->corpus.ontology->ToDsl());
}

int CmdExportPool(CliContext& ctx, const std::vector<std::string>& args) {
  return WriteFile(args[0], SavePool(*ctx.env->pool));
}

int CmdExportWorkflow(CliContext& ctx, const std::vector<std::string>& args) {
  for (const GeneratedWorkflow& item : ctx.env->workflows.items) {
    if (item.workflow.id == args[0]) {
      return WriteFile(args[1], RenderWorkflowDsl(item.workflow,
                                                  *ctx.env->corpus.ontology));
    }
  }
  return Fail(Status::NotFound("no workflow with id '" + args[0] + "'"));
}

/// Compiles the ontology + synthetic KB into a binary image, then loads
/// it back (mmap + full validation) to report the sealed checksum. Uses
/// the corpus defaults, so `dexa --kb-image=<file> <cmd>` reproduces the
/// in-memory runs byte for byte.
int CmdCompileKb(CliContext&, const std::vector<std::string>& args) {
  const CorpusOptions defaults;
  Ontology ontology = BuildMyGridOntology();
  KnowledgeBase kb(defaults.seed);
  Status written = kbimage::WriteKbImage(ontology, kb, args[0]);
  if (!written.ok()) return Fail(written);
  auto image = kbimage::CompiledKb::Load(args[0]);
  if (!image.ok()) return Fail(image.status());
  std::cout << "compiled " << (*image)->ConceptCount() << " concept(s), "
            << (*image)->image_bytes() << " bytes to " << args[0]
            << " (checksum " << (*image)->checksum() << ")\n";
  return 0;
}

/// `dexa serve`: the multi-tenant run-manager daemon. One ServeEnv is
/// built (its Create calls BuildEvaluationEnv, as every other command
/// does), then a poll()-driven Server admits runs over the line protocol
/// until shutdown.
int CmdServe(CliContext& ctx, const std::vector<std::string>& args) {
  serve::ServeEnvOptions env_options;
  env_options.kb_image_path = ctx.kb_image_path;
  env_options.threads = ctx.config.engine_options().threads;
  env_options.seed = ctx.config.engine_options().seed;
  serve::ServerOptions server_options;
  bool stdio = false;
  constexpr uint64_t kSizeMax = std::numeric_limits<size_t>::max();
  constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
  // The numeric serve flags: range and destination of each.
  struct NumericFlag {
    const char* name;
    uint64_t min;
    uint64_t max;
    std::function<void(uint64_t)> set;
  };
  serve::RunManagerOptions& manager = server_options.manager;
  const NumericFlag numeric_flags[] = {
      {"--port", 0, 65535,
       [&](uint64_t v) { server_options.port = static_cast<int>(v); }},
      {"--capacity", 1, kSizeMax,
       [&](uint64_t v) { manager.capacity = static_cast<size_t>(v); }},
      {"--batch", 1, kSizeMax,
       [&](uint64_t v) { manager.execute_batch = static_cast<size_t>(v); }},
      {"--tenant-queued", 0, kSizeMax,
       [&](uint64_t v) {
         manager.per_tenant_max_queued = static_cast<size_t>(v);
       }},
      {"--tenant-concurrent", 0, kSizeMax,
       [&](uint64_t v) {
         manager.per_tenant_max_concurrent = static_cast<size_t>(v);
       }},
      {"--deadline-ns", 0, kU64Max,
       [&](uint64_t v) { manager.default_deadline_ns = v; }},
      {"--max-line-bytes", 1, kSizeMax,
       [&](uint64_t v) {
         server_options.max_line_bytes = static_cast<size_t>(v);
       }},
  };
  for (const std::string& arg : args) {
    bool numeric = false;
    for (const NumericFlag& flag : numeric_flags) {
      auto value = FlagValue(arg, flag.name);
      if (!value) continue;
      auto parsed = ParseNumericFlag(flag.name, *value, flag.min, flag.max);
      if (!parsed.ok()) return Fail(parsed.status());
      flag.set(*parsed);
      numeric = true;
      break;
    }
    if (numeric) continue;
    if (arg.rfind("--unix=", 0) == 0) {
      server_options.unix_path = arg.substr(7);
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg.rfind("--journal-root=", 0) == 0) {
      env_options.journal_root = arg.substr(15);
    } else {
      return Fail(Status::InvalidArgument("unknown serve argument '" + arg +
                                          "'"));
    }
  }
  auto env = serve::ServeEnv::Create(env_options);
  if (!env.ok()) return Fail(env.status());
  serve::Server server(**env, server_options);
  auto resumed = server.ResumeInFlightRuns();
  if (!resumed.ok()) return Fail(resumed.status());
  if (*resumed > 0) {
    std::cerr << "resuming " << *resumed << " in-flight durable run(s)\n";
  }
  if (stdio) {
    server.RunStdio();
    return 0;
  }
  Status listening = server.Listen();
  if (!listening.ok()) return Fail(listening);
  std::cerr << "dexa serve: listening"
            << (server_options.port >= 0
                    ? " on 127.0.0.1:" + std::to_string(server_options.port)
                    : "")
            << (!server_options.unix_path.empty()
                    ? " on " + server_options.unix_path
                    : "")
            << "\n";
  server.Run();
  return 0;
}

// -- Command table ----------------------------------------------------------

using Handler = int (*)(CliContext&, const std::vector<std::string>&);

struct Command {
  const char* name;
  const char* synopsis;  ///< Argument synopsis for the usage screen.
  size_t min_args;
  size_t max_args;   ///< SIZE_MAX = unbounded.
  bool needs_env;    ///< Build the evaluation environment before dispatch.
  bool retire;       ///< BuildEnv retires the decayed modules.
  bool annotate;     ///< BuildEnv annotates the registry inline.
  Handler handler;
};

constexpr size_t kUnbounded = static_cast<size_t>(-1);

const Command kCommands[] = {
    {"compile-kb", "<file>", 1, 1, false, false, false, CmdCompileKb},
    {"tables", "", 0, 0, true, false, true, CmdTables},
    {"annotate",
     "<module> | [--trace-out=<f>] [--metrics-out=<f>] | --journal <dir> "
     "[--shards=<n>] [--crash before|after|torn <module-id>]",
     1, 6, true, false, false, CmdAnnotate},
    {"resume", "<dir>", 1, 1, true, false, false, CmdResume},
    {"compare", "<name-a> <name-b>", 2, 2, true, false, true, CmdCompare},
    {"discover", "<in-concept> <out-concept>", 2, 2, true, false, true,
     CmdDiscover},
    {"compose", "<in-concept> <out-concept> [depth]", 2, 3, true, false, true,
     CmdCompose},
    {"repair", "", 0, 0, true, true, true, CmdRepair},
    {"study", "", 0, 0, true, false, true, CmdStudy},
    {"serve",
     "[--port=<n>] [--unix=<path>] [--stdio] [--journal-root=<dir>] "
     "[--capacity=<n>] [--batch=<n>] [--tenant-queued=<n>] "
     "[--tenant-concurrent=<n>] [--deadline-ns=<n>] [--max-line-bytes=<n>]",
     0, kUnbounded, false, false, false, CmdServe},
    {"export-registry", "<file>", 1, 1, true, false, true, CmdExportRegistry},
    {"export-ontology", "<file>", 1, 1, true, false, false,
     CmdExportOntology},
    {"export-pool", "<file>", 1, 1, true, false, false, CmdExportPool},
    {"export-workflow", "<id> <file>", 2, 2, true, false, false,
     CmdExportWorkflow},
};

/// The annotate subcommand skips the inline annotation when it runs the
/// annotation itself (traced, durable) — `annotate <module>` is the one
/// form that needs the registry pre-annotated.
bool AnnotateInline(const Command& command,
                    const std::vector<std::string>& args) {
  if (std::string(command.name) != "annotate") return command.annotate;
  return args.size() == 1 && args[0].rfind("--", 0) != 0;
}

int Usage() {
  std::cerr << "usage: dexa [--kb-image=<file>] [--threads=<n>] "
               "[--seed=<n>] <command> [args]\n";
  for (const Command& command : kCommands) {
    std::cerr << "  " << command.name;
    if (command.synopsis[0] != '\0') std::cerr << " " << command.synopsis;
    std::cerr << "\n";
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  // Global flags may appear anywhere; they configure the backend and the
  // engine for the whole run, independent of the subcommand.
  CliContext ctx;
  ctx.config.Threads(1);
  for (size_t i = 0; i < args.size();) {
    if (args[i].rfind("--kb-image=", 0) == 0) {
      ctx.kb_image_path = args[i].substr(11);
    } else if (auto threads = FlagValue(args[i], "--threads")) {
      auto parsed = ParseNumericFlag("--threads", *threads, 0, 1024);
      if (!parsed.ok()) return Fail(parsed.status());
      ctx.config.Threads(static_cast<size_t>(*parsed));
    } else if (auto seed = FlagValue(args[i], "--seed")) {
      auto parsed = ParseNumericFlag(
          "--seed", *seed, 0, std::numeric_limits<uint64_t>::max());
      if (!parsed.ok()) return Fail(parsed.status());
      ctx.config.Seed(*parsed);
    } else {
      ++i;
      continue;
    }
    args.erase(args.begin() + static_cast<long>(i));
  }
  if (args.empty()) return Usage();
  const std::string command_name = args[0];
  args.erase(args.begin());

  for (const Command& command : kCommands) {
    if (command_name != command.name) continue;
    if (args.size() < command.min_args ||
        (command.max_args != kUnbounded && args.size() > command.max_args)) {
      return Usage();
    }
    ctx.engine = ctx.config.BuildEngine();
    if (command.needs_env) {
      Status built =
          BuildEnv(ctx, command.retire, AnnotateInline(command, args));
      if (!built.ok()) return Fail(built);
    }
    return command.handler(ctx, args);
  }
  return Usage();
}
