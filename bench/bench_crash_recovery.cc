// Acceptance harness for the durability layer: for each crash point
// (before-commit, after-commit, torn-write) a journaled annotation run is
// killed mid-run at a fixed module, then recovered and resumed on a fresh
// registry. Reports journal recovery time, resume wall time, and the
// replay ratio (modules served from the journal vs re-invoked). The
// acceptance criteria are (a) every resumed run is byte-identical to the
// uninterrupted baseline and (b) the committed prefix is replayed, not
// re-invoked (replayed > 0). Emits BENCH_crash_recovery.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_env.h"
#include "common/table.h"
#include "core/engine_config.h"
#include "core/example_generator.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "durability/journal.h"
#include "modules/registry_io.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;

constexpr size_t kThreads = 8;
constexpr size_t kCrashModuleIndex = 126;  // Mid-run: half replay, half live.

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "crash-recovery bench failed at %s: %s\n", what,
               status.ToString().c_str());
  std::abort();
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / "dexa_bench_crash" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::unique_ptr<ModuleRegistry> FreshRegistry(const EvaluationEnv& env) {
  auto wrapped = WrapRegistryWithFaults(*env.corpus.registry, FaultProfile{});
  if (!wrapped.ok()) Die("WrapRegistryWithFaults", wrapped.status());
  return std::move(wrapped).value();
}

struct CrashCell {
  CrashPoint point = CrashPoint::kNone;
  double crashed_run_ms = 0.0;   ///< Wall time until the injected crash.
  double recovery_ms = 0.0;      ///< RecoverJournal: scan + CRC validation.
  double resume_ms = 0.0;        ///< Replay + generate the remainder.
  uint64_t replayed = 0;         ///< Modules served from the journal.
  uint64_t reinvoked = 0;        ///< Modules generated live on resume.
  size_t records_recovered = 0;
  size_t bytes_discarded = 0;
  bool identical = false;        ///< Resumed state == uninterrupted state.
};

CrashCell RunCell(const EvaluationEnv& env, CrashPoint point,
                  const std::string& baseline) {
  CrashCell cell;
  cell.point = point;
  EngineConfig config = EngineConfig().Threads(kThreads).Seed(0xD0D0);
  const std::string dir =
      FreshDir(std::string("crash-") + CrashPointName(point));

  // Phase 1: the journaled run dies at the chosen module's commit.
  {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.cache, env.pool.get(), engine.get());
    auto registry = FreshRegistry(env);
    auto journal = RunJournal::Create(dir, {}, &engine->metrics());
    if (!journal.ok()) Die("RunJournal::Create", journal.status());
    const auto modules = registry->AvailableModules();
    if (modules.size() <= kCrashModuleIndex) {
      Die("module index", Status::Internal("corpus smaller than expected"));
    }
    CrashPlan crash;
    crash.point = point;
    crash.key = modules[kCrashModuleIndex]->spec().id;
    RunRequest request = MakeDurableAnnotateRun(
        generator, *registry, *env.corpus.ontology, *journal);
    request.crash = &crash;

    auto start = std::chrono::steady_clock::now();
    auto result = SubmitRun(request);
    auto end = std::chrono::steady_clock::now();
    if (!result.ok()) Die("crashing SubmitRun", result.status());
    if (!result->run_status.IsCancelled()) {
      Die("crash injection",
          Status::Internal("run was not killed: " +
                           result->run_status.ToString()));
    }
    cell.crashed_run_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
  }

  // Phase 2: a fresh process recovers the journal and resumes the run.
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.cache, env.pool.get(), engine.get());
  auto registry = FreshRegistry(env);

  auto recover_start = std::chrono::steady_clock::now();
  auto recovery = RecoverJournal(dir, &engine->metrics());
  auto recover_end = std::chrono::steady_clock::now();
  if (!recovery.ok()) Die("RecoverJournal", recovery.status());
  cell.recovery_ms = std::chrono::duration<double, std::milli>(
                         recover_end - recover_start)
                         .count();
  cell.records_recovered = recovery->records.size();
  cell.bytes_discarded = recovery->bytes_discarded;

  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
  if (!journal.ok()) Die("RunJournal::Resume", journal.status());

  RunRequest request = MakeDurableAnnotateRun(generator, *registry,
                                              *env.corpus.ontology, *journal);
  request.resume = &*recovery;
  auto resume_start = std::chrono::steady_clock::now();
  auto result = SubmitRun(request);
  auto resume_end = std::chrono::steady_clock::now();
  if (!result.ok()) Die("resume SubmitRun", result.status());
  if (!result->complete()) Die("resume aborted", result->run_status);
  cell.resume_ms = std::chrono::duration<double, std::milli>(
                       resume_end - resume_start)
                       .count();

  EngineMetricsSnapshot metrics = engine->metrics().Snapshot();
  cell.replayed = metrics.modules_replayed;
  cell.reinvoked = metrics.modules_reinvoked;
  cell.identical =
      SaveAnnotations(*registry, *env.corpus.ontology) == baseline;
  return cell;
}

int RunBench() {
  const auto& env = bench_env::GetEnvironment();

  // Uninterrupted baseline: the state every resumed run must reproduce.
  double baseline_ms = 0.0;
  std::string baseline;
  {
    EngineConfig config = EngineConfig().Threads(kThreads).Seed(0xD0D0);
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.cache, env.pool.get(), engine.get());
    auto registry = FreshRegistry(env);
    auto journal =
        RunJournal::Create(FreshDir("baseline"), {}, &engine->metrics());
    if (!journal.ok()) Die("RunJournal::Create", journal.status());
    auto start = std::chrono::steady_clock::now();
    auto result = SubmitRun(MakeDurableAnnotateRun(
        generator, *registry, *env.corpus.ontology, *journal));
    auto end = std::chrono::steady_clock::now();
    if (!result.ok()) Die("baseline SubmitRun", result.status());
    if (!result->complete()) Die("baseline aborted", result->run_status);
    baseline_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    baseline = SaveAnnotations(*registry, *env.corpus.ontology);
  }

  const std::vector<CrashPoint> points = {CrashPoint::kCrashBeforeCommit,
                                          CrashPoint::kCrashAfterCommit,
                                          CrashPoint::kTornWrite};
  std::vector<CrashCell> cells;
  for (CrashPoint point : points) {
    cells.push_back(RunCell(env, point, baseline));
  }

  TablePrinter table({"crash point", "recovery (ms)", "resume (ms)",
                      "replayed", "re-invoked", "replay ratio",
                      "bytes discarded", "identical"});
  bool accepted = true;
  for (const CrashCell& cell : cells) {
    double total = static_cast<double>(cell.replayed + cell.reinvoked);
    double ratio =
        total > 0 ? static_cast<double>(cell.replayed) / total : 0.0;
    table.AddRow({CrashPointName(cell.point), FormatFixed(cell.recovery_ms, 2),
                  FormatFixed(cell.resume_ms, 1),
                  std::to_string(cell.replayed),
                  std::to_string(cell.reinvoked), FormatFixed(ratio, 3),
                  std::to_string(cell.bytes_discarded),
                  cell.identical ? "yes" : "NO"});
    accepted = accepted && cell.identical && cell.replayed > 0;
  }
  table.Print(std::cout,
              "Crash-resume: journaled annotation runs killed at module " +
                  std::to_string(kCrashModuleIndex) + ", then resumed.");
  std::cout << "uninterrupted baseline: " << FormatFixed(baseline_ms, 1)
            << " ms; resumed runs " << (accepted ? "meet" : "MISS")
            << " the byte-identical + replayed>0 bar\n\n";

  bench_env::BenchReport report("crash_recovery", kThreads);
  report.Add("baseline_ms", baseline_ms, "ms");
  for (const CrashCell& cell : cells) {
    const std::string key = CrashPointName(cell.point);
    double total = static_cast<double>(cell.replayed + cell.reinvoked);
    report.Add(key + "_recovery_ms", cell.recovery_ms, "ms");
    report.Add(key + "_resume_ms", cell.resume_ms, "ms");
    report.Add(key + "_replayed", static_cast<double>(cell.replayed),
               "count");
    report.Add(key + "_reinvoked", static_cast<double>(cell.reinvoked),
               "count");
    report.Add(key + "_replay_ratio",
               total > 0 ? static_cast<double>(cell.replayed) / total : 0.0,
               "ratio");
    report.Add(key + "_bytes_discarded",
               static_cast<double>(cell.bytes_discarded), "bytes");
    report.Add(key + "_identical", cell.identical ? 1.0 : 0.0, "bool");
  }
  report.Add("accepted", accepted ? 1.0 : 0.0, "bool");
  report.Write();
  return accepted ? 0 : 1;
}

}  // namespace
}  // namespace dexa

int main() { return dexa::RunBench(); }
