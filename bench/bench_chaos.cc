// Robustness harness for the I/O fault seam: durable annotate runs are
// driven through per-run FaultyIoEnv profiles — ENOSPC caps, EIO on the
// Kth write, fsync failure, rename failure on the DONE marker — and every
// casualty must (a) fail typed (kResourceExhausted / kCorrupted), (b)
// leave a journal the restart scan can resume, and (c) converge to the
// fault-free digest after resume. Reports fault survival, convergence
// fraction and recovery latency; emits BENCH_chaos.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_env.h"
#include "common/rng.h"
#include "common/table.h"
#include "serve/run_manager.h"
#include "serve/serve_env.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr size_t kThreads = 8;
constexpr size_t kFaultRuns = 12;

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "chaos bench failed at %s: %s\n", what,
               status.ToString().c_str());
  std::abort();
}

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Draws a fault profile for run `i`. Budgets start past the run
/// descriptor (journal magic = write #1, RUN descriptor = write #2 /
/// rename #1; syncs #1-#4 are the run directory's entry, the first
/// segment's entry, the RUN descriptor and its entry) so faults land
/// mid-run. A run's journal then makes syncs #5-#13: four segment rolls,
/// a seal and a new entry each, then the final seal. The last run always
/// targets the DONE marker (rename #2).
IoFaultProfile DrawProfile(Rng& rng, size_t i) {
  IoFaultProfile profile;
  profile.seed = 0xC4A05 + i;
  if (i + 1 == kFaultRuns) {
    profile.rename_fail_at = 2;
    return profile;
  }
  switch (i % 3) {
    case 0:
      profile.enospc_after_bytes = 2048 + rng.NextBelow(8192);
      break;
    case 1:
      profile.eio_write_at = 3 + rng.NextBelow(40);
      break;
    default:
      profile.fsync_fail_at = 5 + rng.NextBelow(9);
      break;
  }
  return profile;
}

int RunBench() {
  serve::ServeEnvOptions env_options;
  env_options.threads = kThreads;
  fs::path journal_root = fs::temp_directory_path() / "dexa_bench_chaos";
  fs::remove_all(journal_root);
  fs::create_directories(journal_root);
  env_options.journal_root = journal_root.string();
  auto env = serve::ServeEnv::Create(env_options);
  if (!env.ok()) Die("ServeEnv::Create", env.status());

  // Fault-free baseline: one durable annotate run, digest + wall time.
  serve::RunManagerOptions manager_options;
  manager_options.capacity = kFaultRuns + 1;
  manager_options.execute_batch = kThreads;
  serve::RunSpec spec;
  spec.kind = "annotate_durable";
  uint64_t baseline_digest = 0;
  double baseline_ms = 0.0;
  {
    serve::RunManager manager((*env)->engine(), manager_options);
    auto run = (*env)->Prepare(spec);
    if (!run.ok()) Die("baseline Prepare", run.status());
    const Clock::time_point start = Clock::now();
    auto id = manager.Submit("baseline", std::move(*run));
    if (!id.ok()) Die("baseline Submit", id.status());
    manager.Drain();
    baseline_ms = ElapsedMs(start);
    auto record = manager.RunOf(*id);
    if (!record.ok()) Die("baseline RunOf", record.status());
    baseline_digest = (*env)->AnnotationsDigest(*(*record)->registry);
  }

  // Fault sweep: kFaultRuns durable annotates, each through its own
  // randomized FaultyIoEnv.
  size_t faulted = 0;
  size_t untyped = 0;
  size_t completed_under_fault = 0;
  {
    serve::RunManager manager((*env)->engine(), manager_options);
    Rng rng(0xBE6C);
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < kFaultRuns; ++i) {
      spec.io_fault = DrawProfile(rng, i);
      auto run = (*env)->Prepare(spec);
      if (!run.ok()) Die("faulted Prepare", run.status());
      auto id = manager.Submit("chaos-" + std::to_string(i % 4),
                               std::move(*run));
      if (!id.ok()) Die("faulted Submit", id.status());
      ids.push_back(*id);
    }
    manager.Drain();
    for (uint64_t id : ids) {
      auto view = manager.StatusOf(id);
      if (!view.ok()) Die("StatusOf", view.status());
      if (view->state == serve::RunState::kFailed) {
        ++faulted;
        if (view->outcome.find("ResourceExhausted") == std::string::npos &&
            view->outcome.find("Corrupted") == std::string::npos) {
          ++untyped;
        }
      } else {
        ++completed_under_fault;
      }
    }
  }

  // Restart + recovery: fresh envs on the same journal root resume every
  // casualty with real I/O until the unfinished scan comes up empty.
  size_t resumed = 0;
  size_t converged = 0;
  size_t restarts = 0;
  double recovery_ms_total = 0.0;
  for (; restarts < 5; ++restarts) {
    auto restarted = serve::ServeEnv::Create(env_options);
    if (!restarted.ok()) Die("restart ServeEnv::Create", restarted.status());
    auto dirs = (*restarted)->UnfinishedJournalDirs();
    if (!dirs.ok()) Die("UnfinishedJournalDirs", dirs.status());
    if (dirs->empty()) break;
    serve::RunManager manager((*restarted)->engine(), manager_options);
    std::vector<uint64_t> ids;
    const Clock::time_point start = Clock::now();
    for (const std::string& dir : *dirs) {
      auto run = (*restarted)->PrepareResume(dir);
      if (!run.ok()) Die("PrepareResume", run.status());
      auto id = manager.Submit("recovery", std::move(*run));
      if (!id.ok()) Die("resume Submit", id.status());
      ids.push_back(*id);
    }
    manager.Drain();
    recovery_ms_total += ElapsedMs(start);
    for (uint64_t id : ids) {
      auto record = manager.RunOf(id);
      if (!record.ok()) Die("resume RunOf", record.status());
      ++resumed;
      if ((*restarted)->AnnotationsDigest(*(*record)->registry) ==
          baseline_digest) {
        ++converged;
      }
    }
  }
  double converged_fraction =
      resumed > 0 ? static_cast<double>(converged) / resumed : 0.0;
  double recovery_ms_mean =
      resumed > 0 ? recovery_ms_total / static_cast<double>(resumed) : 0.0;
  bool accepted = faulted >= 3 && untyped == 0 && resumed > 0 &&
                  converged == resumed;

  TablePrinter table({"stage", "runs", "notes"});
  table.AddRow({"baseline", "1", FormatFixed(baseline_ms, 1) + " ms"});
  table.AddRow({"faulted", std::to_string(faulted),
                std::to_string(untyped) + " untyped failures"});
  table.AddRow({"completed under fault", std::to_string(completed_under_fault),
                "budget never hit"});
  table.AddRow({"resumed", std::to_string(resumed),
                std::to_string(converged) + " converged to baseline digest"});
  table.Print(std::cout,
              "dexa chaos: durable annotate runs under injected disk faults "
              "(" + std::to_string(kFaultRuns) + " fault profiles, " +
                  std::to_string(restarts) + " restart generations).");
  std::cout << "convergence: " << converged << "/" << resumed
            << " resumed runs byte-identical to the fault-free baseline; "
            << (accepted ? "accepted" : "NOT ACCEPTED") << "\n\n";

  bench_env::BenchReport report("chaos", kThreads);
  report.Add("baseline_ms", baseline_ms, "ms");
  report.Add("faulted_runs", static_cast<double>(faulted), "count");
  report.Add("untyped_failures", static_cast<double>(untyped), "count");
  report.Add("resumed_runs", static_cast<double>(resumed), "count");
  report.Add("converged_fraction", converged_fraction, "fraction");
  report.Add("recovery_ms_mean", recovery_ms_mean, "ms");
  report.Add("restart_generations", static_cast<double>(restarts), "count");
  report.Add("accepted", accepted ? 1.0 : 0.0, "bool");
  report.Write();
  return accepted ? 0 : 1;
}

}  // namespace
}  // namespace dexa

int main() { return dexa::RunBench(); }
