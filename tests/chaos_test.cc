// Chaos suite: the daemon and its durable runs survive the disk and the
// network. Seed-driven FaultyIoEnv profiles inject ENOSPC, EIO, short
// writes, fsync failures and rename failures under concurrent tenants; the
// wire is fed oversized, dribbled and garbage input; daemons are killed and
// restarted mid-run. The invariant throughout: every run ends in a typed
// outcome (never UB, never a wedged daemon), and every faulted durable run
// resumes to results byte-identical to a fault-free baseline.

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "common/rng.h"
#include "core/run_api.h"
#include "durability/journal.h"
#include "serve/run_manager.h"
#include "serve/serve_env.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace dexa::serve {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / "dexa_chaos" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::unique_ptr<ServeEnv> MakeEnv(const std::string& journal_dir,
                                  size_t threads) {
  ServeEnvOptions options;
  options.journal_root = journal_dir;
  options.threads = threads;
  auto env = ServeEnv::Create(options);
  EXPECT_TRUE(env.ok()) << env.status();
  if (!env.ok()) std::abort();
  return std::move(env).value();
}

/// The unfinished-run scan of `env`; a scan failure fails the test.
std::vector<std::string> UnfinishedDirs(const ServeEnv& env) {
  auto dirs = env.UnfinishedJournalDirs();
  EXPECT_TRUE(dirs.ok()) << dirs.status();
  return dirs.ok() ? std::move(dirs).value() : std::vector<std::string>{};
}

/// One environment shared by the suites that never restart a daemon.
ServeEnv& SharedEnv() {
  static ServeEnv* env =
      MakeEnv(FreshDir("shared_journal"), /*threads=*/4).release();
  return *env;
}

WireMessage Response(Server& server, const std::string& line) {
  auto parsed = ParseWire(server.HandleLine(line));
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? *parsed : WireMessage{};
}

// -- The I/O seam -----------------------------------------------------------

TEST(IoEnvTest, RealEnvRoundTripsAndMaps) {
  const std::string dir = FreshDir("real_env");
  const std::string path = dir + "/file.txt";
  const std::string content = "every byte through the seam\n";
  ASSERT_TRUE(WriteFileAtomic(IoEnv::Real(), path, content).ok());

  auto read = IoEnv::Real().ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, content);

  auto map = IoEnv::Real().MapReadOnly(path);
  ASSERT_TRUE(map.ok()) << map.status();
  EXPECT_EQ(std::string(static_cast<const char*>(map->data()), map->size()),
            content);

  EXPECT_TRUE(IoEnv::Real().ReadFile(dir + "/missing").status().IsNotFound());
  // The atomic write leaves no temp file behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(FaultyIoEnvTest, FaultSequenceIsDeterministic) {
  const std::string dir = FreshDir("deterministic");
  IoFaultProfile profile;
  profile.seed = 0xFA17;
  profile.write_fault_rate = 0.3;

  // The same profile over the same operation sequence injects the same
  // faults at the same offsets — chaos runs are reproducible by seed.
  std::vector<std::vector<int>> fates;
  for (int trial = 0; trial < 2; ++trial) {
    FaultyIoEnv env(profile);
    std::vector<int> trial_fates;
    auto file = env.NewWritableFile(dir + "/t" + std::to_string(trial));
    ASSERT_TRUE(file.ok()) << file.status();
    for (int i = 0; i < 40; ++i) {
      Status s = (*file)->Append(std::string(16 + (i % 7) * 9, 'x'));
      trial_fates.push_back(static_cast<int>(s.code()));
    }
    trial_fates.push_back(static_cast<int>(env.faults_injected()));
    trial_fates.push_back(static_cast<int>(env.bytes_accepted()));
    fates.push_back(std::move(trial_fates));
  }
  EXPECT_EQ(fates[0], fates[1]);
  // The Bernoulli axis actually fired at rate 0.3 over 40 writes.
  EXPECT_GT(fates[0].back(), 0);
}

TEST(FaultyIoEnvTest, EnospcIsTypedAndLandsAPrefix) {
  const std::string dir = FreshDir("enospc");
  IoFaultProfile profile;
  profile.enospc_after_bytes = 100;
  FaultyIoEnv env(profile);

  auto file = env.NewWritableFile(dir + "/data");
  ASSERT_TRUE(file.ok()) << file.status();
  const std::string first(60, 'a');
  const std::string second(60, 'b');
  ASSERT_TRUE((*file)->Append(first).ok());
  Status full = (*file)->Append(second);
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.IsResourceExhausted()) << full;
  EXPECT_LE(env.bytes_accepted(), 100u);
  EXPECT_GE(env.faults_injected(), 1u);

  // What reached the disk is a prefix of the logical stream, capped at the
  // injected disk size — exactly what a real ENOSPC leaves behind.
  (void)(*file)->Close();
  auto on_disk = IoEnv::Real().ReadFile(dir + "/data");
  ASSERT_TRUE(on_disk.ok()) << on_disk.status();
  EXPECT_LE(on_disk->size(), 100u);
  EXPECT_EQ(*on_disk, (first + second).substr(0, on_disk->size()));
}

TEST(FaultyIoEnvTest, EioAndFsyncFaultsAreTypedCorrupted) {
  const std::string dir = FreshDir("eio");
  {
    IoFaultProfile profile;
    profile.eio_write_at = 2;
    FaultyIoEnv env(profile);
    auto file = env.NewWritableFile(dir + "/w");
    ASSERT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Append("first").ok());
    Status second = (*file)->Append("second");
    ASSERT_FALSE(second.ok());
    EXPECT_TRUE(second.IsCorrupted()) << second;
  }
  {
    IoFaultProfile profile;
    profile.fsync_fail_at = 1;
    FaultyIoEnv env(profile);
    auto file = env.NewWritableFile(dir + "/s");
    ASSERT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Append("payload").ok());
    Status synced = (*file)->Sync();
    ASSERT_FALSE(synced.ok());
    EXPECT_TRUE(synced.IsCorrupted()) << synced;
  }
}

// A directory sync is an fsync to the fault profile: it takes the next
// number of the fsync counter, file syncs and directory syncs alike, and
// the one the profile names fails kCorrupted without reaching the disk.
TEST(FaultyIoEnvTest, DirectorySyncConsumesTheFsyncCounter) {
  const std::string dir = FreshDir("sync_dir");
  IoFaultProfile profile;
  profile.fsync_fail_at = 2;
  FaultyIoEnv env(profile);
  auto file = env.NewWritableFile(dir + "/f");
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->Append("payload").ok());
  EXPECT_TRUE((*file)->Sync().ok());  // Sync #1.
  const Status failed = env.SyncDir(dir);  // Sync #2: the injected fault.
  EXPECT_TRUE(failed.IsCorrupted()) << failed;
  EXPECT_NE(failed.message().find("sync #2"), std::string::npos) << failed;
  EXPECT_EQ(env.faults_injected(), 1u);
  EXPECT_TRUE(env.SyncDir(dir).ok());  // Sync #3 goes through.
  EXPECT_EQ(env.syncs(), 3u);
  EXPECT_TRUE(env.SyncDir(dir + "/missing").IsNotFound());
  EXPECT_EQ(env.faults_injected(), 1u);

  // A failed directory sync fails an atomic write typed: the rename has
  // happened, but its durability is unknown.
  IoFaultProfile atomic_profile;
  atomic_profile.fsync_fail_at = 2;  // #1 syncs the temp, #2 the directory.
  FaultyIoEnv atomic_env(atomic_profile);
  const Status written = WriteFileAtomic(atomic_env, dir + "/target", "x");
  EXPECT_TRUE(written.IsCorrupted()) << written;
  EXPECT_EQ(atomic_env.faults_injected(), 1u);
}

// Truncate syncs before it returns, so it takes the next number of the
// fsync counter too; the one the profile names fails kCorrupted after the
// cut. Resume cuts a damaged tail back that way: the failed sync fails it
// typed, and a resume on a healthy disk recovers the same records.
TEST(FaultyIoEnvTest, TruncateSyncConsumesTheFsyncCounter) {
  const std::string dir = FreshDir("truncate_sync");
  IoFaultProfile profile;
  profile.fsync_fail_at = 2;
  FaultyIoEnv env(profile);
  auto file = env.NewWritableFile(dir + "/f");
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->Append("payload").ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE(env.Truncate(dir + "/f", 6).ok());  // Sync #1.
  const Status failed = env.Truncate(dir + "/f", 5);  // Sync #2: the fault.
  EXPECT_TRUE(failed.IsCorrupted()) << failed;
  EXPECT_NE(failed.message().find("sync #2"), std::string::npos) << failed;
  EXPECT_EQ(env.syncs(), 2u);
  EXPECT_EQ(env.faults_injected(), 1u);
  // A truncate that fails before its sync takes no number.
  EXPECT_TRUE(env.Truncate(dir + "/missing", 0).IsNotFound());
  EXPECT_EQ(env.syncs(), 2u);

  const std::string journal_dir = dir + "/journal";
  {
    auto journal = RunJournal::Create(journal_dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (const char* record : {"one", "two", "three"}) {
      ASSERT_TRUE(journal->Append(record).ok());
    }
    ASSERT_TRUE(journal->Seal().ok());
  }
  ASSERT_TRUE(TearJournalTail(journal_dir, /*seed=*/5, /*flips=*/0,
                              /*truncate_bytes=*/2)
                  .ok());
  auto recovery = RecoverJournal(journal_dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_TRUE(recovery->tail_discarded());
  IoFaultProfile resume_profile;
  resume_profile.fsync_fail_at = 1;  // The truncate's sync.
  FaultyIoEnv resume_env(resume_profile);
  auto refused = RunJournal::Resume(journal_dir, *recovery, {}, nullptr,
                                    &resume_env);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsCorrupted()) << refused.status();
  EXPECT_EQ(resume_env.faults_injected(), 1u);

  auto again = RecoverJournal(journal_dir);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->tail_discarded());
  EXPECT_EQ(again->records, recovery->records);
  auto resumed = RunJournal::Resume(journal_dir, *again);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->Append("four").ok());
  ASSERT_TRUE(resumed->Seal().ok());
  auto final_records = RecoverJournal(journal_dir);
  ASSERT_TRUE(final_records.ok()) << final_records.status();
  EXPECT_EQ(final_records->records,
            (std::vector<std::string>{"one", "two", "four"}));
}

TEST(FaultyIoEnvTest, AtomicWriteRenameFaultLeavesNoTornTarget) {
  const std::string dir = FreshDir("rename");
  const std::string path = dir + "/target";
  IoFaultProfile profile;
  profile.rename_fail_at = 1;
  FaultyIoEnv env(profile);

  Status written = WriteFileAtomic(env, path, "contents");
  ASSERT_FALSE(written.ok());
  EXPECT_TRUE(written.IsResourceExhausted()) << written;
  // Atomicity held: no target, and the temp file was cleaned up.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // The same env renames fine afterwards (the fault was the Kth, not all).
  EXPECT_TRUE(WriteFileAtomic(env, path, "contents").ok());
  auto read = IoEnv::Real().ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "contents");
}

// -- The journal under disk faults ------------------------------------------

TEST(JournalFaultTest, EnospcLeavesValidPrefixAndResumeIsByteIdentical) {
  const std::string dir = FreshDir("journal_enospc");
  auto payload = [](int i) {
    return "record-" + std::to_string(i) + std::string(24, 'p');
  };

  IoFaultProfile profile;
  profile.enospc_after_bytes = 400;
  FaultyIoEnv faulty(profile);
  auto journal = RunJournal::Create(dir, {}, nullptr, &faulty);
  ASSERT_TRUE(journal.ok()) << journal.status();

  std::vector<std::string> accepted;
  Status failure = Status::OK();
  for (int i = 0; i < 24; ++i) {
    Status appended = journal->Append(payload(i));
    if (!appended.ok()) {
      failure = appended;
      break;
    }
    accepted.push_back(payload(i));
  }
  ASSERT_FALSE(failure.ok()) << "the injected disk never filled";
  EXPECT_TRUE(failure.IsResourceExhausted()) << failure;
  ASSERT_FALSE(accepted.empty());
  // The journal latches after a fault: damage is never buried behind
  // later valid-looking frames.
  EXPECT_TRUE(journal->Append("more").IsUnavailable());

  // The disk holds a valid prefix: exactly the acknowledged records; the
  // torn frame of the failing append is discarded by the CRC scan.
  auto recovered = RecoverJournal(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->records, accepted);

  // "Free some space" (resume with the real env) and finish the run: the
  // final record sequence is byte-identical to a never-faulted journal.
  auto resumed = RunJournal::Resume(dir, *recovered);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  std::vector<std::string> expected = accepted;
  for (int i = static_cast<int>(accepted.size()); i < 24; ++i) {
    ASSERT_TRUE(resumed->Append(payload(i)).ok());
    expected.push_back(payload(i));
  }
  ASSERT_TRUE(resumed->Seal().ok());

  auto final_state = RecoverJournal(dir);
  ASSERT_TRUE(final_state.ok());
  EXPECT_FALSE(final_state->tail_discarded()) << final_state->tail_status;
  EXPECT_EQ(final_state->records, expected);

  const std::string clean_dir = FreshDir("journal_clean");
  auto clean = RunJournal::Create(clean_dir);
  ASSERT_TRUE(clean.ok());
  for (int i = 0; i < 24; ++i) ASSERT_TRUE(clean->Append(payload(i)).ok());
  ASSERT_TRUE(clean->Seal().ok());
  auto clean_state = RecoverJournal(clean_dir);
  ASSERT_TRUE(clean_state.ok());
  EXPECT_EQ(final_state->records, clean_state->records);
}

// -- Durable runs degrade typed and resume byte-identical -------------------

TEST(ChaosTest, DiskFaultDegradesTypedAndResumeIsByteIdentical) {
  const std::string root = FreshDir("degrade");

  // Fault-free baseline in a daemon of its own.
  std::string baseline_digest;
  {
    auto env = MakeEnv(root + "/baseline", 2);
    Server server(*env, {});
    WireMessage submitted = Response(
        server, "{\"op\":\"submit\",\"kind\":\"annotate_durable\"}");
    ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
    Response(server, "{\"op\":\"drain\"}");
    WireMessage result = Response(
        server, "{\"op\":\"result\",\"id\":\"" + submitted["id"] + "\"}");
    ASSERT_EQ(result["ok"], "1") << result["error"];
    baseline_digest = result["digest"];
    ASSERT_FALSE(baseline_digest.empty());
  }

  // The disk "fills" 4 KiB into the journal: the run fails typed, the
  // daemon survives, and the journal directory holds a valid prefix.
  std::string faulted_dir;
  {
    auto env = MakeEnv(root + "/live", 2);
    Server server(*env, {});
    WireMessage submitted = Response(
        server, "{\"op\":\"submit\",\"kind\":\"annotate_durable\","
                "\"io_enospc_after\":\"4096\"}");
    ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
    faulted_dir = submitted["journal"];
    Response(server, "{\"op\":\"drain\"}");
    WireMessage status = Response(
        server, "{\"op\":\"status\",\"id\":\"" + submitted["id"] + "\"}");
    EXPECT_EQ(status["state"], "failed");
    EXPECT_NE(status["outcome"].find("ResourceExhausted"), std::string::npos)
        << status["outcome"];
    EXPECT_FALSE(fs::exists(fs::path(faulted_dir) / "DONE"));

    // The daemon itself is healthy — it shed the run, not the process —
    // and the health probe reports the degraded disk.
    WireMessage health = Response(server, "{\"op\":\"health\"}");
    EXPECT_EQ(health["ok"], "1");
    EXPECT_EQ(health["state"], "serving");
    EXPECT_EQ(health["disk"], "degraded");
    EXPECT_EQ(health["failed_io"], "1");

    // The journal on disk is a valid prefix (possibly with one torn frame
    // the CRC scan discards).
    auto recovered = RecoverJournal(faulted_dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_GT(recovered->records.size(), 0u);
  }

  // Restart after "space was freed": the startup scan resumes the run and
  // completes it to the baseline bytes.
  {
    auto env = MakeEnv(root + "/live", 2);
    EXPECT_EQ(UnfinishedDirs(*env),
              std::vector<std::string>{faulted_dir});
    Server server(*env, {});
    auto resumed = server.ResumeInFlightRuns();
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(*resumed, 1u);
    EXPECT_EQ(server.manager().Drain(), 1u);

    const std::vector<uint64_t>& order = server.manager().started_order();
    ASSERT_EQ(order.size(), 1u);
    auto result = server.manager().ResultOf(order[0]);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT((*result)->annotate.replayed, 0u);
    auto run = server.manager().RunOf(order[0]);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(std::to_string(env->AnnotationsDigest(*(*run)->registry)),
              baseline_digest);
    EXPECT_TRUE(fs::exists(fs::path(faulted_dir) / "DONE"));
    EXPECT_TRUE(UnfinishedDirs(*env).empty());
  }
}

/// The acceptance test of the chaos harness: 12 durable runs across four
/// tenants, most with a randomized injected disk fault, all driven through
/// the daemon. Every run ends in a typed outcome; restart daemons resume
/// the casualties until none remain; every digest — faulted-and-resumed or
/// untouched — is byte-identical to the fault-free baseline.
TEST(ChaosTest, ConcurrentTenantsUnderRandomFaultsConverge) {
  const std::string root = FreshDir("fleet");
  constexpr size_t kRuns = 12;

  // Fault-free baselines for both durable kinds.
  std::string annotate_baseline, enact_baseline;
  {
    auto env = MakeEnv(root + "/baseline", 2);
    Server server(*env, {});
    for (const char* kind : {"annotate_durable", "enact_durable"}) {
      WireMessage submitted = Response(
          server, std::string("{\"op\":\"submit\",\"kind\":\"") + kind +
                      "\",\"workflow\":\"0\"}");
      ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
      Response(server, "{\"op\":\"drain\"}");
      WireMessage result = Response(
          server, "{\"op\":\"result\",\"id\":\"" + submitted["id"] + "\"}");
      ASSERT_EQ(result["ok"], "1") << result["error"];
      (std::string(kind) == "annotate_durable" ? annotate_baseline
                                               : enact_baseline) =
          result["digest"];
    }
    ASSERT_FALSE(annotate_baseline.empty());
    ASSERT_FALSE(enact_baseline.empty());
  }

  // The live daemon: randomized fault profiles, four tenants, one batch.
  Rng rng(0xC4A05);
  std::vector<bool> drew_fault(kRuns, false);
  {
    auto env = MakeEnv(root + "/live", 4);
    ServerOptions options;
    options.manager.capacity = kRuns;
    options.manager.execute_batch = 8;
    Server server(*env, options);

    std::vector<std::string> ids;
    std::vector<bool> is_annotate;
    for (size_t i = 0; i < kRuns; ++i) {
      const bool annotate = i % 3 == 0;
      std::string request = "{\"op\":\"submit\",\"kind\":\"";
      request += annotate ? "annotate_durable" : "enact_durable";
      if (!annotate) request += "\",\"workflow\":\"0";
      request += "\",\"tenant\":\"t" + std::to_string(i % 4) + "\"";
      request += ",\"io_seed\":\"" + std::to_string(1000 + i) + "\"";
      switch (i == kRuns - 1 ? 4u : rng.NextBelow(4)) {
        case 1:  // Disk fills mid-journal.
          request += ",\"io_enospc_after\":\"" +
                     std::to_string(2048 + rng.NextIndex(8192)) + "\"";
          drew_fault[i] = true;
          break;
        case 2:  // Flaky device EIO on a later write.
          request += ",\"io_eio_write\":\"" +
                     std::to_string(3 + rng.NextIndex(40)) + "\"";
          drew_fault[i] = true;
          break;
        case 3:  // fsync loses writeback.
          // Syncs 1-4 are submit's (the run directory's entry, the first
          // segment's entry, the RUN descriptor and its entry). An annotate
          // run then makes 9 (four segment rolls, a seal and an entry
          // each, then the final seal), an enactment 1 (its final seal).
          request += ",\"io_fsync_fail\":\"" +
                     std::to_string(5 + rng.NextIndex(annotate ? 9 : 1)) +
                     "\"";
          drew_fault[i] = true;
          break;
        case 4:  // DONE-marker rename fails: run completes, marker missing.
          request += ",\"io_rename_fail\":\"2\"";
          break;
        default:
          break;
      }
      request += "}";
      WireMessage submitted = Response(server, request);
      ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
      ids.push_back(submitted["id"]);
      is_annotate.push_back(annotate);
    }
    Response(server, "{\"op\":\"drain\"}");
    // Count the drawn faults that fired, not the ones drawn: a draw past
    // the run's last write or sync injects nothing.
    size_t faulted = 0;
    for (size_t i = 0; i < kRuns; ++i) {
      auto run = server.manager().RunOf(std::stoull(ids[i]));
      ASSERT_TRUE(run.ok()) << run.status();
      if (drew_fault[i] && (*run)->faulty->faults_injected() > 0) ++faulted;
    }
    ASSERT_GE(faulted, 3u) << "seed produced too few faults to be a test";

    // Every run ended typed: done, or failed with a disk-fault status —
    // and the done ones already match the baseline.
    for (size_t i = 0; i < kRuns; ++i) {
      WireMessage status = Response(
          server, "{\"op\":\"status\",\"id\":\"" + ids[i] + "\"}");
      ASSERT_TRUE(status["state"] == "done" || status["state"] == "failed")
          << status["state"];
      if (status["state"] == "failed") {
        EXPECT_FALSE(status["outcome"].empty());
        EXPECT_TRUE(
            status["outcome"].find("ResourceExhausted") != std::string::npos ||
            status["outcome"].find("Corrupted") != std::string::npos)
            << status["outcome"];
      } else {
        WireMessage result = Response(
            server, "{\"op\":\"result\",\"id\":\"" + ids[i] + "\"}");
        ASSERT_EQ(result["ok"], "1") << result["error"];
        EXPECT_EQ(result["digest"],
                  is_annotate[i] ? annotate_baseline : enact_baseline)
            << "run " << i;
      }
    }
    WireMessage health = Response(server, "{\"op\":\"health\"}");
    EXPECT_EQ(health["disk"], "degraded");
    EXPECT_EQ(health["tenants"], "4");
  }

  // Kill the daemon; restart over the same journal root until every
  // casualty has been resumed. Real (un-faulted) I/O now — space freed,
  // device replaced — so each pass converges.
  bool converged = false;
  for (int restart = 0; restart < 5 && !converged; ++restart) {
    auto env = MakeEnv(root + "/live", 4);
    if (UnfinishedDirs(*env).empty()) {
      converged = true;
      break;
    }
    Server server(*env, {});
    auto resumed = server.ResumeInFlightRuns();
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_GT(*resumed, 0u);
    server.manager().Drain();

    for (uint64_t id : server.manager().started_order()) {
      auto view = server.manager().StatusOf(id);
      ASSERT_TRUE(view.ok()) << view.status();
      ASSERT_EQ(view->state, RunState::kDone) << view->outcome;
      auto run = server.manager().RunOf(id);
      auto result = server.manager().ResultOf(id);
      ASSERT_TRUE(run.ok() && result.ok());
      ASSERT_TRUE(view->durable);
      if (view->kind == RunKind::kAnnotate) {
        EXPECT_EQ(std::to_string(env->AnnotationsDigest(*(*run)->registry)),
                  annotate_baseline);
      } else {
        ASSERT_EQ(view->kind, RunKind::kEnact);
        EXPECT_EQ(std::to_string(ServeEnv::EnactDigest((*result)->enact)),
                  enact_baseline);
      }
    }
    converged = UnfinishedDirs(*env).empty();
  }
  EXPECT_TRUE(converged) << "faulted runs did not converge in 5 restarts";
}

TEST(ChaosTest, KillRestartLoopsConverge) {
  const std::string root = FreshDir("kill_restart");

  std::string baseline_digest;
  {
    auto env = MakeEnv(root + "/baseline", 2);
    Server server(*env, {});
    WireMessage submitted = Response(
        server, "{\"op\":\"submit\",\"kind\":\"annotate_durable\"}");
    ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
    Response(server, "{\"op\":\"drain\"}");
    WireMessage result = Response(
        server, "{\"op\":\"result\",\"id\":\"" + submitted["id"] + "\"}");
    ASSERT_EQ(result["ok"], "1") << result["error"];
    baseline_digest = result["digest"];
  }

  // Three generations of daemon: each resumes its predecessors' casualties
  // AND crashes a fresh durable run of its own (a different crash point
  // each time), so unfinished work persists across the whole loop.
  const char* crash_points[] = {"before", "after", "torn"};
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto env = MakeEnv(root + "/live", 2);
    Server server(*env, {});
    auto resumed = server.ResumeInFlightRuns();
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(*resumed, static_cast<size_t>(cycle > 0 ? 1 : 0));

    const std::string crash_key = env->corpus().available_ids[17 + cycle];
    WireMessage submitted = Response(
        server, std::string("{\"op\":\"submit\",\"kind\":\"annotate_durable\","
                            "\"crash\":\"") +
                    crash_points[cycle] + "\",\"crash_key\":\"" + crash_key +
                    "\"}");
    ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
    Response(server, "{\"op\":\"drain\"}");

    // The resumed predecessor completed to baseline; the fresh run crashed.
    for (uint64_t id : server.manager().started_order()) {
      auto view = server.manager().StatusOf(id);
      ASSERT_TRUE(view.ok());
      if (view->state != RunState::kDone) continue;
      auto run = server.manager().RunOf(id);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(std::to_string(env->AnnotationsDigest(*(*run)->registry)),
                baseline_digest);
    }
    EXPECT_EQ(UnfinishedDirs(*env).size(), 1u);
  }

  // The final daemon mops up: everything converges to the baseline bytes.
  auto env = MakeEnv(root + "/live", 2);
  Server server(*env, {});
  auto resumed = server.ResumeInFlightRuns();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(*resumed, 1u);
  server.manager().Drain();
  for (uint64_t id : server.manager().started_order()) {
    auto view = server.manager().StatusOf(id);
    ASSERT_TRUE(view.ok());
    ASSERT_EQ(view->state, RunState::kDone) << view->outcome;
    auto run = server.manager().RunOf(id);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(std::to_string(env->AnnotationsDigest(*(*run)->registry)),
              baseline_digest);
  }
  EXPECT_TRUE(UnfinishedDirs(*env).empty());
}

// -- Quotas and deadlines ---------------------------------------------------

TEST(ChaosTest, QuotaBreachIsolatesTenants) {
  ServeEnv& env = SharedEnv();
  ServerOptions options;
  options.manager.capacity = 16;
  options.manager.per_tenant_max_queued = 2;
  Server server(env, options);

  // A bursting tenant hits its quota typed; the daemon has room to spare.
  std::vector<std::string> greedy_ids;
  for (int i = 0; i < 4; ++i) {
    WireMessage submitted = Response(
        server, "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"1\","
                "\"tenant\":\"greedy\"}");
    if (i < 2) {
      ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
      greedy_ids.push_back(submitted["id"]);
    } else {
      EXPECT_EQ(submitted["ok"], "0");
      EXPECT_EQ(submitted["code"], "Overloaded");
      EXPECT_NE(submitted["error"].find("quota"), std::string::npos);
    }
  }

  // A modest tenant is untouched by the breach.
  WireMessage modest = Response(
      server, "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"1\","
              "\"tenant\":\"modest\"}");
  ASSERT_EQ(modest["ok"], "1") << modest["error"];

  WireMessage health = Response(server, "{\"op\":\"health\"}");
  EXPECT_EQ(health["rejected_quota"], "2");

  Response(server, "{\"op\":\"drain\"}");
  for (const std::string& id : {greedy_ids[0], greedy_ids[1], modest["id"]}) {
    WireMessage status =
        Response(server, "{\"op\":\"status\",\"id\":\"" + id + "\"}");
    EXPECT_EQ(status["state"], "done");
  }

  // The quota clears with the queue: the greedy tenant admits again.
  WireMessage retry = Response(
      server, "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"1\","
              "\"tenant\":\"greedy\"}");
  EXPECT_EQ(retry["ok"], "1") << retry["error"];
}

TEST(ChaosTest, DeadlineExpiresQueuedRunTyped) {
  ServeEnv& env = SharedEnv();
  ServerOptions options;
  options.manager.execute_batch = 1;
  Server server(env, options);

  // Run 1 has no deadline; run 2's one-virtual-nanosecond deadline cannot
  // survive the first batch (each executed run charges kRunCostNs, 1 ms
  // of virtual time, in run_manager.cc).
  WireMessage first = Response(
      server, "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"1\","
              "\"tenant\":\"a\"}");
  ASSERT_EQ(first["ok"], "1") << first["error"];
  WireMessage second = Response(
      server, "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"1\","
              "\"tenant\":\"b\",\"deadline_ns\":\"1\"}");
  ASSERT_EQ(second["ok"], "1") << second["error"];

  WireMessage drained = Response(server, "{\"op\":\"drain\"}");
  EXPECT_EQ(drained["executed"], "1");

  WireMessage done = Response(
      server, "{\"op\":\"status\",\"id\":\"" + first["id"] + "\"}");
  EXPECT_EQ(done["state"], "done");
  WireMessage expired = Response(
      server, "{\"op\":\"status\",\"id\":\"" + second["id"] + "\"}");
  EXPECT_EQ(expired["state"], "failed");
  EXPECT_NE(expired["outcome"].find("Timeout"), std::string::npos)
      << expired["outcome"];

  WireMessage health = Response(server, "{\"op\":\"health\"}");
  EXPECT_EQ(health["deadline_expired"], "1");
}

TEST(ChaosTest, HealthProbeReportsRunTableAndBreakerState) {
  ServeEnv& env = SharedEnv();
  Server server(env, {});
  WireMessage health = Response(server, "{\"op\":\"health\"}");
  EXPECT_EQ(health["ok"], "1");
  EXPECT_EQ(health["state"], "serving");
  EXPECT_EQ(health["disk"], "ok");
  EXPECT_EQ(health["queued"], "0");
  EXPECT_EQ(health["capacity"], "64");
  EXPECT_FALSE(health["breaker_trips"].empty());
  EXPECT_FALSE(health["breaker_short_circuits"].empty());
  EXPECT_FALSE(health["virtual_now_ns"].empty());
  EXPECT_FALSE(health["journal_root"].empty());
}

// -- The wire under abuse ---------------------------------------------------

int ConnectUnix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

/// Pumps the server loop until `newlines` responses arrived on `fd` (or the
/// iteration budget runs out — the caller asserts on the result).
std::string PumpUntil(Server& server, int fd, int newlines) {
  std::string received;
  for (int i = 0;
       i < 300 &&
       std::count(received.begin(), received.end(), '\n') < newlines;
       ++i) {
    server.PollOnce();
    char buffer[4096];
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) received.append(buffer, static_cast<size_t>(n));
  }
  return received;
}

/// Satellite: an oversized request line gets a typed ResourceExhausted
/// response and the connection is closed — the read buffer never grows
/// without bound.
TEST(SocketChaosTest, OversizedLineRejectedTypedAndConnectionClosed) {
  ServeEnv& env = SharedEnv();
  ServerOptions options;
  options.unix_path = FreshDir("oversized") + "/dexa.sock";
  options.idle_timeout_ms = 1;
  options.max_line_bytes = 128;
  Server server(env, options);
  ASSERT_TRUE(server.Listen().ok());

  // Case 1: a complete line over the cap.
  {
    int client = ConnectUnix(options.unix_path);
    std::string oversized(300, 'a');
    oversized += '\n';
    ASSERT_EQ(::write(client, oversized.data(), oversized.size()),
              static_cast<ssize_t>(oversized.size()));
    std::string received = PumpUntil(server, client, 1);
    auto response = ParseWire(received.substr(0, received.find('\n')));
    ASSERT_TRUE(response.ok()) << "received: " << received;
    EXPECT_EQ((*response)["ok"], "0");
    EXPECT_EQ((*response)["code"], "ResourceExhausted");

    // The server closed its end: the client sees EOF.
    bool eof = false;
    for (int i = 0; i < 50 && !eof; ++i) {
      server.PollOnce();
      char buffer[64];
      eof = ::read(client, buffer, sizeof(buffer)) == 0;
    }
    EXPECT_TRUE(eof);
    ::close(client);
  }

  // Case 2: an unterminated line that can never become valid.
  {
    int client = ConnectUnix(options.unix_path);
    std::string pending(200, 'b');  // No newline.
    ASSERT_EQ(::write(client, pending.data(), pending.size()),
              static_cast<ssize_t>(pending.size()));
    std::string received = PumpUntil(server, client, 1);
    auto response = ParseWire(received.substr(0, received.find('\n')));
    ASSERT_TRUE(response.ok()) << "received: " << received;
    EXPECT_EQ((*response)["code"], "ResourceExhausted");
    ::close(client);
  }

  // The daemon is unharmed: a fresh connection serves normally.
  {
    int client = ConnectUnix(options.unix_path);
    const std::string probe = "{\"op\":\"metrics\"}\n";
    ASSERT_EQ(::write(client, probe.data(), probe.size()),
              static_cast<ssize_t>(probe.size()));
    std::string received = PumpUntil(server, client, 1);
    auto response = ParseWire(received.substr(0, received.find('\n')));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ((*response)["ok"], "1");
    ::close(client);
  }
}

/// Satellite: a request dribbled one byte per PollOnce() iteration parses
/// and executes identically to the same request delivered in a single read.
TEST(SocketChaosTest, SlowClientOneBytePerPollParsesIdentically) {
  ServeEnv& env = SharedEnv();
  ServerOptions options;
  options.unix_path = FreshDir("dribble") + "/dexa.sock";
  options.idle_timeout_ms = 1;
  Server server(env, options);
  ASSERT_TRUE(server.Listen().ok());

  const std::string request =
      "{\"op\":\"submit\",\"kind\":\"annotate\",\"offset\":\"4\","
      "\"count\":\"2\"}";

  // Fast client: the whole line in one write.
  int fast = ConnectUnix(options.unix_path);
  std::string line = request + "\n";
  ASSERT_EQ(::write(fast, line.data(), line.size()),
            static_cast<ssize_t>(line.size()));
  std::string fast_received = PumpUntil(server, fast, 1);
  auto fast_response =
      ParseWire(fast_received.substr(0, fast_received.find('\n')));
  ASSERT_TRUE(fast_response.ok()) << "received: " << fast_received;
  ASSERT_EQ((*fast_response)["ok"], "1") << (*fast_response)["error"];

  // Slow client: one byte per PollOnce iteration.
  int slow = ConnectUnix(options.unix_path);
  for (char byte : line) {
    ASSERT_EQ(::write(slow, &byte, 1), 1);
    server.PollOnce();
  }
  std::string slow_received = PumpUntil(server, slow, 1);
  auto slow_response =
      ParseWire(slow_received.substr(0, slow_received.find('\n')));
  ASSERT_TRUE(slow_response.ok()) << "received: " << slow_received;
  ASSERT_EQ((*slow_response)["ok"], "1") << (*slow_response)["error"];

  // Identical execution: both runs drain to the same digest.
  Response(server, "{\"op\":\"drain\"}");
  WireMessage fast_result = Response(
      server, "{\"op\":\"result\",\"id\":\"" + (*fast_response)["id"] + "\"}");
  WireMessage slow_result = Response(
      server, "{\"op\":\"result\",\"id\":\"" + (*slow_response)["id"] + "\"}");
  ASSERT_EQ(fast_result["ok"], "1") << fast_result["error"];
  ASSERT_EQ(slow_result["ok"], "1") << slow_result["error"];
  EXPECT_EQ(fast_result["digest"], slow_result["digest"]);
  EXPECT_EQ(fast_result["annotated"], slow_result["annotated"]);
  ::close(fast);
  ::close(slow);
}

TEST(SocketChaosTest, GarbageAndDribbledGarbageNeverWedgeTheDaemon) {
  ServeEnv& env = SharedEnv();
  ServerOptions options;
  options.unix_path = FreshDir("garbage") + "/dexa.sock";
  options.idle_timeout_ms = 1;
  Server server(env, options);
  ASSERT_TRUE(server.Listen().ok());

  Rng rng(0xBAD);
  for (int round = 0; round < 10; ++round) {
    int client = ConnectUnix(options.unix_path);
    std::string garbage(1 + rng.NextIndex(200), '\0');
    for (char& byte : garbage) {
      byte = static_cast<char>(rng.NextBelow(256));
    }
    garbage += '\n';
    if (round % 2 == 0) {
      ASSERT_EQ(::write(client, garbage.data(), garbage.size()),
                static_cast<ssize_t>(garbage.size()));
      for (int i = 0; i < 10; ++i) server.PollOnce();
    } else {
      // Dribbled garbage: one byte per poll iteration.
      for (char byte : garbage) {
        (void)!::write(client, &byte, 1);
        server.PollOnce();
      }
    }
    ::close(client);
  }
  // Bounded loops by construction prove "no hang"; the daemon still
  // answering proves "no wedge".
  int client = ConnectUnix(options.unix_path);
  const std::string probe = "{\"op\":\"health\"}\n";
  ASSERT_EQ(::write(client, probe.data(), probe.size()),
            static_cast<ssize_t>(probe.size()));
  std::string received = PumpUntil(server, client, 1);
  auto response = ParseWire(received.substr(0, received.find('\n')));
  ASSERT_TRUE(response.ok()) << "received: " << received;
  EXPECT_EQ((*response)["ok"], "1");
  EXPECT_EQ((*response)["state"], "serving");
  ::close(client);
}

}  // namespace
}  // namespace dexa::serve
