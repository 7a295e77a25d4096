// Serve-layer suite: wire codec round-trips, multi-tenant fair scheduling,
// admission control (typed kOverloaded backpressure), the per-tenant
// concurrency cap and the default run deadline, concurrent runs
// byte-identical to the one-shot facade path, graceful drain, the line
// protocol (in-process and over a unix socket), and crash-resume of
// durable runs across a daemon restart.

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "core/run_api.h"
#include "serve/run_manager.h"
#include "serve/serve_env.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "tests/test_util.h"

namespace dexa::serve {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / "dexa_serve" / name;
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

/// One environment shared by the suites that don't restart the daemon
/// (building the corpus + workflow corpus is the expensive part).
ServeEnv& SharedEnv() {
  static ServeEnv* env =
      MakeEnv(FreshDir("shared_journal"), /*threads=*/4).release();
  return *env;
}

// -- Wire codec -------------------------------------------------------------

TEST(WireTest, EncodeIsSortedAndDeterministic) {
  WireMessage message;
  message["op"] = "submit";
  message["kind"] = "annotate";
  message["count"] = "8";
  EXPECT_EQ(EncodeWire(message),
            "{\"count\":\"8\",\"kind\":\"annotate\",\"op\":\"submit\"}");
}

TEST(WireTest, RoundTripsEscapesAndScalars) {
  WireMessage message;
  message["text"] = "line\nbreak \"quoted\" back\\slash\ttab";
  message["tiny"] = std::string(1, '\x01');
  auto parsed = ParseWire(EncodeWire(message));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, message);

  // Bare integers and booleans normalize to their string spellings.
  auto bare = ParseWire("{\"n\": 42, \"flag\": true, \"s\":\"x\"}");
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_EQ(bare->at("n"), "42");
  EXPECT_EQ(bare->at("flag"), "true");
  EXPECT_EQ(bare->at("s"), "x");
}

TEST(WireTest, RejectsMalformedLines) {
  for (const char* bad :
       {"", "{", "{\"a\":}", "{\"a\":\"b\"", "{\"a\":[1]}",
        "{\"a\":{\"b\":1}}", "{\"a\":1.5}", "{\"a\":\"b\"} trailing",
        "{\"a\" \"b\"}", "{\"a\":\"\\x\"}", "{\"a\":null}",
        "{\"a\":\"b\x01\"}"}) {
    auto parsed = ParseWire(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
  }
}

TEST(WireTest, WireUintParsesAndRejects) {
  WireMessage message;
  message["id"] = "17";
  message["name"] = "x";
  auto id = WireUint(message, "id");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 17u);
  EXPECT_FALSE(WireUint(message, "name").ok());
  EXPECT_FALSE(WireUint(message, "missing").ok());
  EXPECT_EQ(WireGet(message, "missing", "fallback"), "fallback");

  // 2^64-1 is the largest id; anything above is refused, never wrapped.
  message["max"] = "18446744073709551615";
  auto max = WireUint(message, "max");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(*max, UINT64_MAX);
  for (const char* bad : {"18446744073709551616", "18446744073709551617",
                          "99999999999999999999999", "", "-1", "+1", " 1"}) {
    message["bad"] = bad;
    auto parsed = WireUint(message, "bad");
    ASSERT_FALSE(parsed.ok()) << "accepted '" << bad << "'";
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  }
}

// -- RunManager -------------------------------------------------------------

TEST(RunManagerTest, FairSchedulingInterleavesTenants) {
  ServeEnv& env = SharedEnv();
  RunManagerOptions options;
  options.execute_batch = 8;
  RunManager manager(env.engine(), options);

  // Tenant a bursts four runs; b and c submit one each afterwards. Fair
  // scheduling still runs b's and c's first runs right after a's first.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    auto run = env.PrepareAnnotate(static_cast<size_t>(i) * 2, 2, false);
    ASSERT_TRUE(run.ok()) << run.status();
    auto id = manager.Submit("a", std::move(*run));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  for (const char* tenant : {"b", "c"}) {
    auto run = env.PrepareAnnotate(8, 2, false);
    ASSERT_TRUE(run.ok()) << run.status();
    auto id = manager.Submit(tenant, std::move(*run));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  EXPECT_EQ(manager.Drain(), 6u);

  // Fairness keys: a gets (0..3, seq), b (0, seq), c (0, seq) — so the
  // schedule is a's first, b's, c's, then the rest of a's burst.
  const std::vector<uint64_t> expected = {ids[0], ids[4], ids[5],
                                          ids[1], ids[2], ids[3]};
  EXPECT_EQ(manager.started_order(), expected);
  EXPECT_EQ(manager.counters().completed, 6u);
}

TEST(RunManagerTest, SubmitShedsLoadWithTypedOverloaded) {
  ServeEnv& env = SharedEnv();
  RunManagerOptions options;
  options.capacity = 3;
  RunManager manager(env.engine(), options);

  for (int i = 0; i < 3; ++i) {
    auto run = env.PrepareAnnotate(0, 1, false);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(manager.Submit("t", std::move(*run)).ok());
  }
  auto rejected_run = env.PrepareAnnotate(0, 1, false);
  ASSERT_TRUE(rejected_run.ok()) << rejected_run.status();
  auto rejected = manager.Submit("t", std::move(*rejected_run));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  EXPECT_TRUE(rejected.status().IsOverloaded());
  EXPECT_EQ(manager.counters().rejected_overloaded, 1u);

  // Backpressure clears once the queue drains: same submit now admits.
  EXPECT_EQ(manager.Drain(), 3u);
  auto retry_run = env.PrepareAnnotate(0, 1, false);
  ASSERT_TRUE(retry_run.ok()) << retry_run.status();
  EXPECT_TRUE(manager.Submit("t", std::move(*retry_run)).ok());
}

TEST(RunManagerTest, CancelsQueuedRunsOnly) {
  ServeEnv& env = SharedEnv();
  RunManager manager(env.engine(), {});
  auto first = env.PrepareAnnotate(0, 1, false);
  auto second = env.PrepareAnnotate(1, 1, false);
  ASSERT_TRUE(first.ok() && second.ok());
  auto keep = manager.Submit("t", std::move(*first));
  auto cancel = manager.Submit("t", std::move(*second));
  ASSERT_TRUE(keep.ok() && cancel.ok());

  ASSERT_TRUE(manager.Cancel(*cancel).ok());
  EXPECT_EQ(manager.Drain(), 1u);

  auto cancelled_view = manager.StatusOf(*cancel);
  ASSERT_TRUE(cancelled_view.ok());
  EXPECT_EQ(cancelled_view->state, RunState::kCancelled);
  EXPECT_EQ(manager.ResultOf(*cancel).status().code(), StatusCode::kCancelled);

  auto done_view = manager.StatusOf(*keep);
  ASSERT_TRUE(done_view.ok());
  EXPECT_EQ(done_view->state, RunState::kDone);
  // A finished run cannot be cancelled.
  EXPECT_FALSE(manager.Cancel(*keep).ok());
  EXPECT_FALSE(manager.StatusOf(999).ok());
}

TEST(RunManagerTest, EvictsOldestRetainedResults) {
  ServeEnv& env = SharedEnv();
  RunManagerOptions options;
  options.retain_results = 2;
  RunManager manager(env.engine(), options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    auto run = env.PrepareAnnotate(static_cast<size_t>(i), 1, false);
    ASSERT_TRUE(run.ok());
    auto id = manager.Submit("t", std::move(*run));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_EQ(manager.Drain(), 4u);
  // The two oldest finished runs were evicted; the two newest remain.
  EXPECT_FALSE(manager.StatusOf(ids[0]).ok());
  EXPECT_FALSE(manager.StatusOf(ids[1]).ok());
  EXPECT_TRUE(manager.StatusOf(ids[2]).ok());
  EXPECT_TRUE(manager.StatusOf(ids[3]).ok());
}

TEST(RunManagerTest, TenantConcurrencyCapLeavesSlotsEmptyRatherThanExceedIt) {
  ServeEnv& env = SharedEnv();
  RunManagerOptions options;
  options.execute_batch = 8;
  options.per_tenant_max_concurrent = 2;
  RunManager manager(env.engine(), options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    auto run = env.PrepareAnnotate(static_cast<size_t>(i), 1, false);
    ASSERT_TRUE(run.ok()) << run.status();
    auto id = manager.Submit("a", std::move(*run));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }

  // No other tenant has a run, so six of the batch's eight slots stay
  // empty: the cap holds even when nobody else could use the slots.
  EXPECT_EQ(manager.ExecuteBatch().size(), 2u);
  EXPECT_EQ(manager.started_order(),
            (std::vector<uint64_t>{ids[0], ids[1]}));
  EXPECT_EQ(manager.Drain(), 3u);
  EXPECT_EQ(manager.started_order(), ids);
  EXPECT_EQ(manager.counters().completed, 5u);
}

TEST(RunManagerTest, DefaultDeadlineExpiresARunSubmittedWithoutOne) {
  ServeEnv& env = SharedEnv();
  RunManagerOptions options;
  options.execute_batch = 1;
  options.default_deadline_ns = 1;
  RunManager manager(env.engine(), options);
  auto first = env.PrepareAnnotate(0, 1, false);
  auto second = env.PrepareAnnotate(1, 1, false);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(second->deadline_ns, 0u);
  auto runs = manager.Submit("t", std::move(*first));
  auto expires = manager.Submit("t", std::move(*second));
  ASSERT_TRUE(runs.ok() && expires.ok());

  // The first run executes before the clock moves; the batch charges the
  // clock past the second run's default deadline while it waits.
  EXPECT_EQ(manager.Drain(), 1u);
  EXPECT_EQ(manager.started_order(), (std::vector<uint64_t>{*runs}));
  auto expired = manager.StatusOf(*expires);
  ASSERT_TRUE(expired.ok()) << expired.status();
  EXPECT_EQ(expired->state, RunState::kFailed);
  EXPECT_TRUE(manager.ResultOf(*expires).status().IsTimeout())
      << manager.ResultOf(*expires).status();
  EXPECT_EQ(manager.counters().deadline_expired, 1u);
  EXPECT_EQ(manager.StatusOf(*runs)->state, RunState::kDone);
}

/// The headline acceptance test: >= 32 concurrent annotate runs from four
/// tenants, executed in concurrent batches over the shared engine, each
/// byte-identical to submitting the same request one-shot through the
/// facade with no manager involved.
TEST(RunManagerTest, ThirtyTwoConcurrentRunsMatchOneShotFacade) {
  ServeEnv& env = SharedEnv();
  constexpr size_t kRuns = 32;
  constexpr size_t kChunk = 8;

  RunManagerOptions options;
  options.capacity = kRuns;
  options.execute_batch = 8;
  RunManager manager(env.engine(), options);

  const char* tenants[] = {"alice", "bob", "carol", "dave"};
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kRuns; ++i) {
    auto run = env.PrepareAnnotate(i * kChunk, kChunk, false);
    ASSERT_TRUE(run.ok()) << run.status();
    auto id = manager.Submit(tenants[i % 4], std::move(*run));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  EXPECT_EQ(manager.Drain(), kRuns);
  EXPECT_EQ(manager.counters().completed, kRuns);

  for (size_t i = 0; i < kRuns; ++i) {
    auto managed = manager.RunOf(ids[i]);
    ASSERT_TRUE(managed.ok()) << managed.status();
    auto managed_result = manager.ResultOf(ids[i]);
    ASSERT_TRUE(managed_result.ok()) << managed_result.status();

    // One-shot path: same request, straight through the facade.
    auto oneshot = env.PrepareAnnotate(i * kChunk, kChunk, false);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status();
    auto oneshot_result = SubmitRun(oneshot->request);
    ASSERT_TRUE(oneshot_result.ok()) << oneshot_result.status();
    ASSERT_TRUE(oneshot_result->complete()) << oneshot_result->run_status;

    EXPECT_EQ(env.AnnotationsDigest(*(*managed)->registry),
              env.AnnotationsDigest(*oneshot->registry))
        << "run " << i << " diverged from the one-shot path";
    EXPECT_EQ((*managed_result)->annotate.examples,
              oneshot_result->annotate.examples);
  }
}

/// The schedule and every per-run digest are a pure function of the submit
/// sequence: two daemons with different engine thread counts produce the
/// same started_order and the same annotations.
TEST(RunManagerTest, ScheduleAndResultsIdenticalAcrossThreadCounts) {
  std::vector<std::vector<uint64_t>> orders;
  std::vector<std::vector<uint64_t>> digests;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto env = MakeEnv(FreshDir("threads" + std::to_string(threads)), threads);
    RunManagerOptions options;
    options.execute_batch = 4;
    RunManager manager(env->engine(), options);
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < 8; ++i) {
      auto run = env->PrepareAnnotate(i * 4, 4, false);
      ASSERT_TRUE(run.ok()) << run.status();
      auto id = manager.Submit(i % 2 == 0 ? "even" : "odd", std::move(*run));
      ASSERT_TRUE(id.ok()) << id.status();
      ids.push_back(*id);
    }
    EXPECT_EQ(manager.Drain(), 8u);
    orders.push_back(manager.started_order());
    std::vector<uint64_t> run_digests;
    for (uint64_t id : ids) {
      auto run = manager.RunOf(id);
      ASSERT_TRUE(run.ok()) << run.status();
      run_digests.push_back(env->AnnotationsDigest(*(*run)->registry));
    }
    digests.push_back(std::move(run_digests));
  }
  EXPECT_EQ(orders[0], orders[1]);
  EXPECT_EQ(digests[0], digests[1]);
}

// -- ServeEnv startup -------------------------------------------------------

TEST(ServeEnvTest, CreateFailsOnAJournalRootThatIsAFile) {
  const std::string file = FreshDir("root_is_a_file") + "/runs";
  std::ofstream(file) << "not a directory\n";
  ServeEnvOptions options;
  options.journal_root = file;
  auto env = ServeEnv::Create(options);
  ASSERT_FALSE(env.ok()) << "a regular file was accepted as journal root";
  EXPECT_NE(env.status().message().find(file), std::string::npos)
      << env.status();
}

/// A daemon built from a compiled KB image pins the image seal and
/// annotates to the same bytes as the in-memory daemon.
TEST(ServeEnvTest, KbImageDaemonMatchesTheInMemoryDaemon) {
  const std::string path = FreshDir("kb_image") + "/kb.img";
  const uint64_t seal = testing_env::WriteCorpusKbImage(path);
  ASSERT_NE(seal, 0u);
  ServeEnvOptions options;
  options.kb_image_path = path;
  options.threads = 2;
  auto image_env = ServeEnv::Create(options);
  ASSERT_TRUE(image_env.ok()) << image_env.status();
  EXPECT_EQ((*image_env)->kb_checksum(), seal);
  EXPECT_EQ(SharedEnv().kb_checksum(), 0u);

  auto digest = [](ServeEnv& env) -> uint64_t {
    auto run = env.PrepareAnnotate(0, 8, /*traced=*/false);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) return 0;
    auto result = SubmitRun(run->request);
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) return 0;
    EXPECT_TRUE(result->complete()) << result->run_status;
    return env.AnnotationsDigest(*run->registry);
  };
  EXPECT_EQ(digest(**image_env), digest(SharedEnv()));
}

/// A RUN descriptor that does not parse as a durable run spec is damage:
/// resume refuses it kCorrupted, naming the directory, before it recovers
/// or truncates anything there.
TEST(ServeEnvTest, PrepareResumeRefusesADamagedDescriptor) {
  const std::string root = FreshDir("damaged_descriptor");
  const char* const descriptors[] = {
      "{\"kind\":\"teleport\"}",       // unknown kind
      "{\"kind\":\"annotate\"}",       // a kind that does not journal
      "{\"kind\":\"enact_durable\"}",  // no workflow
      "{\"kind\":\"shard\",\"shards\":\"0\"}",
  };
  for (size_t i = 0; i < std::size(descriptors); ++i) {
    const std::string dir = root + "/run-" + std::to_string(i);
    fs::create_directories(dir);
    std::ofstream(dir + "/RUN") << descriptors[i] << "\n";
    auto run = SharedEnv().PrepareResume(dir);
    ASSERT_FALSE(run.ok()) << descriptors[i];
    EXPECT_TRUE(run.status().IsCorrupted()) << run.status();
    EXPECT_NE(run.status().message().find("RUN descriptor in " + dir),
              std::string::npos)
        << run.status();
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()),
              1)
        << "resume touched " << dir;
  }
}

// -- Server protocol --------------------------------------------------------

WireMessage Response(Server& server, const std::string& line) {
  auto parsed = ParseWire(server.HandleLine(line));
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? *parsed : WireMessage{};
}

TEST(ServerTest, ProtocolSubmitStatusDrainResult) {
  ServeEnv& env = SharedEnv();
  Server server(env, {});

  WireMessage submitted = Response(
      server,
      "{\"op\":\"submit\",\"kind\":\"annotate\",\"offset\":\"0\","
      "\"count\":\"3\",\"tenant\":\"alice\"}");
  ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
  const std::string id = submitted["id"];
  EXPECT_EQ(submitted["state"], "queued");

  WireMessage queued =
      Response(server, "{\"op\":\"status\",\"id\":\"" + id + "\"}");
  EXPECT_EQ(queued["state"], "queued");
  EXPECT_EQ(queued["tenant"], "alice");
  EXPECT_EQ(queued["kind"], "annotate");
  EXPECT_EQ(queued["label"], "annotate[0,3)");

  // Result before execution: typed Unavailable, not a hang or a crash.
  WireMessage early =
      Response(server, "{\"op\":\"result\",\"id\":\"" + id + "\"}");
  EXPECT_EQ(early["ok"], "0");
  EXPECT_EQ(early["code"], "Unavailable");

  WireMessage drained = Response(server, "{\"op\":\"drain\"}");
  EXPECT_EQ(drained["executed"], "1");

  WireMessage done =
      Response(server, "{\"op\":\"status\",\"id\":\"" + id + "\"}");
  EXPECT_EQ(done["state"], "done");

  WireMessage result =
      Response(server, "{\"op\":\"result\",\"id\":\"" + id + "\"}");
  EXPECT_EQ(result["ok"], "1");
  EXPECT_EQ(result["annotated"], "3");
  EXPECT_FALSE(result["digest"].empty());

  WireMessage metrics = Response(server, "{\"op\":\"metrics\"}");
  EXPECT_EQ(metrics["submitted"], "1");
  EXPECT_EQ(metrics["completed"], "1");

  // Malformed line and unknown op come back as typed protocol errors.
  WireMessage bad = Response(server, "not json");
  EXPECT_EQ(bad["ok"], "0");
  EXPECT_EQ(bad["code"], "ParseError");
  WireMessage unknown = Response(server, "{\"op\":\"nope\"}");
  EXPECT_EQ(unknown["ok"], "0");
  EXPECT_EQ(unknown["code"], "InvalidArgument");
}

TEST(ServerTest, OverflowingNumbersAreRefusedOrClamped) {
  ServeEnv& env = SharedEnv();
  Server server(env, {});
  WireMessage first = Response(
      server, "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"1\"}");
  ASSERT_EQ(first["ok"], "1") << first["error"];
  Response(server, "{\"op\":\"drain\"}");

  // 2^64 + 1 would wrap to run 1; it is a typed error instead.
  WireMessage wrapped_id = Response(
      server, "{\"op\":\"result\",\"id\":\"18446744073709551617\"}");
  EXPECT_EQ(wrapped_id["ok"], "0");
  EXPECT_EQ(wrapped_id["code"], "InvalidArgument");
  WireMessage wrapped_count = Response(
      server,
      "{\"op\":\"submit\",\"kind\":\"annotate\","
      "\"count\":\"18446744073709551620\"}");
  EXPECT_EQ(wrapped_count["ok"], "0");
  EXPECT_EQ(wrapped_count["code"], "InvalidArgument");

  // offset + count past 2^64 clamps to the end: modules [5, N).
  WireMessage clamped = Response(
      server,
      "{\"op\":\"submit\",\"kind\":\"annotate\",\"offset\":\"5\","
      "\"count\":\"18446744073709551615\"}");
  ASSERT_EQ(clamped["ok"], "1") << clamped["error"];
  WireMessage to_end = Response(
      server,
      "{\"op\":\"submit\",\"kind\":\"annotate\",\"offset\":\"5\"}");
  ASSERT_EQ(to_end["ok"], "1") << to_end["error"];
  Response(server, "{\"op\":\"drain\"}");
  const size_t n = env.available_modules();
  ASSERT_GT(n, 5u);
  WireMessage status = Response(
      server, "{\"op\":\"status\",\"id\":\"" + clamped["id"] + "\"}");
  EXPECT_EQ(status["label"], "annotate[5," + std::to_string(n) + ")");
  WireMessage result = Response(
      server, "{\"op\":\"result\",\"id\":\"" + clamped["id"] + "\"}");
  ASSERT_EQ(result["ok"], "1") << result["error"];
  EXPECT_EQ(std::stoull(result["annotated"]) + std::stoull(result["decayed"]),
            n - 5);
  WireMessage reference = Response(
      server, "{\"op\":\"result\",\"id\":\"" + to_end["id"] + "\"}");
  EXPECT_EQ(result["digest"], reference["digest"]);
}

TEST(ServerTest, ProtocolEnactRun) {
  ServeEnv& env = SharedEnv();
  ASSERT_GT(env.workflow_count(), 0u);
  Server server(env, {});
  WireMessage submitted = Response(
      server, "{\"op\":\"submit\",\"kind\":\"enact\",\"workflow\":\"0\"}");
  ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
  Response(server, "{\"op\":\"drain\"}");
  WireMessage result = Response(
      server, "{\"op\":\"result\",\"id\":\"" + submitted["id"] + "\"}");
  EXPECT_EQ(result["ok"], "1") << result["error"];
  EXPECT_EQ(result["kind"], "enact");
  EXPECT_FALSE(result["digest"].empty());
}

TEST(ServerTest, ProtocolShedsLoadWithOverloadedCode) {
  ServeEnv& env = SharedEnv();
  ServerOptions options;
  options.manager.capacity = 2;
  Server server(env, options);
  for (int i = 0; i < 2; ++i) {
    WireMessage ok = Response(
        server,
        "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"1\"}");
    ASSERT_EQ(ok["ok"], "1");
  }
  WireMessage shed = Response(
      server, "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"1\"}");
  EXPECT_EQ(shed["ok"], "0");
  EXPECT_EQ(shed["code"], "Overloaded");

  WireMessage metrics = Response(server, "{\"op\":\"metrics\"}");
  EXPECT_EQ(metrics["rejected_overloaded"], "1");

  // Graceful shutdown drains the admitted runs.
  WireMessage shutdown = Response(server, "{\"op\":\"shutdown\"}");
  EXPECT_EQ(shutdown["executed"], "2");
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(ServerTest, ProtocolMetricsReportsEveryRunTableCounter) {
  ServeEnv& env = SharedEnv();
  ServerOptions options;
  options.manager.capacity = 8;
  options.manager.execute_batch = 1;
  options.manager.per_tenant_max_queued = 1;
  Server server(env, options);
  // One admitted run, one quota rejection, and a run whose one-nanosecond
  // deadline passes while the first executes.
  const std::string submit =
      "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"1\","
      "\"tenant\":";
  ASSERT_EQ(Response(server, submit + "\"a\"}")["ok"], "1");
  EXPECT_EQ(Response(server, submit + "\"a\"}")["code"], "Overloaded");
  ASSERT_EQ(Response(server, submit + "\"b\",\"deadline_ns\":\"1\"}")["ok"],
            "1");
  Response(server, "{\"op\":\"drain\"}");

  WireMessage metrics = Response(server, "{\"op\":\"metrics\"}");
  const WireMessage expected = {
      {"ok", "1"},          {"submitted", "2"},
      {"completed", "1"},   {"failed", "1"},
      {"cancelled", "0"},   {"rejected_overloaded", "0"},
      {"rejected_quota", "1"}, {"deadline_expired", "1"},
      {"failed_io", "0"},   {"done_marker_failed", "0"},
      {"queued", "0"},      {"retained", "2"},
      {"capacity", "8"}};
  EXPECT_EQ(metrics, expected);
}

TEST(ServerTest, ServesOverUnixSocket) {
  ServeEnv& env = SharedEnv();
  ServerOptions options;
  options.unix_path = FreshDir("socket") + "/dexa.sock";
  options.idle_timeout_ms = 1;
  Server server(env, options);
  ASSERT_TRUE(server.Listen().ok());

  int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.unix_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request =
      "{\"op\":\"submit\",\"kind\":\"annotate\",\"count\":\"2\"}\n"
      "{\"op\":\"drain\"}\n";
  ASSERT_EQ(::write(client, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  int flags = ::fcntl(client, F_GETFL, 0);
  ::fcntl(client, F_SETFL, flags | O_NONBLOCK);

  // Single-threaded everywhere: pump the server loop until both responses
  // arrive on the client socket.
  std::string received;
  for (int i = 0; i < 100 && std::count(received.begin(), received.end(),
                                        '\n') < 2; ++i) {
    server.PollOnce();
    char buffer[4096];
    ssize_t n = ::read(client, buffer, sizeof(buffer));
    if (n > 0) received.append(buffer, static_cast<size_t>(n));
  }
  ::close(client);
  ASSERT_EQ(std::count(received.begin(), received.end(), '\n'), 2)
      << "received: " << received;
  size_t newline = received.find('\n');
  auto first = ParseWire(received.substr(0, newline));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ((*first)["ok"], "1");
  auto second = ParseWire(
      received.substr(newline + 1, received.size() - newline - 2));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ((*second)["executed"], "1");
}

TEST(ServerTest, ClientThatHangsUpBeforeItsResponseIsShed) {
  ServeEnv& env = SharedEnv();
  ServerOptions options;
  options.unix_path = FreshDir("hangup") + "/dexa.sock";
  options.idle_timeout_ms = 1;
  Server server(env, options);
  ASSERT_TRUE(server.Listen().ok());

  int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.unix_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "{\"op\":\"health\"}\n";
  ASSERT_EQ(::write(client, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::close(client);

  // The first poll accepts, the second reads the request and answers into
  // a closed socket: the daemon survives and sheds the connection.
  server.PollOnce();
  server.PollOnce();
  auto health = ParseWire(server.HandleLine("{\"op\":\"health\"}"));
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ((*health)["connections"], "0");
}

// -- Crash-resume across a daemon restart -----------------------------------

TEST(ServerTest, ResumesInFlightDurableRunsAfterRestart) {
  const std::string journal_root = FreshDir("restart");

  // Baseline: an uninterrupted durable run in a daemon of its own.
  uint64_t baseline_digest = 0;
  {
    auto env = MakeEnv(journal_root + "/baseline", 2);
    Server server(*env, {});
    WireMessage submitted = Response(
        server, "{\"op\":\"submit\",\"kind\":\"annotate_durable\"}");
    ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
    Response(server, "{\"op\":\"drain\"}");
    WireMessage result = Response(
        server, "{\"op\":\"result\",\"id\":\"" + submitted["id"] + "\"}");
    ASSERT_EQ(result["ok"], "1") << result["error"];
    baseline_digest = std::stoull(result["digest"]);
    // The finished run's journal dir carries the DONE marker.
    EXPECT_TRUE(fs::exists(fs::path(submitted["journal"]) / "DONE"));
  }

  // First daemon: durable run crashes mid-way (injected, before-commit).
  std::string crashed_dir;
  {
    auto env = MakeEnv(journal_root + "/live", 2);
    const std::string crash_key = env->corpus().available_ids[7];
    Server server(*env, {});
    WireMessage submitted = Response(
        server, "{\"op\":\"submit\",\"kind\":\"annotate_durable\","
                "\"crash\":\"before\",\"crash_key\":\"" + crash_key + "\"}");
    ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
    crashed_dir = submitted["journal"];
    Response(server, "{\"op\":\"drain\"}");
    WireMessage status = Response(
        server, "{\"op\":\"status\",\"id\":\"" + submitted["id"] + "\"}");
    EXPECT_EQ(status["state"], "failed");
    EXPECT_FALSE(fs::exists(fs::path(crashed_dir) / "DONE"));
  }

  // Second daemon over the same journal root: startup scan finds the
  // unfinished run, resumes it, and completes it to the baseline bytes.
  {
    auto env = MakeEnv(journal_root + "/live", 2);
    EXPECT_EQ(UnfinishedDirs(*env),
              std::vector<std::string>{crashed_dir});
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
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(env->AnnotationsDigest(*(*run)->registry), baseline_digest);

    // The resumed run is now finished: DONE written, nothing left to scan.
    EXPECT_TRUE(fs::exists(fs::path(crashed_dir) / "DONE"));
    EXPECT_TRUE(UnfinishedDirs(*env).empty());
  }
}

/// The wal-*.seg files of a journal directory, name and bytes, in name
/// order.
std::vector<std::pair<std::string, std::string>> Segments(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0) continue;
    auto bytes = IoEnv::Real().ReadFile(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    segments.emplace_back(name, bytes.ok() ? *bytes : "");
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// The serve shard kind merges to the one-shot durable journal, and a
/// crashed shard run resumes from its RUN descriptor after a restart.
TEST(ServerTest, ShardRunMatchesTheDurableRunAndResumesAfterRestart) {
  const std::string root = FreshDir("shard_restart");
  const auto result_of = [](Server& server, const std::string& id) {
    return Response(server, "{\"op\":\"result\",\"id\":\"" + id + "\"}");
  };

  // Daemon 1: a one-shot durable run and a four-shard run.
  std::string baseline_digest;
  {
    auto env = MakeEnv(root, 2);
    Server server(*env, {});
    WireMessage durable = Response(
        server, "{\"op\":\"submit\",\"kind\":\"annotate_durable\"}");
    ASSERT_EQ(durable["ok"], "1") << durable["error"];
    WireMessage sharded = Response(
        server, "{\"op\":\"submit\",\"kind\":\"shard\",\"shards\":\"4\"}");
    ASSERT_EQ(sharded["ok"], "1") << sharded["error"];
    Response(server, "{\"op\":\"drain\"}");
    WireMessage durable_result = result_of(server, durable["id"]);
    WireMessage sharded_result = result_of(server, sharded["id"]);
    ASSERT_EQ(durable_result["ok"], "1") << durable_result["error"];
    ASSERT_EQ(sharded_result["ok"], "1") << sharded_result["error"];
    baseline_digest = durable_result["digest"];
    EXPECT_EQ(sharded_result["digest"], baseline_digest);

    const auto oneshot = Segments(durable["journal"]);
    ASSERT_FALSE(oneshot.empty());
    EXPECT_EQ(Segments(sharded["journal"] + "/merged"), oneshot);
  }

  // Daemon 2: a three-shard run crashes after one module's commit.
  std::string crashed_dir;
  {
    auto env = MakeEnv(root, 2);
    const std::string crash_key = env->corpus().available_ids[37];
    Server server(*env, {});
    WireMessage submitted = Response(
        server, "{\"op\":\"submit\",\"kind\":\"shard\",\"shards\":\"3\","
                "\"crash\":\"after\",\"crash_key\":\"" + crash_key + "\"}");
    ASSERT_EQ(submitted["ok"], "1") << submitted["error"];
    crashed_dir = submitted["journal"];
    Response(server, "{\"op\":\"drain\"}");
    WireMessage status = Response(
        server, "{\"op\":\"status\",\"id\":\"" + submitted["id"] + "\"}");
    EXPECT_EQ(status["state"], "failed");
    EXPECT_FALSE(fs::exists(fs::path(crashed_dir) / "DONE"));
  }

  // Daemon 3 on the same root: the startup scan resumes the shard run from
  // its RUN descriptor, without the crash plan, to the baseline bytes.
  auto env = MakeEnv(root, 2);
  EXPECT_EQ(UnfinishedDirs(*env),
            std::vector<std::string>{crashed_dir});
  Server server(*env, {});
  auto resumed = server.ResumeInFlightRuns();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(*resumed, 1u);
  EXPECT_EQ(server.manager().Drain(), 1u);
  WireMessage result = result_of(server, "1");
  ASSERT_EQ(result["ok"], "1") << result["error"];
  EXPECT_EQ(result["digest"], baseline_digest);
  EXPECT_TRUE(fs::exists(fs::path(crashed_dir) / "DONE"));
}

}  // namespace
}  // namespace dexa::serve
