// serve_annotate: a dexa serve daemon on a unix socket, loaded by a closed
// loop of four tenants on four connections from one client thread. Each
// tenant submits, waits for its result, checks the digest, then submits
// again. Every run annotates 8 modules at a seeded offset. No durable runs
// are mixed in: a batch completes as one unit, so a short run that shares
// one with a durable full-registry run waits out its ~250 fsyncs, and the
// short runs' median then followed the shared disk, not the daemon.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/run_api.h"
#include "serve/server.h"
#include "serve/serve_env.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kTenants = 4;
const size_t kChunkModules = getenv("PB_C") ? atoi(getenv("PB_C")) : 8;
/// A response slower than this means the daemon is stuck.
constexpr int kStallMs = 30'000;

/// The seeded submit schedule: the offset of each run's 8-module chunk.
class Script {
 public:
  Script(uint64_t seed, size_t max_offset)
      : rng_(seed), max_offset_(max_offset) {}

  size_t Next() { return rng_() % (max_offset_ + 1); }

 private:
  std::mt19937_64 rng_;
  size_t max_offset_;
};

std::string SubmitLine(size_t offset, size_t tenant) {
  return "{\"op\":\"submit\",\"kind\":\"annotate\",\"offset\":\"" +
         std::to_string(offset) + "\",\"count\":\"" +
         std::to_string(kChunkModules) + "\",\"tenant\":\"tenant-" +
         std::to_string(tenant) + "\"}";
}

std::string ResultLine(const std::string& id) {
  return "{\"op\":\"result\",\"id\":\"" + id + "\"}";
}

/// The string value of `key` in a flat response line ("" when absent).
std::string WireField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  const size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

/// The digest a correct daemon returns for each 8-module offset, computed by
/// one-shot runs of the same environment before the daemon starts.
using Digests = std::vector<std::string>;

std::string OneShotDigest(dexa::serve::ServeEnv& env,
                          dexa::Result<dexa::serve::PreparedRun> prepared) {
  if (!prepared.ok()) Die("prepare one-shot run", prepared.status());
  auto result = dexa::SubmitRun(prepared->request);
  if (!result.ok()) Die("one-shot run", result.status());
  if (!result->complete()) Die("one-shot run", result->run_status);
  return std::to_string(env.AnnotationsDigest(*prepared->registry));
}

/// Latencies of one closed-loop phase.
struct LoopResult {
  std::vector<double> latency_ms;
  /// When each run in `latency_ms` completed, in ms since the loop started
  /// (socket loop only).
  std::vector<double> done_ms;
  double wall_ms = 0.0;
  uint64_t rejected = 0;
};

/// Checks one `result` response against the expected digest and files its
/// latency.
void FileResult(const std::string& response, size_t offset,
                const Digests& digests, double latency_ms, Report& report,
                LoopResult& loop) {
  const bool ok = WireField(response, "ok") == "1" &&
                  WireField(response, "digest") == digests[offset];
  report.Check(ok, "serve result " + response);
  loop.latency_ms.push_back(latency_ms);
}

int Connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect " + path, dexa::Status::Unavailable(std::strerror(errno)));
  }
  return fd;
}

void WriteLine(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  size_t written = 0;
  while (written < framed.size()) {
    const ssize_t n =
        ::write(fd, framed.data() + written, framed.size() - written);
    if (n <= 0) Die("write", dexa::Status::Unavailable(std::strerror(errno)));
    written += static_cast<size_t>(n);
  }
}

/// Blocks until `fd` yields one complete line (appending to `buffer`).
std::string ReadLine(int fd, std::string& buffer) {
  while (true) {
    const size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return line;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, kStallMs) <= 0) {
      Die("read", dexa::Status::Timeout("no response from the daemon"));
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) Die("read", dexa::Status::Unavailable("daemon closed"));
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

/// The closed loop over the unix socket: each tenant's connection carries
/// submit -> ack -> result -> response, then the next submit, until
/// `seconds` have passed; runs in flight then finish.
LoopResult RunSocketLoop(const std::string& socket_path, Script& script,
                         const Digests& digests, double seconds,
                         Report& report) {
  enum class State { kIdle, kAwaitAck, kAwaitResult };
  struct Tenant {
    int fd = -1;
    std::string buffer;
    State state = State::kIdle;
    size_t offset = 0;
    Clock::time_point submitted;
  };
  std::vector<Tenant> tenants(kTenants);
  for (Tenant& tenant : tenants) tenant.fd = Connect(socket_path);

  LoopResult loop;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_response = start;
  while (true) {
    const bool open = MsBetween(start, Clock::now()) < seconds * 1000.0;
    std::vector<pollfd> waiting;
    for (size_t t = 0; t < kTenants; ++t) {
      Tenant& tenant = tenants[t];
      if (tenant.state == State::kIdle && open) {
        tenant.offset = script.Next();
        tenant.submitted = Clock::now();
        WriteLine(tenant.fd, SubmitLine(tenant.offset, t));
        tenant.state = State::kAwaitAck;
      }
      if (tenant.state != State::kIdle) waiting.push_back({tenant.fd, POLLIN, 0});
    }
    if (waiting.empty()) break;
    if (::poll(waiting.data(), waiting.size(), kStallMs) <= 0) {
      Die("poll", dexa::Status::Timeout("no response from the daemon"));
    }
    for (const pollfd& ready : waiting) {
      if ((ready.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (Tenant& tenant : tenants) {
        if (tenant.fd != ready.fd) continue;
        char chunk[4096];
        const ssize_t n = ::read(tenant.fd, chunk, sizeof(chunk));
        if (n <= 0) Die("read", dexa::Status::Unavailable("daemon closed"));
        tenant.buffer.append(chunk, static_cast<size_t>(n));
        size_t newline;
        while ((newline = tenant.buffer.find('\n')) != std::string::npos) {
          const std::string line = tenant.buffer.substr(0, newline);
          tenant.buffer.erase(0, newline + 1);
          if (tenant.state == State::kAwaitAck) {
            if (WireField(line, "ok") != "1") {
              // Refused (Overloaded) or failed submit: counts as failed.
              ++loop.rejected;
              report.Check(false, "serve submit " + line);
              tenant.state = State::kIdle;
              continue;
            }
            WriteLine(tenant.fd, ResultLine(WireField(line, "id")));
            tenant.state = State::kAwaitResult;
          } else {
            last_response = Clock::now();
            FileResult(line, tenant.offset, digests,
                       MsBetween(tenant.submitted, last_response), report,
                       loop);
            loop.done_ms.push_back(MsBetween(start, last_response));
            tenant.state = State::kIdle;
          }
        }
      }
    }
  }
  loop.wall_ms = MsBetween(start, last_response);

  std::string buffer;
  WriteLine(tenants[0].fd, "{\"op\":\"shutdown\"}");
  const std::string bye = ReadLine(tenants[0].fd, buffer);
  if (WireField(bye, "ok") != "1") {
    Die("shutdown", dexa::Status::Internal(bye));
  }
  for (Tenant& tenant : tenants) ::close(tenant.fd);
  return loop;
}

/// Per-call timings of the HandleLine replay of the closed loop.
struct CallTimings {
  std::vector<double> submit_ms, queue_wait_ms, batch_ms, batch_runs,
      result_ms;
};

/// The same closed loop driven on the bench thread through
/// Server::HandleLine and RunManager::ExecuteBatch, without sockets: each
/// round every tenant submits, one batch runs them all, and every tenant
/// fetches its result. With `timings`, each call is timed.
LoopResult RunHandleLineLoop(dexa::serve::ServeEnv& env, Script& script,
                             const Digests& digests, double seconds,
                             Report& report, CallTimings* timings) {
  dexa::serve::Server server(env, dexa::serve::ServerOptions{});
  struct Tenant {
    std::string id;
    size_t offset = 0;
    Clock::time_point submitted;
    Clock::time_point acked;
  };
  std::vector<Tenant> tenants(kTenants);
  LoopResult loop;
  const Clock::time_point start = Clock::now();
  while (MsBetween(start, Clock::now()) < seconds * 1000.0) {
    for (size_t t = 0; t < kTenants; ++t) {
      Tenant& tenant = tenants[t];
      tenant.offset = script.Next();
      tenant.submitted = Clock::now();
      const std::string ack = server.HandleLine(SubmitLine(tenant.offset, t));
      tenant.acked = Clock::now();
      if (timings != nullptr) {
        timings->submit_ms.push_back(MsBetween(tenant.submitted, tenant.acked));
      }
      tenant.id = WireField(ack, "id");
      if (WireField(ack, "ok") != "1") {
        ++loop.rejected;
        report.Check(false, "serve submit " + ack);
        tenant.id.clear();
      }
    }
    const Clock::time_point batch_start = Clock::now();
    const std::vector<uint64_t> batch = server.manager().ExecuteBatch();
    const double batch_ms = MsBetween(batch_start, Clock::now());
    if (timings != nullptr) {
      for (const Tenant& tenant : tenants) {
        if (tenant.id.empty()) continue;
        timings->queue_wait_ms.push_back(MsBetween(tenant.acked, batch_start));
      }
      timings->batch_ms.push_back(batch_ms);
      timings->batch_runs.push_back(static_cast<double>(batch.size()));
    }
    for (const Tenant& tenant : tenants) {
      if (tenant.id.empty()) continue;
      const Clock::time_point asked = Clock::now();
      const std::string response = server.HandleLine(ResultLine(tenant.id));
      const Clock::time_point answered = Clock::now();
      if (timings != nullptr) {
        timings->result_ms.push_back(MsBetween(asked, answered));
      }
      FileResult(response, tenant.offset, digests,
                 MsBetween(tenant.submitted, answered), report, loop);
    }
  }
  loop.wall_ms = MsBetween(start, Clock::now());
  return loop;
}

}  // namespace

void RunServe(const Options& options, Report& report) {
  const std::string socket_path = options.work_dir + "/serve.sock";
  report.Note(
      "flush policy: none (no durable runs); closed loop of 4 tenants on 4 "
      "unix-socket connections from one client thread, every run an "
      "8-module annotate");

  // -- Set-up: ServeEnv::Create plus listen, timed, repeated ---------------
  std::unique_ptr<dexa::serve::ServeEnv> env;
  std::unique_ptr<dexa::serve::Server> server;
  std::vector<double> setup_s, env_create_ms;
  while (MoreSetup(setup_s)) {
    server.reset();
    env.reset();
    dexa::serve::ServeEnvOptions env_options;
    env_options.threads = HostThreads();
    const Clock::time_point start = Clock::now();
    auto created = dexa::serve::ServeEnv::Create(env_options);
    env_create_ms.push_back(MsBetween(start, Clock::now()));
    if (!created.ok()) Die("ServeEnv::Create", created.status());
    env = std::move(created).value();
    dexa::serve::ServerOptions server_options;
    server_options.unix_path = socket_path;
    server = std::make_unique<dexa::serve::Server>(*env, server_options);
    dexa::Status listening = server->Listen();
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    if (!listening.ok()) Die("Listen", listening);
  }

  // -- References, untimed -------------------------------------------------
  const size_t max_offset = env->available_modules() - kChunkModules;
  Digests digests;
  for (size_t offset = 0; offset <= max_offset; ++offset) {
    digests.push_back(OneShotDigest(
        *env, env->PrepareAnnotate(offset, kChunkModules, /*traced=*/false)));
  }

  // -- Measurement: the closed loop over the socket ------------------------
  // A traced run splits its time between the socket loop and the plain and
  // timed HandleLine loops.
  const double phase_seconds =
      options.trace ? options.seconds / 3.0 : options.seconds;
  Script script(options.seed, max_offset);
  ResetPeakRss();
  std::thread daemon([&server] { server->Run(); });
  const LoopResult socket =
      RunSocketLoop(socket_path, script, digests, phase_seconds, report);
  daemon.join();
  const double peak_mb = PeakRssMb();
  server.reset();

  const size_t runs = socket.latency_ms.size();
  if (runs == 0) Die("socket loop", dexa::Status::Internal("no run completed"));
  // Runs and wall time of the quietest stretch of the loop.
  const Stretch setup = *QuietestStretch(setup_s);
  const Stretch quiet = *QuietestStretch(socket.latency_ms);
  const size_t quiet_runs = quiet.end - quiet.begin;
  const double quiet_wall_s =
      (socket.done_ms[quiet.end - 1] -
       (quiet.begin == 0 ? 0.0 : socket.done_ms[quiet.begin - 1])) /
      1000.0;
  report.Note("timing " + DescribeStretch("setup_s", "s", setup_s, setup));
  report.Note("timing " + DescribeStretch("latency_p50_ms", "ms",
                                          socket.latency_ms, quiet));
  {
    std::string dbg = "DBG";
    const size_t n = socket.latency_ms.size();
    for (size_t s = 0; s < 30; ++s) {
      dbg += " " + std::to_string(*Median(std::vector<double>(
                       socket.latency_ms.begin() + s * n / 30,
                       socket.latency_ms.begin() + (s + 1) * n / 30)))
                       .substr(0, 5);
    }
    report.Note(dbg);
  }
  report.Timing("latency_p99_ms", "ms", socket.latency_ms, 0.99);
  report.Note("whole loop: " + std::to_string(runs) + " runs in " +
              std::to_string(socket.wall_ms / 1000.0) + " s");
  report.Metric("setup_s", setup.median, "s", setup.end - setup.begin);
  report.Metric("modules_per_s", quiet_runs * kChunkModules / quiet_wall_s,
                "1/s", quiet_runs);
  report.Metric("latency_p50_ms", quiet.median, "ms", quiet_runs);
  report.Metric("runs_per_s", quiet_runs / quiet_wall_s, "1/s", quiet_runs);
  report.Metric("peak_rss_mb", peak_mb, "MB", 1);
  if (!options.trace) return;

  // -- Per-layer metrics (traced run) --------------------------------------
  const LoopResult plain = RunHandleLineLoop(*env, script, digests,
                                             phase_seconds, report, nullptr);
  CallTimings timings;
  const dexa::EngineMetricsSnapshot before = env->engine().metrics().Snapshot();
  const LoopResult timed = RunHandleLineLoop(*env, script, digests,
                                             phase_seconds, report, &timings);
  const dexa::EngineMetricsSnapshot after = env->engine().metrics().Snapshot();

  const double plain_p50 = Median(plain.latency_ms).value_or(0.0);
  const double timed_p50 = Median(timed.latency_ms).value_or(0.0);
  report.Timing("handleline_latency_ms", "ms", plain.latency_ms);
  report.Timing("timed_handleline_latency_ms", "ms", timed.latency_ms);
  report.Metric("trace.overhead_frac", (timed_p50 - plain_p50) / plain_p50,
                "ratio");
  report.Metric("serve.env_create_ms", *Median(env_create_ms), "ms");
  report.Metric("serve.submit_ms", Median(timings.submit_ms).value_or(0.0),
                "ms");
  report.Metric("serve.queue_wait_ms",
                Median(timings.queue_wait_ms).value_or(0.0), "ms");
  report.Metric("serve.batch_ms", Median(timings.batch_ms).value_or(0.0),
                "ms");
  report.Metric("serve.batch_runs", Median(timings.batch_runs).value_or(0.0),
                "count");
  report.Metric("serve.result_ms", Median(timings.result_ms).value_or(0.0),
                "ms");
  report.Metric("serve.rejected",
                socket.rejected + plain.rejected + timed.rejected, "count");
  report.Metric("serve.wire_ms",
                *Median(socket.latency_ms) - plain_p50, "ms");

  // The shared engine's counters over the timed loop.
  const auto generate = static_cast<size_t>(dexa::EnginePhase::kGenerate);
  report.Metric("engine.batches", after.batches - before.batches, "count");
  report.Metric(
      "engine.generate_busy_ms",
      (after.phase_nanos[generate] - before.phase_nanos[generate]) / 1e6,
      "ms");
  const uint64_t queries = after.cache_queries - before.cache_queries;
  const uint64_t hits = after.cache_hits - before.cache_hits;
  report.Metric("engine.cache_queries", queries, "count");
  report.Metric("engine.cache_hit_ratio",
                queries == 0 ? 0.0 : static_cast<double>(hits) / queries,
                "ratio");
  report.Note("engine.cache_hit_ratio base: " + std::to_string(hits) +
              " hits of " + std::to_string(queries) + " queries");
}

}  // namespace perfbench
