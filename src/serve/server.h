#ifndef DEXA_SERVE_SERVER_H_
#define DEXA_SERVE_SERVER_H_

#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "serve/run_manager.h"
#include "serve/serve_env.h"
#include "serve/wire.h"

namespace dexa::serve {

/// Where the daemon listens.
struct ServerOptions {
  /// TCP port on 127.0.0.1; -1 disables the TCP listener.
  int port = -1;

  /// Unix-domain socket path; "" disables the unix listener.
  std::string unix_path;

  /// Poll timeout while idle, in milliseconds. The loop polls with timeout
  /// 0 while runs are queued (I/O is checked between batches, never starved
  /// by them).
  int idle_timeout_ms = 200;

  /// Cap on one request line (and on the pending unterminated bytes of a
  /// connection). A client that streams more than this without a newline —
  /// or sends a longer line — gets a typed ResourceExhausted response and
  /// the connection is closed: the read buffer never grows unboundedly.
  size_t max_line_bytes = 64 * 1024;

  RunManagerOptions manager;
};

/// The dexa serve daemon: one poll()-driven thread multiplexing client
/// connections over the shared ServeEnv and its RunManager.
///
/// Protocol: newline-delimited flat JSON objects (serve/wire.h), one
/// request line in, one response line out, on a TCP (127.0.0.1) or
/// unix-domain stream socket. Operations:
///
///   {"op":"submit","kind":"annotate","offset":O,"count":N,
///    "tenant":T,"traced":"1"}             -> {"id":I,"ok":"1",...}
///   {"op":"submit","kind":"annotate_durable"[,"crash":"before|after|torn",
///    "crash_key":K]}                      durable full-registry annotation
///   {"op":"submit","kind":"shard","shards":N[,"crash":...,"crash_key":K]}
///                                         the same, over N shards (1..4096)
///   {"op":"submit","kind":"enact","workflow":W}
///   {"op":"submit","kind":"enact_durable","workflow":W}
///   {"op":"status","id":I}                run state + label + outcome
///   {"op":"result","id":I}                digests + counts of a done run
///   {"op":"cancel","id":I}                cancel a queued run
///   {"op":"metrics"}                      run-table counters
///   {"op":"health"}                       run-table / disk / breaker probe
///   {"op":"drain"}                        execute everything queued now
///   {"op":"shutdown"}                     drain, then stop the daemon
///
/// annotate_durable and enact_durable submits additionally accept an
/// injected I/O fault profile ("io_enospc_after":BYTES, "io_eio_write":K,
/// "io_eio_read":K, "io_fsync_fail":K, "io_rename_fail":K, "io_seed":S,
/// "io_short":"0|1") and every submit a virtual-clock "deadline_ns":N — the
/// chaos harness drives both. ParseRunSpec (serve_env.h) reads the run
/// fields of a submit; ServeEnv::Prepare builds the run.
///
/// Errors come back as {"ok":"0","code":<StatusCodeName>,"error":...}; an
/// admission rejection carries code "Overloaded" — the typed backpressure
/// clients react to by retrying after a drain. Quota breaches are also
/// "Overloaded"; oversized request lines are "ResourceExhausted" followed
/// by connection close.
///
/// Threading: deliberately single-threaded. Concurrency lives in the
/// RunManager's batches (fanned over the shared engine's pool), not in
/// per-connection threads — so the daemon inherits the engine's
/// determinism and needs no locking anywhere in the serving path.
class Server {
 public:
  Server(ServeEnv& env, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the configured listeners. Call once before Run()/PollOnce().
  [[nodiscard]] Status Listen();

  /// Resumes every unfinished durable run found under the journal root
  /// (crash recovery at startup); returns how many were re-admitted, under
  /// tenant "recovery".
  [[nodiscard]] Result<size_t> ResumeInFlightRuns();

  /// One iteration of the serving loop: poll the listeners + connections,
  /// handle readable lines, flush pending writes, then execute one batch of
  /// queued runs. Returns the number of protocol lines handled.
  size_t PollOnce();

  /// Serves until RequestShutdown() (or a client "shutdown"), then drains
  /// the queue and closes every connection.
  void Run();

  /// Handles one protocol line and returns the response line (no trailing
  /// newline). Exposed as the seam the tests and --stdio mode drive — the
  /// socket loop is a transport around exactly this function.
  std::string HandleLine(const std::string& line);

  /// Reads requests from stdin and writes responses to stdout until EOF or
  /// a "shutdown" request — `dexa serve --stdio`. Drains before returning.
  void RunStdio();

  void RequestShutdown() { shutdown_requested_ = true; }
  bool shutdown_requested() const { return shutdown_requested_; }

  RunManager& manager() { return manager_; }

 private:
  struct Connection {
    int fd = -1;
    std::string in;   ///< Bytes received, not yet terminated by '\n'.
    std::string out;  ///< Response bytes not yet written.
    bool closing = false;
  };

  WireMessage Handle(const WireMessage& request);
  WireMessage HandleSubmit(const WireMessage& request);
  WireMessage HandleStatus(const WireMessage& request);
  WireMessage HandleResult(const WireMessage& request);
  WireMessage HandleMetrics();
  WireMessage HandleHealth();

  void AcceptPending(int listener);
  /// Reads from one connection, handling every complete line. Returns the
  /// number of lines handled.
  size_t ReadConnection(Connection& connection);
  void FlushConnection(Connection& connection);
  void CloseAll();

  ServeEnv& env_;
  ServerOptions options_;
  RunManager manager_;

  int tcp_fd_ = -1;
  int unix_fd_ = -1;
  std::map<int, Connection> connections_;
  bool shutdown_requested_ = false;
};

}  // namespace dexa::serve

#endif  // DEXA_SERVE_SERVER_H_
