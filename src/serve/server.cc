#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <vector>

namespace dexa::serve {

namespace {

/// Cap on buffered response bytes per connection. A client that stops
/// reading is shed (connection closed, buffer dropped) once its pending
/// output exceeds this — slow readers cannot balloon daemon memory.
constexpr size_t kMaxPendingOutBytes = 1 << 20;

WireMessage ErrorResponse(const Status& status) {
  WireMessage response;
  response["ok"] = "0";
  response["code"] = StatusCodeName(status.code());
  response["error"] = status.message();
  return response;
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Unavailable("fcntl(O_NONBLOCK): " +
                               std::string(std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

Server::Server(ServeEnv& env, ServerOptions options)
    : env_(env), options_(std::move(options)),
      manager_(env.engine(), options_.manager) {}

Server::~Server() {
  CloseAll();
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    ::unlink(options_.unix_path.c_str());
  }
}

Status Server::Listen() {
  if (options_.port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) {
      return Status::Unavailable("socket: " +
                                 std::string(std::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return Status::Unavailable("bind 127.0.0.1:" +
                                 std::to_string(options_.port) + ": " +
                                 std::string(std::strerror(errno)));
    }
    if (::listen(tcp_fd_, 64) < 0) {
      return Status::Unavailable("listen: " +
                                 std::string(std::strerror(errno)));
    }
    DEXA_RETURN_IF_ERROR(SetNonBlocking(tcp_fd_));
  }
  if (!options_.unix_path.empty()) {
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) {
      return Status::Unavailable("socket(AF_UNIX): " +
                                 std::string(std::strerror(errno)));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return Status::Unavailable("bind " + options_.unix_path + ": " +
                                 std::string(std::strerror(errno)));
    }
    if (::listen(unix_fd_, 64) < 0) {
      return Status::Unavailable("listen: " +
                                 std::string(std::strerror(errno)));
    }
    DEXA_RETURN_IF_ERROR(SetNonBlocking(unix_fd_));
  }
  if (tcp_fd_ < 0 && unix_fd_ < 0) {
    return Status::InvalidArgument(
        "no listener configured (need --port or --unix)");
  }
  return Status::OK();
}

Result<size_t> Server::ResumeInFlightRuns() {
  size_t resumed = 0;
  DEXA_ASSIGN_OR_RETURN(const std::vector<std::string> dirs,
                        env_.UnfinishedJournalDirs());
  for (const std::string& dir : dirs) {
    auto run = env_.PrepareResume(dir);
    if (!run.ok()) return run.status();
    auto id = manager_.Submit("recovery", std::move(*run));
    if (!id.ok()) return id.status();
    ++resumed;
  }
  return resumed;
}

WireMessage Server::HandleSubmit(const WireMessage& request) {
  auto spec = ParseRunSpec(request);
  if (!spec.ok()) return ErrorResponse(spec.status());
  auto run = env_.Prepare(*spec);
  if (!run.ok()) return ErrorResponse(run.status());

  const std::string journal_dir = run->journal_dir;
  auto id = manager_.Submit(WireGet(request, "tenant", "default"),
                            std::move(*run));
  if (!id.ok()) return ErrorResponse(id.status());

  WireMessage response;
  response["ok"] = "1";
  response["id"] = std::to_string(*id);
  response["state"] = RunStateName(RunState::kQueued);
  if (!journal_dir.empty()) response["journal"] = journal_dir;
  return response;
}

WireMessage Server::HandleStatus(const WireMessage& request) {
  auto id = WireUint(request, "id");
  if (!id.ok()) return ErrorResponse(id.status());
  auto view = manager_.StatusOf(*id);
  if (!view.ok()) return ErrorResponse(view.status());
  WireMessage response;
  response["ok"] = "1";
  response["id"] = std::to_string(view->id);
  response["tenant"] = view->tenant;
  response["state"] = RunStateName(view->state);
  response["kind"] = WireKindName(view->kind, view->durable);
  response["label"] = view->label;
  if (!view->outcome.empty()) response["outcome"] = view->outcome;
  return response;
}

WireMessage Server::HandleResult(const WireMessage& request) {
  auto id = WireUint(request, "id");
  if (!id.ok()) return ErrorResponse(id.status());
  auto result = manager_.ResultOf(*id);
  if (!result.ok()) return ErrorResponse(result.status());
  auto run = manager_.RunOf(*id);
  if (!run.ok()) return ErrorResponse(run.status());

  WireMessage response;
  response["ok"] = "1";
  response["id"] = std::to_string(*id);
  response["kind"] =
      WireKindName((*result)->kind, !(*run)->journal_dir.empty());
  switch ((*result)->kind) {
    case RunKind::kAnnotate: {
      const AnnotateReport& report = (*result)->annotate;
      response["annotated"] = std::to_string(report.annotated);
      response["decayed"] = std::to_string(report.decayed);
      response["examples"] = std::to_string(report.examples);
      response["replayed"] = std::to_string(report.replayed);
      if ((*run)->registry != nullptr) {
        response["digest"] =
            std::to_string(env_.AnnotationsDigest(*(*run)->registry));
      }
      break;
    }
    case RunKind::kEnact: {
      const EnactmentResult& enact = (*result)->enact;
      response["outputs"] = std::to_string(enact.outputs.size());
      response["missing"] = std::to_string(enact.missing_outputs);
      response["invocations"] = std::to_string(enact.invocations.size());
      response["decayed"] = std::to_string(enact.decayed_modules.size());
      response["digest"] = std::to_string(ServeEnv::EnactDigest(enact));
      break;
    }
  }
  return response;
}

WireMessage Server::HandleMetrics() {
  const RunManagerCounters& counters = manager_.counters();
  WireMessage response;
  response["ok"] = "1";
  response["submitted"] = std::to_string(counters.submitted);
  response["completed"] = std::to_string(counters.completed);
  response["failed"] = std::to_string(counters.failed);
  response["cancelled"] = std::to_string(counters.cancelled);
  response["rejected_overloaded"] =
      std::to_string(counters.rejected_overloaded);
  response["rejected_quota"] = std::to_string(counters.rejected_quota);
  response["deadline_expired"] = std::to_string(counters.deadline_expired);
  response["failed_io"] = std::to_string(counters.failed_io);
  response["done_marker_failed"] = std::to_string(counters.done_marker_failed);
  response["queued"] = std::to_string(counters.queued);
  response["retained"] = std::to_string(counters.retained);
  response["capacity"] = std::to_string(options_.manager.capacity);
  return response;
}

WireMessage Server::HandleHealth() {
  const RunManagerCounters& counters = manager_.counters();
  const EngineMetricsSnapshot engine = env_.engine().metrics().Snapshot();
  WireMessage response;
  response["ok"] = "1";
  response["state"] = shutdown_requested_ ? "draining" : "serving";
  // Run table.
  response["queued"] = std::to_string(counters.queued);
  response["capacity"] = std::to_string(options_.manager.capacity);
  response["retained"] = std::to_string(counters.retained);
  response["tenants"] = std::to_string(manager_.tenants());
  response["connections"] = std::to_string(connections_.size());
  // Disk: degraded once any run has failed on a disk-fault class status or
  // a DONE marker could not be written — the signal an operator watches
  // before the journal volume actually fills.
  const bool disk_degraded =
      counters.failed_io > 0 || counters.done_marker_failed > 0;
  response["disk"] = disk_degraded ? "degraded" : "ok";
  response["failed_io"] = std::to_string(counters.failed_io);
  response["done_marker_failed"] = std::to_string(counters.done_marker_failed);
  if (!env_.journal_root().empty()) {
    response["journal_root"] = env_.journal_root();
  }
  // Admission pressure.
  response["rejected_overloaded"] =
      std::to_string(counters.rejected_overloaded);
  response["rejected_quota"] = std::to_string(counters.rejected_quota);
  response["deadline_expired"] = std::to_string(counters.deadline_expired);
  // Breaker state of the shared engine.
  response["breaker_trips"] = std::to_string(engine.breaker_trips);
  response["breaker_short_circuits"] =
      std::to_string(engine.breaker_short_circuits);
  response["virtual_now_ns"] = std::to_string(env_.engine().clock().Now());
  return response;
}

WireMessage Server::Handle(const WireMessage& request) {
  const std::string op = WireGet(request, "op");
  if (op == "submit") return HandleSubmit(request);
  if (op == "status") return HandleStatus(request);
  if (op == "result") return HandleResult(request);
  if (op == "metrics") return HandleMetrics();
  if (op == "health") return HandleHealth();
  if (op == "cancel") {
    auto id = WireUint(request, "id");
    if (!id.ok()) return ErrorResponse(id.status());
    Status cancelled = manager_.Cancel(*id);
    if (!cancelled.ok()) return ErrorResponse(cancelled);
    WireMessage response;
    response["ok"] = "1";
    response["id"] = std::to_string(*id);
    response["state"] = RunStateName(RunState::kCancelled);
    return response;
  }
  if (op == "drain") {
    size_t executed = manager_.Drain();
    WireMessage response;
    response["ok"] = "1";
    response["executed"] = std::to_string(executed);
    return response;
  }
  if (op == "shutdown") {
    // Graceful drain: everything admitted before the shutdown request still
    // runs to completion; only new work is refused (the loop exits).
    size_t executed = manager_.Drain();
    RequestShutdown();
    WireMessage response;
    response["ok"] = "1";
    response["executed"] = std::to_string(executed);
    response["state"] = "shutdown";
    return response;
  }
  return ErrorResponse(Status::InvalidArgument("unknown op '" + op + "'"));
}

std::string Server::HandleLine(const std::string& line) {
  auto request = ParseWire(line);
  if (!request.ok()) return EncodeWire(ErrorResponse(request.status()));
  return EncodeWire(Handle(*request));
}

void Server::AcceptPending(int listener) {
  while (true) {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    Connection connection;
    connection.fd = fd;
    connections_.emplace(fd, std::move(connection));
  }
}

size_t Server::ReadConnection(Connection& connection) {
  size_t handled = 0;
  char buffer[4096];
  // Bounded read: never pull more than one max-size line past what is
  // already pending, so a firehosing client cannot balloon the buffer
  // before the oversized check below sheds it.
  while (connection.in.size() <= options_.max_line_bytes) {
    ssize_t n = ::read(connection.fd, buffer, sizeof(buffer));
    if (n > 0) {
      connection.in.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) connection.closing = true;
    break;
  }
  size_t start = 0;
  while (true) {
    size_t newline = connection.in.find('\n', start);
    if (newline == std::string::npos) break;
    std::string line = connection.in.substr(start, newline - start);
    start = newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.size() > options_.max_line_bytes) {
      connection.out += EncodeWire(ErrorResponse(Status::ResourceExhausted(
          "request line of " + std::to_string(line.size()) +
          " bytes exceeds the " + std::to_string(options_.max_line_bytes) +
          "-byte limit; closing connection")));
      connection.out += '\n';
      connection.closing = true;
      connection.in.clear();
      return handled;
    }
    connection.out += HandleLine(line);
    connection.out += '\n';
    ++handled;
  }
  connection.in.erase(0, start);
  if (connection.in.size() > options_.max_line_bytes) {
    // An unterminated line already over the cap can never become valid:
    // reject typed and shed the connection instead of buffering forever.
    connection.out += EncodeWire(ErrorResponse(Status::ResourceExhausted(
        std::to_string(connection.in.size()) +
        " bytes pending without a newline exceeds the " +
        std::to_string(options_.max_line_bytes) +
        "-byte line limit; closing connection")));
    connection.out += '\n';
    connection.closing = true;
    connection.in.clear();
  }
  return handled;
}

void Server::FlushConnection(Connection& connection) {
  while (!connection.out.empty()) {
    // MSG_NOSIGNAL: a client that hung up yields EPIPE here instead of a
    // SIGPIPE that would kill the daemon.
    ssize_t n = ::send(connection.fd, connection.out.data(),
                       connection.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      connection.out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      // The peer is gone: nothing pending can be delivered, so shed the
      // connection in this poll.
      connection.out.clear();
      connection.closing = true;
    }
    break;
  }
}

size_t Server::PollOnce() {
  std::vector<pollfd> fds;
  if (tcp_fd_ >= 0) fds.push_back({tcp_fd_, POLLIN, 0});
  if (unix_fd_ >= 0) fds.push_back({unix_fd_, POLLIN, 0});
  for (const auto& [fd, connection] : connections_) {
    short events = POLLIN;
    if (!connection.out.empty()) events |= POLLOUT;
    fds.push_back({fd, events, 0});
  }
  // Never block while work is queued or responses are pending: I/O is
  // checked between run batches, not instead of them.
  int timeout = options_.idle_timeout_ms;
  if (manager_.queued() > 0) timeout = 0;
  for (const auto& [fd, connection] : connections_) {
    if (!connection.out.empty()) timeout = 0;
  }
  ::poll(fds.data(), fds.size(), timeout);

  size_t handled = 0;
  for (const pollfd& p : fds) {
    if (p.fd == tcp_fd_ || p.fd == unix_fd_) {
      if ((p.revents & POLLIN) != 0) AcceptPending(p.fd);
      continue;
    }
    auto it = connections_.find(p.fd);
    if (it == connections_.end()) continue;
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      handled += ReadConnection(it->second);
    }
    FlushConnection(it->second);
  }
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second.out.size() > kMaxPendingOutBytes) {
      // The client stopped reading; drop the buffered responses and shed
      // the connection rather than let one slow reader grow daemon memory.
      it->second.out.clear();
      it->second.closing = true;
    }
    if (it->second.closing && it->second.out.empty()) {
      ::close(it->second.fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
  manager_.ExecuteBatch();
  return handled;
}

void Server::Run() {
  while (!shutdown_requested_) {
    PollOnce();
  }
  manager_.Drain();
  // Flush any responses still buffered (the shutdown reply among them).
  for (auto& [fd, connection] : connections_) {
    FlushConnection(connection);
  }
  CloseAll();
}

void Server::RunStdio() {
  std::string line;
  while (!shutdown_requested_ && std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.size() > options_.max_line_bytes) {
      // Same bound the socket connections enforce; stdio just answers the
      // typed error without anything to close.
      std::cout << EncodeWire(ErrorResponse(Status::ResourceExhausted(
                       "request line of " + std::to_string(line.size()) +
                       " bytes exceeds the " +
                       std::to_string(options_.max_line_bytes) +
                       "-byte limit")))
                << "\n"
                << std::flush;
      continue;
    }
    std::cout << HandleLine(line) << "\n" << std::flush;
  }
  manager_.Drain();
}

void Server::CloseAll() {
  for (auto& [fd, connection] : connections_) {
    ::close(connection.fd);
  }
  connections_.clear();
}

}  // namespace dexa::serve
