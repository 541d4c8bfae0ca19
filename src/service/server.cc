#include "service/server.h"

#if defined(__unix__) || defined(__APPLE__)
#define PSO_SERVICE_HAVE_SOCKETS 1
#else
#define PSO_SERVICE_HAVE_SOCKETS 0
#endif

#if PSO_SERVICE_HAVE_SOCKETS
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "service/wire.h"

namespace pso::service {

QueryServer::QueryServer(QueryService* service,
                         const QueryServerOptions& options)
    : service_(service), options_(options), group_(options.pool) {}

QueryServer::~QueryServer() {
#if PSO_SERVICE_HAVE_SOCKETS
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
#endif
}

#if PSO_SERVICE_HAVE_SOCKETS

namespace {

// Writes the whole string, retrying on EINTR. MSG_NOSIGNAL: a client
// that hung up must surface as a send error, not a SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t sent =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(sent);
  }
  return true;
}

}  // namespace

Status QueryServer::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket: %s", ErrnoMessage(errno).c_str()));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("bind: %s", ErrnoMessage(err).c_str()));
  }
  if (::listen(fd, 128) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("listen: %s", ErrnoMessage(err).c_str()));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(
        StrFormat("getsockname: %s", ErrnoMessage(err).c_str()));
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
  listen_fd_.store(fd, std::memory_order_release);
  if (!options_.port_file.empty()) {
    const std::string tmp = options_.port_file + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      return Status::Internal(
          StrFormat("open %s: %s", tmp.c_str(), ErrnoMessage(errno).c_str()));
    }
    // A short write sits in the stdio buffer, so a failed write (full
    // disk, file-size limit) may surface only at fclose.
    const bool wrote = std::fprintf(f, "%d\n", port_) > 0;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
      const int err = errno;
      ::unlink(tmp.c_str());
      return Status::Internal(
          StrFormat("write %s: %s", tmp.c_str(), ErrnoMessage(err).c_str()));
    }
    if (std::rename(tmp.c_str(), options_.port_file.c_str()) != 0) {
      return Status::Internal(StrFormat("rename %s: %s",
                                        options_.port_file.c_str(),
                                        ErrnoMessage(errno).c_str()));
    }
  }
  PSO_LOG(INFO).Field("port", port_) << "query service listening";
  return Status::Ok();
}

void QueryServer::Run() {
  metrics::Counter& conn_counter = metrics::GetCounter("service.connections");
  for (;;) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      PSO_LOG(WARN).Field("errno", errno) << "accept failed";
      break;
    }
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    // Receive timeout so an idle connection cannot pin its handler in
    // read() past shutdown: the handler wakes on EAGAIN, observes
    // stop_, and exits. Keeps RequestShutdown async-signal-safe — no
    // per-connection fd registry to lock from the signal handler.
    timeval tv{};
    tv.tv_usec = 200 * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    connections_.fetch_add(1, std::memory_order_relaxed);
    conn_counter.Add(1);
    group_.Submit([this, fd] { HandleConnection(fd); });
  }
  group_.Wait();
  PSO_LOG(INFO).Field("connections", connections())
      << "query service stopped";
}

void QueryServer::RequestShutdown() {
  // Async-signal-safe: atomic store + shutdown(2), both on the POSIX
  // safe list. The accept loop wakes with an error and observes stop_.
  stop_.store(true, std::memory_order_release);
  const int fd = listen_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void QueryServer::HandleConnection(int fd) {
  PSO_TRACE_SPAN("service.connection");
  const size_t max_batch = service_->options().max_batch;
  const size_t max_line = MaxRequestLineLength(service_->n());
  std::string buffer;
  char chunk[4096];
  bool alive = true;
  bool overlong = false;
  while (alive) {
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired on an idle connection; only exit if a
        // shutdown has been requested, else keep waiting for the client.
        if (stop_.load(std::memory_order_acquire)) break;
        continue;
      }
      if (errno == EINTR) continue;
      break;
    }
    if (got == 0) break;
    buffer.append(chunk, static_cast<size_t>(got));
    // Peel off every complete line and parse it once; a partial tail
    // stays buffered. nullopt marks an INFO probe, the one non-Q request.
    std::vector<std::optional<Result<WireQuery>>> ready;
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      if (line == "INFO") {
        ready.emplace_back();
      } else {
        ready.emplace_back(ParseQueryLine(line));
      }
      start = nl + 1;
    }
    buffer.erase(0, start);
    std::string out;
    size_t i = 0;
    while (i < ready.size()) {
      if (!ready[i].has_value()) {
        ServiceInfo info;
        info.n = service_->n();
        info.eps_per_query = service_->options().eps_per_query;
        info.client_budget_eps = service_->options().client_budget_eps;
        info.max_batch = max_batch;
        out += FormatInfoLine(info);
        out += '\n';
        ++i;
        continue;
      }
      Result<WireQuery>& parsed = *ready[i];
      if (!parsed.ok()) {
        out += FormatAnswerLine(0, Result<double>(parsed.status()));
        out += '\n';
        ++i;
        continue;
      }
      // Group consecutive already-buffered queries from the same client
      // into one batch — this is where pipelining pays off.
      const uint64_t client = parsed->client;
      std::vector<recon::SubsetQuery> batch;
      batch.push_back(std::move(parsed->query));
      size_t j = i + 1;
      for (; j < ready.size() && batch.size() < max_batch; ++j) {
        std::optional<Result<WireQuery>>& next = ready[j];
        if (!next.has_value() || !next->ok() || (*next)->client != client) {
          break;
        }
        batch.push_back(std::move((*next)->query));
      }
      // The handler holds no mutex here. AnswerBatch takes the budget
      // ledger, metrics, trace and log locks one at a time, each a leaf
      // (common/mutex.h).
      const std::vector<QueryOutcome> outcomes =
          service_->AnswerBatch(client, batch);
      for (const QueryOutcome& outcome : outcomes) {
        out += FormatAnswerLine(client, outcome);
        out += '\n';
      }
      i = j;
    }
    // A client that never ends its line must not grow the buffer without
    // bound: refuse the line once and hang up.
    if (buffer.size() > max_line) {
      out += FormatAnswerLine(
          0, Result<double>(Status::InvalidArgument(StrFormat(
                 "request line exceeds %zu bytes", max_line))));
      out += '\n';
      overlong = true;
      alive = false;
    }
    if (!out.empty() && !SendAll(fd, out)) alive = false;
  }
  if (overlong) {
    // Lingering close: send FIN after the refusal, then discard what the
    // client already sent (bounded), so close() does not reset the
    // connection before the client has read the E line.
    ::shutdown(fd, SHUT_WR);
    for (size_t drained = 0; drained <= max_line;) {
      const ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      drained += static_cast<size_t>(got);
    }
  }
  ::close(fd);
}

#else  // !PSO_SERVICE_HAVE_SOCKETS

Status QueryServer::Start() {
  return Status::Unimplemented("sockets are unavailable on this platform");
}
void QueryServer::Run() {}
void QueryServer::RequestShutdown() {
  stop_.store(true, std::memory_order_release);
}
void QueryServer::HandleConnection(int) {}

#endif  // PSO_SERVICE_HAVE_SOCKETS

}  // namespace pso::service
