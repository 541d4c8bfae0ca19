// Loopback TCP front-end for QueryService: the live daemon `psoctl
// serve` runs and the CI service-smoke lane attacks.
//
// One QueryServer owns a listening socket on 127.0.0.1 and an accept
// loop (Run(), on the caller's thread). Each accepted connection is
// handled as one task on the service ThreadPool via TaskGroup, or
// inline when no pool was given. A connection handler reads
// newline-delimited requests (wire.h), groups consecutive pipelined
// queries from the same client into batches of at most
// options().max_batch, answers them through QueryService::AnswerBatch,
// and writes the responses back in request order.
//
// Shutdown: RequestShutdown() is async-signal-safe (an atomic store plus
// shutdown(2) on the listening socket), so `psoctl serve` calls it
// straight from its SIGTERM/SIGINT handler. The accept loop then exits
// and Run() drains in-flight connection handlers before returning —
// clean shutdown means every accepted client got its responses.
//
// POSIX-only: on platforms without BSD sockets Start() returns
// kUnimplemented (the library still builds; only the daemon is gated).

#ifndef PSO_SERVICE_SERVER_H_
#define PSO_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/parallel.h"
#include "common/status.h"
#include "service/query_service.h"

namespace pso::service {

/// Configuration for one QueryServer.
struct QueryServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  int port = 0;
  /// When non-empty, the bound port is published to this file (written
  /// via rename, so a poller never sees a partial write).
  std::string port_file;
  /// Worker pool for connection handlers (null = handle serially on the
  /// accept thread).
  ThreadPool* pool = nullptr;
};

/// Accept loop + connection handlers around one QueryService.
class QueryServer {
 public:
  QueryServer(QueryService* service, const QueryServerOptions& options);
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds and listens; publishes the port file. kUnimplemented on
  /// non-POSIX platforms, kInternal on socket errors.
  [[nodiscard]] Status Start();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  /// Runs the accept loop on the calling thread until RequestShutdown,
  /// then drains in-flight connection handlers. Requires a successful
  /// Start.
  void Run();

  /// Stops the accept loop. Async-signal-safe: callable from a signal
  /// handler.
  void RequestShutdown();

  /// Connections accepted so far.
  uint64_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  void HandleConnection(int fd);

  QueryService* service_;
  QueryServerOptions options_;
  TaskGroup group_;
  int port_ = 0;
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> connections_{0};
};

}  // namespace pso::service

#endif  // PSO_SERVICE_SERVER_H_
