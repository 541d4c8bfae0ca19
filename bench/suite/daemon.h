// Lifecycle of one `psoctl serve` daemon under test: spawn with a port
// file in a private directory, wait for it to listen, read its CPU time
// and peak RSS from /proc, then SIGTERM it and collect the `shutdown:`
// counts and the metric-registry dump it prints on exit.

#ifndef PSO_BENCH_SUITE_DAEMON_H_
#define PSO_BENCH_SUITE_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "json.h"
#include "service/wire.h"

namespace pso::bench {

/// The service a daemon runs (psoctl serve's flags).
struct DaemonConfig {
  size_t n = 48;
  double eps = 0.0;
  double budget = 0.0;
  uint64_t seed = 1;
};

/// What /proc says about a process at one instant.
struct ProcUsage {
  double cpu_s = 0.0;       ///< utime + stime.
  double peak_rss_mib = 0;  ///< VmHWM.
};

/// Reads /proc/<pid>/stat and /proc/<pid>/status.
[[nodiscard]] Result<ProcUsage> ReadProcUsage(pid_t pid);

/// The daemon's exit report.
struct ShutdownReport {
  uint64_t connections = 0;
  uint64_t answered = 0;
  uint64_t rejected = 0;
  Json metrics;  ///< The --metrics-format json registry dump.
};

class Daemon {
 public:
  /// Spawns `psoctl serve --threads 2 --metrics --metrics-format json`
  /// with its port file in `dir`, and waits up to 5 s for the port to be
  /// published.
  [[nodiscard]] static Result<std::unique_ptr<Daemon>> Start(
      const std::string& psoctl, const DaemonConfig& config,
      const std::string& dir);

  /// Kills a daemon that was never stopped.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Sends SIGTERM and waits up to 5 s for the daemon to exit. On timeout
  /// it is killed and the stop fails; a nonzero exit also fails.
  [[nodiscard]] Result<ShutdownReport> Stop();

 private:
  Daemon(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  /// Appends whatever the daemon has written to stdout, waiting until
  /// `deadline_ns` for more; false on EOF or timeout.
  bool ReadOutput(int64_t deadline_ns);
  void Kill();

  pid_t pid_;
  int out_fd_;
  int port_ = 0;
  std::string output_;
};

/// Opens a TCP connection to 127.0.0.1:`port` with TCP_NODELAY set, so
/// the generator's own sends are never held back by Nagle's algorithm.
[[nodiscard]] Result<int> ConnectLoopback(int port);

/// Sends "INFO" on a fresh blocking connection and parses the reply,
/// waiting at most 5 s.
[[nodiscard]] Result<service::ServiceInfo> ProbeInfo(int fd);

/// Monotonic nanoseconds.
int64_t NowNs();

}  // namespace pso::bench

#endif  // PSO_BENCH_SUITE_DAEMON_H_
