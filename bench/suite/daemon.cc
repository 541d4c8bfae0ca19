#include "daemon.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "service/wire.h"

namespace pso::bench {

namespace {

constexpr int64_t kWaitNs = 5'000'000'000;  // port file and exit waits

Status Errno(const std::string& what) {
  return Status::Internal(
      StrFormat("%s: %s", what.c_str(), service::ErrnoMessage(errno).c_str()));
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<ProcUsage> ReadProcUsage(pid_t pid) {
  std::ifstream stat_file(StrFormat("/proc/%d/stat", static_cast<int>(pid)));
  std::string stat((std::istreambuf_iterator<char>(stat_file)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the line, i.e. the 12th and 13th after it.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return Status::Internal(StrFormat("cannot read /proc/%d/stat", pid));
  }
  std::istringstream fields(stat.substr(close + 1));
  std::vector<std::string> tok;
  for (std::string t; fields >> t;) tok.push_back(t);
  if (tok.size() < 13) {
    return Status::Internal(StrFormat("short /proc/%d/stat", pid));
  }
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  ProcUsage usage;
  usage.cpu_s = (std::stod(tok[11]) + std::stod(tok[12])) / ticks;

  std::ifstream status(StrFormat("/proc/%d/status", static_cast<int>(pid)));
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      usage.peak_rss_mib = std::stod(line.substr(6)) / 1024.0;  // kB
      return usage;
    }
  }
  return Status::Internal(StrFormat("no VmHWM in /proc/%d/status", pid));
}

Result<int> ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Errno(StrFormat("connect 127.0.0.1:%d", port));
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<service::ServiceInfo> ProbeInfo(int fd) {
  const std::string request = "INFO\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return Errno("send INFO");
  }
  const int64_t deadline = NowNs() + kWaitNs;
  std::string line;
  char c = 0;
  while (c != '\n') {
    pollfd p{fd, POLLIN, 0};
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
      return Status::Internal("no INFO reply within 5 s");
    }
    if (::recv(fd, &c, 1, 0) != 1) return Status::Internal("INFO reply cut off");
    if (c != '\n') line.push_back(c);
  }
  return service::ParseInfoLine(line);
}

Result<std::unique_ptr<Daemon>> Daemon::Start(const std::string& psoctl,
                                              const DaemonConfig& config,
                                              const std::string& dir) {
  const std::string port_file = dir + "/port";
  ::unlink(port_file.c_str());
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return Errno("pipe2");
  const std::vector<std::string> args = {
      psoctl,          "serve",
      "--threads",     "2",
      "--metrics",     "--metrics-format",
      "json",          "--n",
      std::to_string(config.n),
      "--eps",         StrFormat("%.17g", config.eps),
      "--budget",      StrFormat("%.17g", config.budget),
      "--port",        "0",
      "--port-file",   port_file,
      "--seed",        std::to_string(config.seed)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // The daemon must not outlive the benchmark, even one that crashed.
    // Only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(psoctl.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  if (pid < 0) {
    const Status st = Errno("fork");
    ::close(fds[0]);
    return st;
  }
  ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL) | O_NONBLOCK);
  std::unique_ptr<Daemon> daemon(new Daemon(pid, fds[0]));

  // psoctl prints its "serving ... port=P" line after the port file has
  // been renamed into place, so the line is the readiness signal and the
  // file must agree with it.
  const int64_t deadline = NowNs() + kWaitNs;
  size_t line_end = std::string::npos;
  while ((line_end = daemon->output_.find('\n')) == std::string::npos) {
    if (!daemon->ReadOutput(deadline)) {
      return Status::Internal("daemon did not publish its port within 5 s");
    }
  }
  const std::string line = daemon->output_.substr(0, line_end);
  const size_t at = line.find("port=");
  int port_from_file = 0;
  FILE* f = std::fopen(port_file.c_str(), "r");
  const bool read_ok = f != nullptr && std::fscanf(f, "%d", &port_from_file) == 1;
  if (f != nullptr) std::fclose(f);
  if (at == std::string::npos || !read_ok ||
      std::atoi(line.c_str() + at + 5) != port_from_file) {
    return Status::Internal("daemon port file disagrees with: " + line);
  }
  daemon->port_ = port_from_file;
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) Kill();
  ::close(out_fd_);
}

bool Daemon::ReadOutput(int64_t deadline_ns) {
  char buf[65536];
  for (;;) {
    const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
    if (got > 0) {
      output_.append(buf, static_cast<size_t>(got));
      return true;
    }
    if (got == 0) return false;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    const int64_t left_ms = (deadline_ns - NowNs()) / 1'000'000;
    if (left_ms <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    ::poll(&p, 1, static_cast<int>(left_ms));
  }
}

void Daemon::Kill() {
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

Result<ShutdownReport> Daemon::Stop() {
  if (::kill(pid_, SIGTERM) != 0) return Errno("kill SIGTERM");
  const int64_t deadline = NowNs() + kWaitNs;
  while (ReadOutput(deadline)) {
  }
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reaped != pid_) {
    Kill();
    return Status::Internal("daemon did not exit within 5 s of SIGTERM");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal(StrFormat("daemon exited abnormally (status %d)",
                                      status));
  }
  ShutdownReport report;
  bool have_shutdown = false;
  bool have_metrics = false;
  std::istringstream lines(output_);
  for (std::string line; std::getline(lines, line);) {
    unsigned long long conns = 0, answered = 0, rejected = 0;
    if (std::sscanf(line.c_str(),
                    "shutdown: connections=%llu answered=%llu rejected=%llu",
                    &conns, &answered, &rejected) == 3) {
      report.connections = conns;
      report.answered = answered;
      report.rejected = rejected;
      have_shutdown = true;
    } else if (!line.empty() && line[0] == '{') {
      std::optional<Json> dump = Json::Parse(line);
      if (dump) {
        report.metrics = std::move(*dump);
        have_metrics = true;
      }
    }
  }
  if (!have_shutdown || !have_metrics) {
    return Status::Internal("daemon output lacks the shutdown line or the "
                            "metrics dump");
  }
  return report;
}

}  // namespace pso::bench
