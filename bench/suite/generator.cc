#include "generator.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>

#include "common/hash.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "daemon.h"
#include "service/wire.h"

namespace pso::bench {

namespace {

constexpr int64_t kDrainNs = 5'000'000'000;

}  // namespace

int64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Generator::Generator(std::vector<int> fds, RequestSource source,
                     bool quick_ack)
    : source_(std::move(source)), quick_ack_(quick_ack) {
  // Wake from ppoll within a microsecond of the deadline rather than the
  // default 50 us timer slack: the open loop's lag is measured against it.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  for (int fd : fds) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    Conn conn;
    conn.fd = fd;
    conns_.push_back(std::move(conn));
  }
}

Generator::~Generator() { Close(); }

void Generator::Close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }
}

size_t Generator::InFlight() const {
  size_t total = 0;
  for (const Conn& conn : conns_) total += conn.inflight.size();
  return total;
}

void Generator::Issue(Phase& phase, size_t conn_index, int64_t scheduled_ns) {
  Conn& conn = conns_[conn_index];
  SentBatch batch;
  batch.issued_ns = NowNs();
  batch.index = next_index_++;
  batch.conn = static_cast<uint32_t>(conn_index);
  const size_t before = conn.out.size();
  batch.queries = source_(batch.index, conn_index, &conn.out);
  batch.bytes = conn.out.size() - before;
  batch.first_line = phase.line_hash.size();
  phase.line_hash.resize(batch.first_line + batch.queries, 0);
  phase.line_ns.resize(batch.first_line + batch.queries, 0);
  phase.request_bytes += batch.bytes;
  conn.inflight.push_back(phase.batches.size());
  Flush(phase, conn);
  batch.sent_ns = NowNs();
  batch.scheduled_ns = scheduled_ns > 0 ? scheduled_ns : batch.issued_ns;
  phase.batches.push_back(batch);
}

void Generator::Flush(Phase& phase, Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t sent = ::send(conn.fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (sent > 0) {
      conn.out_off += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    phase.error = "send: " + service::ErrnoMessage(errno);
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

void Generator::Receive(Phase& phase, size_t conn_index,
                        std::vector<size_t>* done) {
  Conn& conn = conns_[conn_index];
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (got > 0 && quick_ack_) {
      // TCP_QUICKACK is not sticky (the kernel returns to delayed ACKs on
      // its own), hence once per read.
      const int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    }
    if (got == 0) {
      phase.error = StrFormat("connection %zu closed by the daemon", conn_index);
      return;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        phase.error = "recv: " + service::ErrnoMessage(errno);
      }
      return;
    }
    const int64_t now = NowNs();
    phase.response_bytes += static_cast<size_t>(got);
    conn.in.append(buf, static_cast<size_t>(got));
    size_t start = 0;
    for (size_t nl = conn.in.find('\n'); nl != std::string::npos;
         nl = conn.in.find('\n', start)) {
      if (conn.inflight.empty()) {
        phase.error = StrFormat("unrequested response line on connection %zu",
                                conn_index);
        return;
      }
      SentBatch& batch = phase.batches[conn.inflight.front()];
      const size_t slot = batch.first_line + batch.received++;
      phase.line_hash[slot] = HashBytes(conn.in.data() + start, nl - start);
      phase.line_ns[slot] = now;
      if (batch.received == batch.queries) {
        batch.done_ns = now;
        conn.inflight.pop_front();
        done->push_back(conn_index);
      }
      start = nl + 1;
    }
    conn.in.erase(0, start);
  }
}

std::vector<size_t> Generator::Pump(Phase& phase, int64_t deadline_ns) {
  std::vector<size_t> done;
  std::vector<pollfd> fds;
  for (const Conn& conn : conns_) {
    const short events =
        POLLIN | (conn.out_off < conn.out.size() ? POLLOUT : 0);
    fds.push_back(pollfd{conn.fd, events, 0});
  }
  const int64_t wait_ns = std::max<int64_t>(0, deadline_ns - NowNs());
  timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                   static_cast<long>(wait_ns % 1'000'000'000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) {
    if (errno != EINTR) phase.error = "ppoll: " + service::ErrnoMessage(errno);
    return done;
  }
  for (size_t i = 0; i < fds.size() && phase.error.empty(); ++i) {
    if (fds[i].revents & POLLOUT) Flush(phase, conns_[i]);
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      Receive(phase, i, &done);
    }
  }
  return done;
}

void Generator::Finish(Phase& phase, int64_t cpu_start_ns) {
  const int64_t deadline = NowNs() + kDrainNs;
  while (phase.error.empty() && InFlight() > 0 && NowNs() < deadline) {
    Pump(phase, deadline);
  }
  if (phase.error.empty() && InFlight() > 0) {
    phase.error = StrFormat("%zu batches unanswered 5 s after the phase",
                            InFlight());
  }
  if (!phase.error.empty()) {
    for (Conn& conn : conns_) conn.inflight.clear();
  }
  phase.wall_s = (NowNs() - phase.start_ns) * 1e-9;
  phase.cpu_s = (ThreadCpuNs() - cpu_start_ns) * 1e-9;
}

Phase Generator::Closed(size_t batches, size_t depth) {
  trace::Span span("service.client.closed_loop");
  Phase phase;
  const int64_t cpu_start = ThreadCpuNs();
  phase.start_ns = NowNs();
  size_t issued = 0;
  for (size_t k = 0; k < depth; ++k) {
    for (size_t c = 0; c < conns_.size() && issued < batches; ++c, ++issued) {
      Issue(phase, c, 0);
    }
  }
  int64_t progress_ns = NowNs();
  while (phase.error.empty() && InFlight() > 0) {
    const std::vector<size_t> done = Pump(phase, progress_ns + kDrainNs);
    const int64_t now = NowNs();
    if (!done.empty()) {
      progress_ns = now;
      phase.end_ns = now;
    } else if (now >= progress_ns + kDrainNs) {
      phase.error = "no response for 5 s in the closed loop";
    }
    for (size_t c : done) {
      if (issued < batches) {
        Issue(phase, c, 0);
        ++issued;
      }
    }
  }
  Finish(phase, cpu_start);
  return phase;
}

Phase Generator::Open(double seconds, double batches_per_s, uint64_t seed) {
  trace::Span span("service.client.open_loop");
  Phase phase;
  Rng arrivals(seed);
  const auto gap_ns = [&] {
    return static_cast<int64_t>(arrivals.Exponential(batches_per_s) * 1e9);
  };
  const int64_t cpu_start = ThreadCpuNs();
  phase.start_ns = NowNs();
  phase.end_ns = phase.start_ns + static_cast<int64_t>(seconds * 1e9);
  int64_t next_at = phase.start_ns + gap_ns();
  size_t round_robin = 0;
  while (phase.error.empty()) {
    int64_t now = NowNs();
    while (next_at <= now && next_at < phase.end_ns && phase.error.empty()) {
      Issue(phase, round_robin++ % conns_.size(), next_at);
      phase.inflight.push_back(static_cast<uint32_t>(InFlight()));
      next_at += gap_ns();
      now = NowNs();
    }
    if (now >= phase.end_ns) break;
    Pump(phase, std::min(next_at, phase.end_ns));
  }
  Finish(phase, cpu_start);
  return phase;
}

}  // namespace pso::bench
