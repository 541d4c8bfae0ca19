// The load generator for the serving workloads: one thread drives two
// loopback connections with ppoll(2), in closed loop (a fixed number of
// batches, with a fixed number in flight per connection) or open loop
// (seeded Poisson arrivals, each batch sent when due whatever is still in
// flight). Responses come back in request order per connection, so each
// line is matched to its batch by position. The generator keeps only a
// hash and the arrival time of each line, in flat arrays, so that it stays
// much cheaper per query than the daemon it measures; the correctness
// oracle compares the hashes after the phase. Each phase is one trace
// span: per-batch spans would outnumber the trace buffer, and the
// daemon's own layers are measured from its metric registry.

#ifndef PSO_BENCH_SUITE_GENERATOR_H_
#define PSO_BENCH_SUITE_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace pso::bench {

/// Appends request number `index` (counted across all phases) for
/// connection `conn` to `out` as newline-terminated query lines, and
/// returns how many queries it holds.
using RequestSource =
    std::function<uint32_t(uint64_t index, size_t conn, std::string* out)>;

/// One batch as the generator saw it. Times are NowNs() values.
struct SentBatch {
  uint64_t index = 0;
  uint32_t conn = 0;
  uint32_t queries = 0;
  size_t bytes = 0;
  int64_t scheduled_ns = 0;  ///< When it was due (closed loop: = issued_ns).
  int64_t issued_ns = 0;     ///< When the generator started on it.
  int64_t sent_ns = 0;       ///< When it was handed to the socket.
  int64_t done_ns = 0;       ///< Arrival of its last line; 0 if incomplete.
  size_t first_line = 0;     ///< Its lines' slots in Phase::line_*.
  uint32_t received = 0;     ///< Lines that arrived.
};

/// Everything recorded during one phase.
struct Phase {
  std::vector<SentBatch> batches;
  /// Per query slot, batch-major: HashString of the response line (no
  /// newline) and its arrival time (0 if it never came).
  std::vector<uint64_t> line_hash;
  std::vector<int64_t> line_ns;
  int64_t start_ns = 0;
  int64_t end_ns = 0;   ///< Last response of a closed loop; end of the
                        ///< sending window of an open loop.
  double cpu_s = 0.0;   ///< Generator thread CPU, drain included.
  double wall_s = 0.0;  ///< Drain included.
  /// Open loop: batches in flight right after each send.
  std::vector<uint32_t> inflight;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  std::string error;  ///< Transport failure; empty when none.

  double window_s() const { return (end_ns - start_ns) * 1e-9; }
  size_t queries() const { return line_hash.size(); }
};

class Generator {
 public:
  /// Takes ownership of the connected sockets. With `quick_ack`, every
  /// read of responses is acknowledged at once (TCP_QUICKACK) rather than
  /// when the kernel's delayed-ACK timer fires.
  Generator(std::vector<int> fds, RequestSource source, bool quick_ack);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Sends `batches` batches, keeping `depth` in flight on every
  /// connection, and waits for the last response.
  Phase Closed(size_t batches, size_t depth);

  /// Sends batches at seeded Poisson arrival times, `batches_per_s` on
  /// average, round-robin over the connections, for `seconds`.
  Phase Open(double seconds, double batches_per_s, uint64_t seed);

  /// Closes the connections (the daemon's handlers then exit at once).
  void Close();

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    std::deque<size_t> inflight;  // indices into Phase::batches
  };

  void Issue(Phase& phase, size_t conn, int64_t scheduled_ns);
  /// One ppoll round, waiting at most until `deadline_ns`. Returns the
  /// connections on which a batch completed, one entry per batch.
  std::vector<size_t> Pump(Phase& phase, int64_t deadline_ns);
  void Flush(Phase& phase, Conn& conn);
  void Receive(Phase& phase, size_t conn_index, std::vector<size_t>* done);
  /// Waits up to 5 s for every in-flight batch, then closes the phase.
  void Finish(Phase& phase, int64_t cpu_start_ns);
  size_t InFlight() const;

  std::vector<Conn> conns_;
  RequestSource source_;
  bool quick_ack_;
  uint64_t next_index_ = 0;
};

/// CPU time of the calling thread, in nanoseconds.
int64_t ThreadCpuNs();

}  // namespace pso::bench

#endif  // PSO_BENCH_SUITE_GENERATOR_H_
