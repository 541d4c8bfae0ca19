// Solver liveness: work counters published at a deterministic cadence.
//
// Long-running engines (CDCL search, revised simplex) check their
// monotone work count (decisions + conflicts, simplex steps) against a
// Heartbeat after every unit of work. At each cadence boundary the
// engine adds its counters' growth since the previous boundary to the
// metric registry (PublishDelta), so a registry read in the middle of a
// solve sees how far it has got, and, while tracing, emits one
// `progress.heartbeat` instant carrying its work stats. At solve end it
// publishes only the remainder, so counter totals do not depend on the
// cadence, and a traced solve that did any work emits a "final" beat.
//
// The boundary is a work count, never a timer: the same instance and
// seed give the same heartbeats with the same args at any thread count
// and on any machine speed (DESIGN.md §7).

#ifndef PSO_COMMON_PROGRESS_H_
#define PSO_COMMON_PROGRESS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace pso::progress {

/// One named work statistic attached to a heartbeat (e.g. "conflicts").
struct Stat {
  const char* key = nullptr;
  double value = 0.0;
};

/// The cadence check for one solve. Stack-allocate one per solve; not
/// thread-safe (each solve runs on one thread).
///
///   progress::Heartbeat beat(/*every=*/64);
///   while (...) {
///     ...one decision or conflict...
///     if (beat.Due(stats.decisions + stats.conflicts)) {
///       ...publish counters; if tracing, EmitInstant("cdcl", "tick", ...)
///     }
///   }
class Heartbeat {
 public:
  /// `every` is the work-count cadence (a beat is due when the work
  /// count reaches a multiple of `every`; values below 1 mean 1).
  explicit Heartbeat(uint64_t every)
      : every_(std::max<uint64_t>(1, every)), next_at_(every_) {}

  /// Records the solve's work count and returns true when it has reached
  /// the next boundary (one comparison otherwise). The next boundary is
  /// strictly after `work`, so a burst over many boundaries (a backjump
  /// skipping many levels) is one beat, not a backlog.
  bool Due(uint64_t work) {
    work_ = work;
    if (work < next_at_) return false;
    next_at_ = (work / every_ + 1) * every_;
    return true;
  }

  /// The last recorded work count; 0 when the solve did no work (and so
  /// owes no final beat).
  uint64_t work() const { return work_; }

 private:
  uint64_t every_;
  uint64_t next_at_;
  uint64_t work_ = 0;
};

/// Emits one `progress.heartbeat` trace instant with args engine, phase
/// ("tick" or "final"), work, then `stats` in order. Integral stat values
/// render without a fraction. Callers check tracing first, so the stats
/// are computed only for an instant that is emitted.
void EmitInstant(const char* engine, const char* phase, uint64_t work,
                 std::initializer_list<Stat> stats);

/// Adds `total - *published` to the registry counter `name` and records
/// `total` as published. The counter is created even when the delta is 0.
void PublishDelta(const char* name, size_t total, size_t* published);

}  // namespace pso::progress

#endif  // PSO_COMMON_PROGRESS_H_
