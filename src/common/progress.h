// Solver liveness: deterministic progress heartbeats plus an optional
// wall-clock stall watchdog.
//
// Long-running engines (CDCL search, revised simplex) call
// ProgressReporter::Tick at a WORK-COUNT cadence — every N conflicts or
// pivots — never on a timer. Heartbeats therefore replay byte-identically
// with the rest of the trace: same instance + same seed => the same
// heartbeat instants with the same work-stat args, at any thread count
// and on any machine speed. (DESIGN.md §7 explains why this matters for
// the deterministic trace contract.)
//
// The watchdog is the only wall-clock component, and it is strictly
// additive diagnostics: when armed (psoctl --solver-watchdog-ms N),
// a background thread checks every N ms whether ANY reporter has ticked
// since the last check and, if not, emits a kResourceExhausted-style
// stall diagnostic (WARN log + trace instant + watchdog.stalls counter)
// instead of letting a wedged solve hang silently. It never interrupts
// the solve and writes nothing when the process is making progress, so
// deterministic outputs stay deterministic.

#ifndef PSO_COMMON_PROGRESS_H_
#define PSO_COMMON_PROGRESS_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pso::progress {

/// One named work statistic attached to a heartbeat (e.g. "conflicts").
struct Stat {
  const char* key = nullptr;
  double value = 0.0;
};

/// Emits heartbeats for one long-running solve at a deterministic
/// work-count cadence. Stack-allocate one per solve; not thread-safe
/// (each solve runs on one thread). The destructor emits a final
/// heartbeat if any work was reported, so even a solve that dies before
/// its first cadence boundary (tiny decision budget) leaves heartbeat
/// evidence in the trace and log.
///
///   ProgressReporter progress("cdcl", /*every=*/64);
///   while (...) {
///     ...one conflict...
///     progress.Tick(stats.conflicts, {{"conflicts", ...}, ...});
///   }
class ProgressReporter {
 public:
  /// `name` labels the engine in instants/logs ("cdcl", "simplex");
  /// `every` is the work-count cadence (heartbeat when `work` crosses a
  /// multiple of `every`; must be >= 1).
  ProgressReporter(const char* name, uint64_t every);
  ~ProgressReporter();
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Reports the solve's monotone work counter (conflicts, pivots, ...).
  /// Cheap when no heartbeat is due (one comparison). When `work` has
  /// crossed the next cadence boundary, emits a heartbeat carrying
  /// `stats` (at most kMaxStats are kept) and notifies the watchdog.
  void Tick(uint64_t work, std::initializer_list<Stat> stats);

  /// Heartbeats emitted so far (final destructor beat not included).
  uint64_t heartbeats() const { return heartbeats_; }

  static constexpr int kMaxStats = 8;

 private:
  void Emit(const char* phase, uint64_t work,
            const Stat* stats, int num_stats);

  const char* name_;
  uint64_t every_;
  uint64_t next_at_;
  uint64_t heartbeats_ = 0;
  uint64_t last_work_ = 0;
  Stat last_stats_[kMaxStats];
  int num_last_stats_ = 0;
};

/// Process-wide wall-clock stall detector, armed by --solver-watchdog-ms.
/// All methods are thread-safe. Heartbeats from any ProgressReporter
/// count as progress; a poll interval with active solves and no progress
/// is flagged as a stall.
class Watchdog {
 public:
  static Watchdog& Global();

  /// Arms the watchdog with the given poll interval, starting the
  /// background thread. No-op if already armed. `interval_ms` <= 0
  /// disarms instead.
  void Start(int64_t interval_ms) PSO_EXCLUDES(mu_);

  /// Stops the background thread (joins it) and logs a summary with the
  /// stall count. Safe to call when not armed.
  void Stop() PSO_EXCLUDES(mu_);

  /// True between Start and Stop.
  bool armed() const PSO_EXCLUDES(mu_);

  /// Called by ProgressReporter on every heartbeat (and on reporter
  /// construction/destruction) — any call marks the interval live.
  void NotifyProgress() { progress_marks_.fetch_add(1, std::memory_order_relaxed); }

  /// Tracks how many solves are in flight; intervals with zero active
  /// solves are idle, not stalled.
  void SolveBegin() { active_solves_.fetch_add(1, std::memory_order_relaxed); }
  void SolveEnd() { active_solves_.fetch_sub(1, std::memory_order_relaxed); }

  /// Stalls flagged since Start (for tests and the Stop summary).
  uint64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }

 private:
  Watchdog() = default;
  void Run(int64_t interval_ms) PSO_EXCLUDES(mu_);

  std::atomic<uint64_t> progress_marks_{0};
  std::atomic<uint64_t> active_solves_{0};
  std::atomic<uint64_t> stalls_{0};

  mutable Mutex mu_ PSO_LOCK_ORDER(kProgress){LockRank::kProgress,
                                              "progress.watchdog"};
  CondVar cv_;
  bool running_ PSO_GUARDED_BY(mu_) = false;
  bool stop_requested_ PSO_GUARDED_BY(mu_) = false;
  std::thread thread_ PSO_GUARDED_BY(mu_);
};

/// RAII guard a solve wraps around its run so the watchdog knows when
/// solves are in flight (idle process != stalled process).
class ScopedSolve {
 public:
  ScopedSolve() { Watchdog::Global().SolveBegin(); }
  ~ScopedSolve() { Watchdog::Global().SolveEnd(); }
  ScopedSolve(const ScopedSolve&) = delete;
  ScopedSolve& operator=(const ScopedSolve&) = delete;
};

}  // namespace pso::progress

#endif  // PSO_COMMON_PROGRESS_H_
