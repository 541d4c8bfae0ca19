// Deterministic parallel execution for Monte-Carlo trial loops.
//
// The repo's reproducibility contract is "same seed => same numbers"; this
// module extends it to "same seed => same numbers at ANY thread count".
// Two ingredients make that hold:
//
//  1. Counter-based RNG streams (Rng::StreamAt): trial i derives its
//     generator from (master_seed, i) alone, never from which thread runs
//     it or in what order.
//  2. Thread-count-independent chunking: ParallelFor splits [0, n) into
//     chunks whose boundaries depend only on n (and an optional explicit
//     chunk size). Call sites accumulate into per-chunk estimators and
//     merge them in chunk-index order, so floating-point reductions are
//     bit-for-bit identical whether 1 or 64 threads ran the chunks.
//
// The pool is deliberately simple: a fixed set of workers draining a
// mutex-guarded queue — no work stealing, no task priorities. ParallelFor
// is deadlock-free under nesting because the calling thread participates
// in executing chunks: if every worker is busy (or the pool has none), the
// caller just runs all chunks itself.

#ifndef PSO_COMMON_PARALLEL_H_
#define PSO_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pso {

/// Fixed-size thread pool. Threads are started in the constructor and
/// joined in the destructor; tasks submitted after shutdown are dropped.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means HardwareThreads().
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains nothing: joins after finishing all queued tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task) PSO_EXCLUDES(mu_);

  /// Tasks each worker has executed so far, indexed by worker. Which
  /// worker dequeues a given task is scheduler-dependent, so these are
  /// observability gauges (load-imbalance reports), never inputs to any
  /// deterministic computation.
  std::vector<uint64_t> WorkerTaskCounts() const;

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareThreads();

 private:
  void WorkerLoop(size_t worker_index) PSO_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ PSO_GUARDED_BY(mu_);
  bool shutdown_ PSO_GUARDED_BY(mu_) = false;
  std::vector<std::atomic<uint64_t>> task_counts_;  // sized in constructor
  std::vector<std::thread> threads_;
};

/// Chunk size used by ParallelFor when none is given: a pure function of
/// `n` (never of the thread count), so reductions over per-chunk
/// accumulators are reproducible at any parallelism.
size_t DefaultChunkSize(size_t n);

/// Number of chunks ParallelFor will use for (`n`, `chunk_size`);
/// `chunk_size` 0 means DefaultChunkSize(n). Size per-chunk accumulator
/// vectors with this, and index them by `begin / chunk_size`.
size_t NumChunks(size_t n, size_t chunk_size = 0);

/// Runs `body(begin, end)` over disjoint chunks covering [0, n), blocking
/// until every chunk has finished. Chunks may run concurrently on `pool`'s
/// workers and on the calling thread; with a null pool (or n small enough
/// for one chunk) everything runs inline on the caller — the exact legacy
/// serial behavior.
///
/// Exceptions thrown by `body` are captured and the one from the
/// lowest-indexed failing chunk is rethrown on the calling thread after
/// all chunks have completed (deterministic even when several chunks
/// throw).
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t begin, size_t end)>& body,
                 size_t chunk_size = 0);

/// Publishes `pool`'s per-worker task distribution into the global metric
/// registry as gauges (pool.workers, pool.tasks_total, pool.tasks_max,
/// pool.tasks_min, pool.imbalance). Gauges are run-dependent: task-to-
/// worker assignment is a scheduler accident. No-op for a null pool.
void RecordPoolGauges(const ThreadPool* pool);

/// Tracks a set of independent tasks submitted to a pool and lets the
/// owner block until all of them have finished — the completion-tracking
/// layer ThreadPool itself deliberately lacks (its queue drains only at
/// destruction). Long-running services use one TaskGroup per logical
/// stream of async work (the query server's connection handlers) so they
/// can drain in-flight work without tearing the pool down.
///
/// With a null pool, Submit runs the task inline on the calling thread —
/// the exact serial behavior, mirroring ParallelFor's contract. Tasks may
/// Submit further tasks onto the same group. Wait() returns once every
/// submitted task (including ones submitted while waiting) has finished.
/// Not a barrier for reuse: Wait() may be called repeatedly, and Submit
/// stays valid after a Wait.
///
/// Exceptions thrown by tasks are swallowed after being counted (the
/// failed() count); services must report failures through their own
/// Status plumbing, not by unwinding a worker.
class TaskGroup {
 public:
  /// Binds the group to `pool` (null = run every task inline).
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  /// Waits for stragglers so task captures never dangle.
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Runs `task` on the pool (or inline when the pool is null).
  void Submit(std::function<void()> task) PSO_EXCLUDES(mu_);

  /// Blocks until every submitted task has completed.
  void Wait() PSO_EXCLUDES(mu_);

  /// Tasks currently submitted-but-unfinished (racy snapshot; for tests
  /// and gauges).
  size_t pending() const PSO_EXCLUDES(mu_);

  /// Tasks that terminated by throwing (their exceptions are dropped).
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  void RunOne(const std::function<void()>& task) PSO_EXCLUDES(mu_);

  ThreadPool* pool_;
  mutable Mutex mu_;
  CondVar idle_cv_;
  size_t pending_ PSO_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> failed_{0};
};

}  // namespace pso

#endif  // PSO_COMMON_PARALLEL_H_
