#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace pso {

namespace {

// Chunks per ParallelFor when no explicit chunk size is given. Small
// enough that per-chunk bookkeeping is negligible, large enough that up
// to ~64 workers all find work. Must stay a constant: chunk boundaries
// may depend only on n.
constexpr size_t kDefaultChunks = 64;

// Shared state of one ParallelFor invocation. Worker tasks hold it via
// shared_ptr so late-dequeued helpers (whose chunks were already claimed
// by others) outlive the call safely: they observe next_chunk >= num_chunks
// and exit without touching `body`.
struct ForState {
  const std::function<void(size_t, size_t)>* body = nullptr;
  size_t n = 0;
  size_t chunk_size = 0;
  size_t num_chunks = 0;

  // The launching thread's trace span (worker chunk spans nest under
  // it), fixed before any task is submitted.
  uint64_t trace_parent = 0;

  std::atomic<size_t> next_chunk{0};
  Mutex mu;
  CondVar done_cv;
  size_t done_chunks PSO_GUARDED_BY(mu) = 0;
  std::exception_ptr error PSO_GUARDED_BY(mu);
  size_t error_chunk PSO_GUARDED_BY(mu) = 0;

  // Claims and runs chunks until none remain. Returns once this thread
  // can take no more work (other threads may still be running chunks).
  void RunChunks() {
    for (;;) {
      size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      size_t begin = c * chunk_size;
      size_t end = std::min(n, begin + chunk_size);
      std::exception_ptr err;
      try {
        trace::ContextScope trace_ctx(trace_parent);
        (*body)(begin, end);
      } catch (...) {
        err = std::current_exception();
      }
      MutexLock lock(mu);
      if (err && (!error || c < error_chunk)) {
        error = std::move(err);
        error_chunk = c;
      }
      if (++done_chunks == num_chunks) done_cv.NotifyAll();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareThreads();
  task_counts_ = std::vector<std::atomic<uint64_t>>(num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (shutdown_) return;
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

size_t ThreadPool::HardwareThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Predicate loop written inline (not as a lambda) so the analysis
      // sees the guarded reads happen under mu_.
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task_counts_[worker_index].fetch_add(1, std::memory_order_relaxed);
    task();
  }
}

std::vector<uint64_t> ThreadPool::WorkerTaskCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(task_counts_.size());
  for (const auto& c : task_counts_) {
    counts.push_back(c.load(std::memory_order_relaxed));
  }
  return counts;
}

size_t DefaultChunkSize(size_t n) {
  if (n == 0) return 1;
  return std::max<size_t>(1, (n + kDefaultChunks - 1) / kDefaultChunks);
}

size_t NumChunks(size_t n, size_t chunk_size) {
  if (n == 0) return 0;
  if (chunk_size == 0) chunk_size = DefaultChunkSize(n);
  return (n + chunk_size - 1) / chunk_size;
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& body,
                 size_t chunk_size) {
  if (n == 0) return;
  if (chunk_size == 0) chunk_size = DefaultChunkSize(n);
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;

  // Both totals depend only on the call sites' (n, chunk_size) sequence,
  // never on the thread count, so they land in the deterministic section
  // of metric snapshots.
  metrics::GetCounter("parallel.for_calls").Add(1);
  metrics::GetCounter("parallel.chunks").Add(num_chunks);
  metrics::GetCounter("parallel.items").Add(n);

  // Region-level trace span. It depends only on the call-site sequence
  // and (n, chunk_size), never on the thread count, so the logical trace
  // tree is identical on the serial and pooled paths.
  trace::Span region_span("parallel.for");
  if (region_span.active()) {
    region_span.Arg("n", std::to_string(n));
    region_span.Arg("chunks", std::to_string(num_chunks));
  }

  if (pool == nullptr || pool->num_threads() == 0 || num_chunks == 1) {
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t begin = c * chunk_size;
      body(begin, std::min(n, begin + chunk_size));
    }
    return;
  }

  auto state = std::make_shared<ForState>();
  state->body = &body;
  state->n = n;
  state->chunk_size = chunk_size;
  state->num_chunks = num_chunks;
  state->trace_parent =
      region_span.active() ? region_span.id() : trace::CurrentSpanId();

  // One helper per worker (capped by the chunk count); the caller also
  // claims chunks, so completion never depends on a helper being
  // scheduled — nested ParallelFor on a saturated pool cannot deadlock.
  const size_t helpers = std::min(pool->num_threads(), num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    pool->Submit([state] { state->RunChunks(); });
  }
  state->RunChunks();

  MutexLock lock(state->mu);
  while (state->done_chunks != state->num_chunks) state->done_cv.Wait(state->mu);
  // The winning worker moved its exception in under the lock, and the
  // caller moves it out, so the caller holds its last reference.
  // Otherwise a worker releasing `state` could free it while the caller
  // still reads it, ordered only by the exception's reference count in
  // libstdc++, which TSan does not see: it would report a race.
  if (state->error) std::rethrow_exception(std::exchange(state->error, {}));
}

void TaskGroup::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    ++pending_;
  }
  if (pool_ == nullptr || pool_->num_threads() == 0) {
    RunOne(task);
    return;
  }
  auto shared = std::make_shared<std::function<void()>>(std::move(task));
  pool_->Submit([this, shared] { RunOne(*shared); });
}

void TaskGroup::RunOne(const std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    // Dropped: see the class comment.
  }
  MutexLock lock(mu_);
  if (--pending_ == 0) idle_cv_.NotifyAll();
}

void TaskGroup::Wait() {
  MutexLock lock(mu_);
  while (pending_ != 0) idle_cv_.Wait(mu_);
}

void RecordPoolGauges(const ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() == 0) return;
  std::vector<uint64_t> counts = pool->WorkerTaskCounts();
  uint64_t total = 0;
  uint64_t max = 0;
  uint64_t min = counts.empty() ? 0 : counts[0];
  for (uint64_t c : counts) {
    total += c;
    max = std::max(max, c);
    min = std::min(min, c);
  }
  metrics::SetGauge("pool.workers", static_cast<double>(counts.size()));
  metrics::SetGauge("pool.tasks_total", static_cast<double>(total));
  metrics::SetGauge("pool.tasks_max", static_cast<double>(max));
  metrics::SetGauge("pool.tasks_min", static_cast<double>(min));
  metrics::SetGauge("pool.imbalance", static_cast<double>(max - min));
}

}  // namespace pso
