// Tests for the ThreadPool / ParallelFor substrate. Written to be run
// under ThreadSanitizer (cmake -DPSO_SANITIZE=thread): every assertion
// doubles as a race detector when the schedule is adversarial.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"

namespace pso {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1, std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  while (done.load(std::memory_order_acquire) < kTasks) {
  }
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue is drained
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ChunkingTest, BoundariesDependOnlyOnN) {
  // The determinism contract hinges on this: chunk boundaries are a pure
  // function of n, never of the pool size.
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 1000u, 100000u}) {
    size_t chunk = DefaultChunkSize(n);
    if (n == 0) continue;
    EXPECT_GE(chunk, 1u);
    EXPECT_EQ(NumChunks(n, chunk), (n + chunk - 1) / chunk);
  }
  EXPECT_EQ(NumChunks(0), 0u);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(&pool, kN, [&](size_t begin, size_t end) {
    ASSERT_LE(begin, end);
    ASSERT_LE(end, kN);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsSerialInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 100, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  ParallelFor(nullptr, 0, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // Inner loops reuse the same pool. The caller participates in its own
  // loop's chunks, so a pool of ANY size (even 1) cannot deadlock.
  ThreadPool pool(2);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<uint64_t>> sums(kOuter);
  for (auto& s : sums) s.store(0);
  ParallelFor(&pool, kOuter, [&](size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      ParallelFor(&pool, kInner, [&, o](size_t ib, size_t ie) {
        uint64_t local = 0;
        for (size_t i = ib; i < ie; ++i) local += i;
        sums[o].fetch_add(local);
      });
    }
  });
  const uint64_t expect = kInner * (kInner - 1) / 2;
  for (size_t o = 0; o < kOuter; ++o) EXPECT_EQ(sums[o].load(), expect);
}

TEST(ParallelForTest, PropagatesExceptionToCaller) {
  ThreadPool pool(4);
  std::atomic<int> seen{0};
  try {
    ParallelFor(&pool, 1000, [&](size_t begin, size_t end) {
      seen.fetch_add(1);
      if (begin <= 500 && 500 < end) {
        throw std::runtime_error("boom at 500");
      }
    });
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 500");
  }
  EXPECT_GT(seen.load(), 0);
}

TEST(ParallelForTest, LowestChunkExceptionWins) {
  // When several chunks throw, the caller deterministically sees the one
  // from the lowest chunk index.
  ThreadPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    try {
      ParallelFor(
          &pool, 64,
          [&](size_t begin, size_t) {
            throw std::runtime_error(begin == 0 ? "first" : "later");
          },
          /*chunk_size=*/1);
      FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first");
    }
  }
}

TEST(ParallelForTest, StressManyTinyTasks) {
  // 10k tiny chunks through a small pool: exercises the queue, the chunk
  // counter, and completion signalling under contention (TSAN food).
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::atomic<uint64_t> sum{0};
  ParallelFor(
      &pool, kN,
      [&](size_t begin, size_t end) {
        uint64_t local = 0;
        for (size_t i = begin; i < end; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      },
      /*chunk_size=*/1);
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(kN) * (kN - 1) / 2);
}

TEST(TaskGroupTest, WaitsForAllSubmittedTasks) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> done{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(done.load(), kTasks);
  // The group stays usable after a Wait.
  group.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  group.Wait();
  EXPECT_EQ(done.load(), kTasks + 1);
}

TEST(TaskGroupTest, NullPoolRunsInline) {
  TaskGroup group(nullptr);
  int order = 0;
  group.Submit([&order] { EXPECT_EQ(order++, 0); });
  group.Submit([&order] { EXPECT_EQ(order++, 1); });
  // Inline execution finished before Submit returned.
  EXPECT_EQ(order, 2);
  group.Wait();
}

TEST(TaskGroupTest, TasksMaySubmitFurtherTasks) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> done{0};
  group.Submit([&group, &done] {
    done.fetch_add(1, std::memory_order_relaxed);
    group.Submit(
        [&done] { done.fetch_add(1, std::memory_order_relaxed); });
  });
  group.Wait();
  EXPECT_EQ(done.load(), 2);
}

TEST(TaskGroupTest, SwallowsThrowingTasks) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> done{0};
  group.Submit([] { throw std::runtime_error("task failure"); });
  group.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  group.Wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(ParallelForTest, RepeatedRunsOnOnePool) {
  // Back-to-back loops on the same pool must not interfere.
  ThreadPool pool(3);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<int> data(257, 0);
    ParallelFor(&pool, data.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) data[i] = static_cast<int>(i);
    });
    long long total = std::accumulate(data.begin(), data.end(), 0ll);
    ASSERT_EQ(total, 257ll * 256 / 2);
  }
}

}  // namespace
}  // namespace pso
