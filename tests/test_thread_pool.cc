#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tests/parallel_test_util.h"

namespace kgnet::common {
namespace {

using testing::ThreadCountGuard;

/// Collects the (begin, end) chunk pairs a ParallelFor produced.
std::vector<std::pair<size_t, size_t>> CollectChunks(size_t begin, size_t end,
                                                     size_t grain) {
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelFor(begin, end, grain, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokes) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    ThreadPool::SetNumThreads(threads);
    std::atomic<int> calls{0};
    ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
    ParallelFor(7, 3, 1, [&](size_t, size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ThreadPoolTest, GrainLargerThanRangeRunsOneChunk) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    ThreadPool::SetNumThreads(threads);
    auto chunks = CollectChunks(3, 10, 100);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], (std::pair<size_t, size_t>{3, 10}));
  }
}

TEST(ThreadPoolTest, ZeroGrainActsAsOne) {
  ThreadCountGuard guard;
  ThreadPool::SetNumThreads(2);
  auto chunks = CollectChunks(0, 4, 0);
  ASSERT_EQ(chunks.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chunks[i].first, i);
    EXPECT_EQ(chunks[i].second, i + 1);
  }
}

// The determinism contract: chunk bounds are a pure function of
// (begin, end, grain), never of the thread count.
TEST(ThreadPoolTest, ChunkBoundsAreFixedByGrainOnly) {
  ThreadCountGuard guard;
  ThreadPool::SetNumThreads(1);
  const auto want = CollectChunks(7, 103, 10);
  // The formula itself, pinned: chunk i = [7 + 10i, min(103, 7 + 10(i+1))).
  ASSERT_EQ(want.size(), 10u);
  EXPECT_EQ(want.front(), (std::pair<size_t, size_t>{7, 17}));
  EXPECT_EQ(want.back(), (std::pair<size_t, size_t>{97, 103}));
  for (int threads : {2, 3, 4, 8}) {
    ThreadPool::SetNumThreads(threads);
    EXPECT_EQ(CollectChunks(7, 103, 10), want) << threads << " threads";
  }
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  ThreadPool::SetNumThreads(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, 64, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) ++hits[i];
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    ThreadPool::SetNumThreads(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(ParallelFor(0, 100, 1,
                             [&](size_t b, size_t) {
                               ++ran;
                               if (b == 37) throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // Same contract at every thread count: the remaining chunks still
    // run; the first exception is rethrown only after all of them.
    EXPECT_EQ(ran.load(), 100) << threads << " threads";
    // The pool must stay fully usable after a throwing job.
    std::atomic<size_t> sum{0};
    ParallelFor(0, 1000, 16, [&](size_t b, size_t e) {
      size_t local = 0;
      for (size_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2);
  }
}

TEST(ThreadPoolTest, SetNumThreadsClampsToOne) {
  ThreadCountGuard guard;
  ThreadPool::SetNumThreads(0);
  EXPECT_EQ(ThreadPool::num_threads(), 1);
  ThreadPool::SetNumThreads(-3);
  EXPECT_EQ(ThreadPool::num_threads(), 1);
  ThreadPool::SetNumThreads(6);
  EXPECT_EQ(ThreadPool::num_threads(), 6);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadCountGuard guard;
  ThreadPool::SetNumThreads(4);
  std::atomic<int> calls{0};
  // A chunk that re-enters the pool must not deadlock; the inner loop
  // runs inline on the worker with the same chunk bounds.
  ParallelFor(0, 8, 1, [&](size_t, size_t) {
    ParallelFor(0, 8, 1, [&](size_t, size_t) { ++calls; });
  });
  EXPECT_EQ(calls.load(), 64);
}

}  // namespace
}  // namespace kgnet::common
