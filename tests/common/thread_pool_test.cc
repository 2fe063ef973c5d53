#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace groupsa::parallel {
namespace {

// Counts how often each index in [0, n) is visited by a ParallelFor.
std::vector<int> VisitCounts(ThreadPool* pool, int64_t n, int64_t grain) {
  std::vector<std::atomic<int>> counts(n);
  for (auto& c : counts) c.store(0);
  pool->ParallelFor(0, n, grain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  std::vector<int> result(n);
  for (int64_t i = 0; i < n; ++i) result[i] = counts[i].load();
  return result;
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  for (int64_t n : {1, 2, 7, 64, 1000}) {
    for (int64_t grain : {1, 3, 8, 100}) {
      const std::vector<int> counts = VisitCounts(&pool, n, grain);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(counts[i], 1) << "n=" << n << " grain=" << grain
                                << " index=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, SerialPoolVisitsEveryIndexOnce) {
  ThreadPool pool(1);
  const std::vector<int> counts = VisitCounts(&pool, 100, 7);
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 0, 8, [&](int64_t, int64_t) { calls.fetch_add(1); });
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, RangeSmallerThanGrainRunsInOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 5, 100, [&](int64_t begin, int64_t end) {
    calls.fetch_add(1);
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(total.load(), 5);
}

TEST(ThreadPoolTest, NonZeroBeginCoversExactRange) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<int64_t> seen;
  pool.ParallelFor(10, 35, 4, [&](int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    for (int64_t i = begin; i < end; ++i) {
      EXPECT_TRUE(seen.insert(i).second) << "index " << i << " visited twice";
    }
  });
  EXPECT_EQ(seen.size(), 25u);
  EXPECT_EQ(*seen.begin(), 10);
  EXPECT_EQ(*seen.rbegin(), 34);
}

TEST(ThreadPoolTest, GrainOneSingleIndexChunks) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 100, 1, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(end - begin, 1);
    sum.fetch_add(begin);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  // Outer loop spans more chunks than workers; each body issues another
  // ParallelFor. Nested calls from workers run inline (possibly as one
  // whole-range chunk), so this must finish and cover all work.
  pool.ParallelFor(0, 16, 1, [&](int64_t outer_begin, int64_t outer_end) {
    for (int64_t o = outer_begin; o < outer_end; ++o) {
      pool.ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) total.fetch_add(i + 1);
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 36);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 64, 1,
                       [&](int64_t begin, int64_t) {
                         if (begin == 17)
                           throw std::runtime_error("boom at 17");
                       }),
      std::runtime_error);
  // The pool must still be usable after an exception.
  const std::vector<int> counts = VisitCounts(&pool, 32, 4);
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, GlobalPoolResizeAndQuery) {
  const int before = GlobalThreads();
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreads(), 3);
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 50, 5, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 1225);
  SetGlobalThreads(before > 0 ? before : 1);
}

TEST(ThreadPoolTest, OnWorkerThreadFalseOnCaller) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(2);
  std::atomic<int> worker_hits{0};
  pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
    if (ThreadPool::OnWorkerThread()) worker_hits.fetch_add(1);
  });
  // The caller participates, so not every chunk runs on a pool worker, but
  // the flag must still be false here afterwards.
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  (void)worker_hits;
}

// GROUPSA_THREADS is read through ParseThreadCount, so the whole-number
// rule is tested here as a pure function: no pool is started.
TEST(ThreadPoolTest, ParseThreadCountTakesWholeWidthsUpToTheCeiling) {
  int n = -1;
  EXPECT_TRUE(ParseThreadCount("4", &n));
  EXPECT_EQ(n, 4);
  EXPECT_TRUE(ParseThreadCount("1", &n));
  EXPECT_EQ(n, 1);
  EXPECT_TRUE(ParseThreadCount(std::to_string(kMaxThreads), &n));
  EXPECT_EQ(n, kMaxThreads);
  const std::string past_ceiling = std::to_string(kMaxThreads + 1);
  for (const std::string& bad :
       {std::string("4x"), std::string("abc"), std::string("-2"),
        std::string("0"), std::string(""), std::string(" 4"),
        std::string("1.5"), past_ceiling, std::string("99999999999")}) {
    n = -1;
    EXPECT_FALSE(ParseThreadCount(bad, &n)) << "'" << bad << "'";
    EXPECT_EQ(n, -1) << "'" << bad << "' wrote the output";
  }
}

// One past the ceiling fails in the constructor before any thread starts,
// so this starts none.
TEST(ThreadPoolDeathTest, ConstructorRejectsOnePastTheCeiling) {
  EXPECT_DEATH({ ThreadPool pool(kMaxThreads + 1); },
               "ThreadPool width [0-9]+ exceeds kMaxThreads");
}

}  // namespace
}  // namespace groupsa::parallel
