#include "measure.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(NearestRankTest, PicksTheSmallestSampleCoveringTheShare) {
  const Quantile p50 = NearestRank(Range(100), 0.50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.beyond, 50);
  EXPECT_EQ(NearestRank(Range(100), 1.0).value, 100);
  EXPECT_EQ(NearestRank(Range(100), 0.001).value, 1);
  EXPECT_EQ(Median({7}), 7);
  EXPECT_EQ(NearestRank({}, 0.5).samples, 0);
}

TEST(NearestRankTest, FlagsATailWithFewerThanTenSamplesBeyondIt) {
  const Quantile thin = NearestRank(Range(100), 0.99);
  EXPECT_EQ(thin.value, 99);
  EXPECT_EQ(thin.beyond, 1);
  EXPECT_FALSE(thin.supported());

  const Quantile backed = NearestRank(Range(1000), 0.99);
  EXPECT_EQ(backed.value, 990);
  EXPECT_EQ(backed.beyond, 10);
  EXPECT_TRUE(backed.supported());
}

TEST(PoissonArrivalsTest, IsAPureFunctionOfTheSeed) {
  EXPECT_EQ(PoissonArrivals(42, 500.0, 1000), PoissonArrivals(42, 500.0, 1000));
  EXPECT_NE(PoissonArrivals(42, 500.0, 1000), PoissonArrivals(43, 500.0, 1000));
  EXPECT_NE(MixSeed(42, 1), MixSeed(42, 2));
}

TEST(PoissonArrivalsTest, ArrivesInOrderAtTheRequestedRate) {
  const int n = 20000;
  const std::vector<double> a = PoissonArrivals(7, 250.0, n);
  ASSERT_EQ(a.size(), static_cast<size_t>(n));
  for (int i = 1; i < n; ++i) ASSERT_GE(a[i], a[i - 1]);
  EXPECT_NEAR(n / a.back(), 250.0, 250.0 * 0.03);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfClippedChildren) {
  SpanRecorder rec(true);
  const int parent = rec.Open("parent", 3, -1, 0);
  rec.Add("a", 3, parent, 10, 30);
  rec.Add("b", 3, parent, 20, 50);    // overlaps a: counted once
  rec.Add("c", 3, parent, 90, 120);   // clipped to the parent's end
  rec.Close(parent, 100);
  rec.Add("other", 4, -1, 0, 40);
  const std::vector<int64_t> self = SelfTimesNs(rec.spans());
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 40);
}

TEST(SpanTest, RemainderIsTheParentMinusItsChildren) {
  // The decomposed-engine shape: scan then select back to back, plus a gap.
  SpanRecorder rec(true);
  const int parent = rec.Open("core.engine.decomposed", 0, -1, 1000);
  rec.Add("core.engine.scan", 0, parent, 1000, 1700);
  rec.Add("core.topk.select", 0, parent, 1750, 1950);
  rec.Close(parent, 2000);
  EXPECT_EQ(SelfTimesNs(rec.spans())[0], 100);
}

TEST(SpanTest, DisabledRecorderKeepsNothing) {
  SpanRecorder rec(false);
  EXPECT_EQ(rec.Add("x", 0, -1, 0, 1), -1);
  EXPECT_EQ(rec.Open("y", 0, -1, 0), -1);
  rec.Close(-1, 5);
  EXPECT_TRUE(rec.spans().empty());
}

TEST(OpenLoopTest, OutOfOrderCompletionsAreTimedAtTheirOwnCompletion) {
  using std::chrono::milliseconds;
  // Request 0 takes 120 ms, request 1 (sent 1 ms later) takes 5 ms. A
  // waiter that read futures in order would charge request 1 ~120 ms.
  const std::vector<double> arrivals = {0.0, 0.001};
  const std::vector<int> service_ms = {120, 5};
  OpenLoopTiming timing;
  const std::vector<int> got = RunOpenLoop<int>(
      arrivals,
      [&](size_t i) {
        const int ms = service_ms[i];
        return std::async(std::launch::async, [ms, i] {
          std::this_thread::sleep_for(milliseconds(ms));
          return static_cast<int>(i);
        });
      },
      50, &timing);
  EXPECT_EQ(got, (std::vector<int>{0, 1}));
  EXPECT_GE(timing.LatencyMs(0), 120.0);
  EXPECT_GE(timing.LatencyMs(1), 5.0);
  EXPECT_LT(timing.LatencyMs(1), 60.0);
  EXPECT_GT(timing.completed_ns[0], timing.completed_ns[1]);
  EXPECT_FALSE(timing.sweep_gap_ms.empty());
}

TEST(OpenLoopTest, LatencyCountsFromTheScheduledSend) {
  // The submit call itself stalls 30 ms: the request due at 0 ms is charged
  // the stall, and the one due at 1 ms, sent late, is charged its lag.
  const std::vector<double> arrivals = {0.0, 0.001};
  OpenLoopTiming timing;
  RunOpenLoop<int>(
      arrivals,
      [](size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
        std::promise<int> done;
        done.set_value(0);
        return done.get_future();
      },
      50, &timing);
  EXPECT_GE(timing.LatencyMs(0), 30.0);
  EXPECT_GE(timing.SendLagMs(1), 25.0);
  EXPECT_GE(timing.LatencyMs(1), 25.0);
  EXPECT_GE(timing.SubmitUs(0), 30000.0);
}

TEST(OpenLoopTest, AThrowingSubmitEndsThePhaseAndRethrows) {
  const std::vector<double> arrivals = {0.0, 0.001, 0.002, 0.003};
  OpenLoopTiming timing;
  EXPECT_THROW(RunOpenLoop<int>(
                   arrivals,
                   [](size_t i) {
                     if (i == 2) throw std::runtime_error("submit failed");
                     std::promise<int> done;
                     done.set_value(static_cast<int>(i));
                     return done.get_future();
                   },
                   50, &timing),
               std::runtime_error);
  EXPECT_GT(timing.completed_ns[1], 0);
}

}  // namespace
}  // namespace perfbench
