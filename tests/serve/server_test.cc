// Serving daemon behavior: request pipeline parity against direct
// InferenceEngine calls, admission control (shed and reject policies),
// failpoint-driven degradation, hot reload semantics, and
// drain-on-shutdown. The stress/soak suite lives in stress_test.cc; this
// file pins down each mechanism deterministically.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "nn/checkpoint.h"
#include "serve/harness.h"
#include "serve_test_util.h"

namespace groupsa::serve {
namespace {

using serve::testing::ServeRig;

bool BitIdenticalItems(
    const std::vector<std::pair<data::ItemId, double>>& a,
    const std::vector<std::pair<data::ItemId, double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
    if (std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return false;
  }
  return true;
}

class ServerTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(ServerTest, PipelineMatchesDirectEngineBitForBit) {
  ServeConfig sc;
  sc.workers = 2;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());

  const std::vector<Request> schedule =
      BuildSchedule(rig.Schedule(/*num_requests=*/40, /*seed=*/3));
  for (const Request& request : schedule) {
    const Response response = rig.server->Call(request);
    EXPECT_FALSE(response.degraded);
    EXPECT_FALSE(response.shed);
    EXPECT_FALSE(response.rejected);
    EXPECT_EQ(response.generation, 1u);
    EXPECT_TRUE(BitIdenticalItems(response.items, rig.Direct(request)))
        << FormatRequest(request);
  }
  rig.server->Stop();
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.submitted, 40);
  EXPECT_EQ(stats.admitted, 40);
  EXPECT_EQ(stats.completed, 40);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.degraded, 0);
}

TEST_F(ServerTest, PausedServerShedsBeyondQueueDepthAndDrainsOnResume) {
  ServeConfig sc;
  sc.workers = 1;
  sc.queue_depth = 3;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  rig.server->Pause();

  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 1;
  request.k = 4;
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 3; ++i) queued.push_back(rig.server->Submit(request));

  // Depth 3 reached: the fourth submit sheds to popularity on this thread.
  const Response shed = rig.server->Call(request);
  EXPECT_TRUE(shed.shed);
  EXPECT_TRUE(shed.degraded);
  EXPECT_EQ(shed.error, "admission queue full");
  ASSERT_EQ(shed.items.size(), 4u);

  // Queued requests are parked, not answered.
  for (auto& f : queued)
    EXPECT_EQ(f.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);

  rig.server->Resume();
  for (auto& f : queued) {
    const Response r = f.get();
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(BitIdenticalItems(r.items, rig.Direct(request)));
  }
  rig.server->Stop();
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.peak_queue_depth, 3);
}

TEST_F(ServerTest, RejectPolicyAnswersWithoutRanking) {
  ServeConfig sc;
  sc.workers = 1;
  sc.queue_depth = 1;
  sc.overload = ServeConfig::OverloadPolicy::kReject;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  rig.server->Pause();

  Request request;
  request.kind = Request::Kind::kGroup;
  request.group = 0;
  request.k = 2;
  std::future<Response> queued = rig.server->Submit(request);
  const Response rejected = rig.server->Call(request);
  EXPECT_TRUE(rejected.rejected);
  EXPECT_FALSE(rejected.shed);
  EXPECT_TRUE(rejected.items.empty());
  EXPECT_EQ(rejected.error, "admission queue full");

  rig.server->Resume();
  EXPECT_FALSE(queued.get().degraded);
  rig.server->Stop();
  EXPECT_EQ(rig.server->stats().rejected, 1);
}

TEST_F(ServerTest, WorkerFailpointDegradesThatResponseOnly) {
  ServeConfig sc;
  sc.workers = 1;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_TRUE(failpoint::Arm("serve.worker=error@2"));

  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 2;
  request.k = 3;
  const Response first = rig.server->Call(request);
  EXPECT_FALSE(first.degraded);

  const Response second = rig.server->Call(request);
  EXPECT_TRUE(second.degraded);
  EXPECT_FALSE(second.shed);
  EXPECT_EQ(second.error, "injected fault at serve.worker");
  ASSERT_EQ(second.items.size(), 3u);  // popularity still ranks

  const Response third = rig.server->Call(request);
  EXPECT_FALSE(third.degraded);
  EXPECT_TRUE(BitIdenticalItems(third.items, rig.Direct(request)));
  rig.server->Stop();
  EXPECT_EQ(rig.server->stats().degraded, 1);
  EXPECT_EQ(rig.server->stats().completed, 3);
}

TEST_F(ServerTest, SubmitFailpointRejectsBeforeTheQueue) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_TRUE(failpoint::Arm("serve.submit=error@1"));

  Request request;
  const Response r = rig.server->Call(request);
  EXPECT_TRUE(r.rejected);
  EXPECT_EQ(r.error, "injected fault at serve.submit");
  rig.server->Stop();
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.admitted, 0);
}

TEST_F(ServerTest, ReloadSwapsGenerationWithIdenticalScores) {
  ServeConfig sc;
  sc.workers = 2;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  EXPECT_EQ(rig.server->generation(), 1u);

  Request request;
  request.kind = Request::Kind::kMembers;
  request.members = {1, 3, 5};
  request.k = 5;
  const Response before = rig.server->Call(request);
  ASSERT_TRUE(rig.server->Reload("<in-memory>").ok());
  EXPECT_EQ(rig.server->generation(), 2u);
  const Response after = rig.server->Call(request);

  EXPECT_EQ(before.generation, 1u);
  EXPECT_EQ(after.generation, 2u);
  // The factory rebuilds identical parameters, so the swap must be
  // invisible in the scores: bit-identical across generations.
  EXPECT_TRUE(BitIdenticalItems(before.items, after.items));
  rig.server->Stop();
  EXPECT_EQ(rig.server->stats().reloads, 1);
}

// Two failed reloads: an injected build fault, then a CRC-valid checkpoint
// holding one NaN in the item table. Neither swaps, and the old generation
// keeps answering byte-identically.
TEST_F(ServerTest, FailedReloadKeepsTheOldGenerationServing) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  const std::vector<Request> probes =
      BuildSchedule(rig.Schedule(/*num_requests=*/12, /*seed=*/5));
  std::vector<Response> before;
  for (const Request& probe : probes) before.push_back(rig.server->Call(probe));

  ASSERT_TRUE(failpoint::Arm("serve.reload.build=error"));
  EXPECT_FALSE(rig.server->Reload(ServeRig::kInMemory).ok());
  failpoint::DisarmAll();

  const auto poisoned =
      rig.fixture.MakeModel(rig.config, ServeRig::kModelSeed);
  const std::vector<nn::ParamEntry> params = poisoned->Parameters();
  const auto item_table =
      std::find_if(params.begin(), params.end(), [](const nn::ParamEntry& p) {
        return p.name.find("item_emb") != std::string::npos;
      });
  ASSERT_NE(item_table, params.end());
  item_table->tensor->mutable_value().At(1, 0) =
      std::numeric_limits<float>::quiet_NaN();
  const std::string path =
      std::string(::testing::TempDir()) + "/serve_nan_item.ckpt";
  ASSERT_TRUE(nn::SaveParameters(params, path).ok());
  const Status s = rig.server->Reload(path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("non-finite value in parameter " +
                             item_table->name),
            std::string::npos)
      << s.message();
  EXPECT_EQ(rig.server->generation(), 1u);

  for (size_t i = 0; i < probes.size(); ++i) {
    const Response r = rig.server->Call(probes[i]);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.generation, 1u);
    EXPECT_TRUE(BitIdenticalItems(r.items, before[i].items))
        << FormatRequest(probes[i]);
  }
  rig.server->Stop();
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.reloads, 0);
  EXPECT_EQ(stats.failed_reloads, 2);
}

TEST_F(ServerTest, NullModelGenerationServesPopularityOnly) {
  ServeConfig sc;
  ServeRig rig(sc, /*factory_yields_null_model=*/true);
  ASSERT_TRUE(rig.server->Start().ok());

  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 1;
  request.k = 5;
  const Response r = rig.server->Call(request);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.error, "model unavailable");
  EXPECT_EQ(r.items.size(), 5u);
  rig.server->Stop();
  EXPECT_EQ(rig.server->stats().degraded, 1);
}

TEST_F(ServerTest, StopDrainsQueuedRequestsAndLaterSubmitsReject) {
  ServeConfig sc;
  sc.workers = 1;
  sc.queue_depth = 8;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  rig.server->Pause();

  Request request;
  request.kind = Request::Kind::kGroup;
  request.group = 1;
  request.k = 3;
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 5; ++i) queued.push_back(rig.server->Submit(request));

  // Stop() must answer all five (drain), not drop them.
  rig.server->Stop();
  for (auto& f : queued) {
    const Response r = f.get();
    EXPECT_FALSE(r.rejected);
    EXPECT_TRUE(BitIdenticalItems(r.items, rig.Direct(request)));
  }

  const Response late = rig.server->Call(request);
  EXPECT_TRUE(late.rejected);
  EXPECT_EQ(late.error, "server not running");

  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.admitted, 5);
  EXPECT_EQ(stats.completed, 5);
  EXPECT_EQ(stats.rejected, 1);
}

TEST_F(ServerTest, InvalidRequestIsRejectedAtTheDoorWithAReason) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());

  Request request;
  request.kind = Request::Kind::kUser;
  request.user = 999999;  // far out of range
  request.k = 4;
  const Response r = rig.server->Call(request);
  EXPECT_TRUE(r.rejected);
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.items.empty());
  EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.invalid, 1);
  EXPECT_EQ(stats.rejected, 1);
  rig.server->Stop();
}

TEST_F(ServerTest, ScheduleIsDeterministicPerSeed) {
  ServeConfig sc;
  ServeRig rig(sc);
  const ScheduleConfig a = rig.Schedule(50, 9);
  const std::vector<Request> one = BuildSchedule(a);
  const std::vector<Request> two = BuildSchedule(a);
  ASSERT_EQ(one.size(), two.size());
  for (size_t i = 0; i < one.size(); ++i)
    EXPECT_EQ(FormatRequest(one[i]), FormatRequest(two[i]));

  ScheduleConfig b = a;
  b.seed = 10;
  const std::vector<Request> other = BuildSchedule(b);
  bool any_different = false;
  for (size_t i = 0; i < one.size(); ++i)
    any_different = any_different ||
                    FormatRequest(one[i]) != FormatRequest(other[i]);
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace groupsa::serve
