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
#include <memory>
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

// The popularity-path probes: a user, a group and an ad-hoc member list,
// each with and without seen-item exclusion.
std::vector<Request> DegradedProbes() {
  std::vector<Request> probes;
  for (const bool exclude_seen : {false, true}) {
    Request user;
    user.kind = Request::Kind::kUser;
    user.user = 3;
    user.k = 8;
    Request group;
    group.kind = Request::Kind::kGroup;
    group.group = 4;
    group.k = 8;
    Request members;
    members.kind = Request::Kind::kMembers;
    members.members = {1, 4, 6};
    members.k = 8;
    for (Request* r : {&user, &group, &members}) {
      r->exclude_seen = exclude_seen;
      probes.push_back(*r);
    }
  }
  return probes;
}

// 64-bit FNV-1a over every answer's item ids and score bits, in order.
uint64_t AnswerDigest(const std::vector<Response>& responses) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const Response& r : responses) {
    for (const auto& [item, score] : r.items) {
      mix(&item, sizeof(item));
      mix(&score, sizeof(score));
    }
  }
  return h;
}

// Every degraded path answers the probes with the same popularity ranking:
// training-interaction counts, count descending then id ascending, with the
// request's seen items skipped. The digest pins those bits. Each answer
// holds storage for its k = 8 entries only, not one per catalog item.
constexpr uint64_t kDegradedDigest = 0x4b3cd7803d9098bcULL;

void ExpectDegradedBits(const std::vector<Response>& responses,
                        const std::string& error) {
  ASSERT_EQ(responses.size(), DegradedProbes().size());
  for (const Response& r : responses) {
    EXPECT_TRUE(r.degraded) << error;
    EXPECT_EQ(r.error, error);
    EXPECT_EQ(r.items.size(), 8u) << error;
    EXPECT_LE(r.items.capacity(), 8u) << error;
  }
  // Each probe's seen items reach into the popularity top 8.
  for (size_t i = 0; i < 3; ++i)
    EXPECT_NE(responses[i].items, responses[i + 3].items) << error;
  EXPECT_EQ(AnswerDigest(responses), kDegradedDigest)
      << error << ": 0x" << std::hex << AnswerDigest(responses);
}

TEST_F(ServerTest, DegradedAnswersKeepTheirPinnedBits) {
  const std::vector<Request> probes = DegradedProbes();
  {
    // Shed: a paused server with its one queue slot taken.
    ServeConfig sc;
    sc.workers = 1;
    sc.queue_depth = 1;
    ServeRig rig(sc);
    ASSERT_TRUE(rig.server->Start().ok());
    rig.server->Pause();
    std::future<Response> queued = rig.server->Submit(probes[0]);
    std::vector<Response> shed;
    for (const Request& probe : probes) shed.push_back(rig.server->Call(probe));
    for (const Response& r : shed) EXPECT_TRUE(r.shed);
    ExpectDegradedBits(shed, "admission queue full");
    rig.server->Resume();
    EXPECT_FALSE(queued.get().degraded);
    rig.server->Stop();
  }
  {
    // Injected worker fault on every model attempt.
    ServeConfig sc;
    ServeRig rig(sc);
    ASSERT_TRUE(rig.server->Start().ok());
    ASSERT_TRUE(failpoint::Arm("serve.worker=error"));
    std::vector<Response> faulted;
    for (const Request& probe : probes)
      faulted.push_back(rig.server->Call(probe));
    failpoint::DisarmAll();
    ExpectDegradedBits(faulted, "injected fault at serve.worker");
    rig.server->Stop();
  }
  {
    // Open breaker: one hard fault trips it, and it stays open for far
    // longer than the probes take.
    ServeConfig sc;
    sc.breaker.enabled = true;
    sc.breaker.window = 4;
    sc.breaker.threshold = 1;
    sc.breaker.open_ticks = 1000;
    ServeRig rig(sc);
    ASSERT_TRUE(rig.server->Start().ok());
    Request trip = probes[0];
    trip.chaos.fault_attempts = 255;
    EXPECT_TRUE(rig.server->Call(trip).degraded);
    std::vector<Response> blocked;
    for (const Request& probe : probes)
      blocked.push_back(rig.server->Call(probe));
    ExpectDegradedBits(blocked, "circuit breaker open");
    rig.server->Stop();
  }
  {
    // A generation without a model.
    ServeConfig sc;
    ServeRig rig(sc, /*factory_yields_null_model=*/true);
    ASSERT_TRUE(rig.server->Start().ok());
    std::vector<Response> unavailable;
    for (const Request& probe : probes)
      unavailable.push_back(rig.server->Call(probe));
    ExpectDegradedBits(unavailable, "model unavailable");
    rig.server->Stop();
  }
}

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
    // The model path's answer is k-sized too, not catalog-sized.
    EXPECT_LE(response.items.capacity(), static_cast<size_t>(request.k))
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

// Three failed reloads: an injected build fault, a CRC-valid checkpoint
// holding one NaN in the item table, and one whose record count is
// 2^32 - 1. None swaps, and the old generation keeps answering
// byte-identically.
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

  // A CRC-valid checkpoint whose params section claims 2^32 - 1 records
  // fails the reload instead of sizing anything by that count (which
  // aborted the daemon with std::bad_alloc).
  nn::CheckpointWriter huge_count;
  huge_count.AddSection("params", std::string(4, '\xff'));
  const std::string huge_path =
      std::string(::testing::TempDir()) + "/serve_huge_count.ckpt";
  ASSERT_TRUE(huge_count.Commit(huge_path).ok());
  const Status huge = rig.server->Reload(huge_path);
  EXPECT_FALSE(huge.ok());
  EXPECT_NE(huge.message().find("of 4294967295"), std::string::npos)
      << huge.message();
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
  EXPECT_EQ(stats.failed_reloads, 3);
}

// The rig's model, or for the checkpoint "wider" one with a user more than
// the world the server validates requests against.
Server::ModelFactory WiderOnRequest(const ServeRig& rig) {
  return [&rig](const std::string& path,
                std::unique_ptr<core::GroupSaModel>* out) {
    const data::Dataset& d = rig.fixture.world.dataset;
    Rng rng(ServeRig::kModelSeed);
    *out = std::make_unique<core::GroupSaModel>(
        rig.config, d.num_users + (path == "wider" ? 1 : 0), d.num_items,
        rig.fixture.model_data, &rng);
    return Status::Ok();
  };
}

std::unique_ptr<Server> RigWorldServer(const ServeRig& rig,
                                       Server::ModelFactory factory,
                                       const std::string& checkpoint) {
  const core::testing::TinyFixture& f = rig.fixture;
  return std::make_unique<Server>(
      ServeConfig(), std::move(factory), checkpoint, f.ui.train,
      f.world.dataset.num_users, f.world.dataset.groups.num_groups(),
      f.world.dataset.num_items, &f.ui_train, &f.gi_train);
}

TEST_F(ServerTest, ModelWithOtherIdSpacesFailsStart) {
  ServeRig rig(ServeConfig{});
  auto server = RigWorldServer(rig, WiderOnRequest(rig), "wider");
  const Status s = server->Start();
  ASSERT_FALSE(s.ok());
  const int users = rig.fixture.world.dataset.num_users;
  EXPECT_NE(s.message().find("model has " + std::to_string(users + 1) +
                             " users"),
            std::string::npos)
      << s.message();
  EXPECT_FALSE(server->running());
  EXPECT_EQ(server->generation(), 0u);
}

TEST_F(ServerTest, ReloadOfModelWithOtherIdSpacesKeepsTheOldGeneration) {
  ServeRig rig(ServeConfig{});
  auto server = RigWorldServer(rig, WiderOnRequest(rig), ServeRig::kInMemory);
  ASSERT_TRUE(server->Start().ok());
  Request request;
  request.kind = Request::Kind::kUser;
  request.user = rig.fixture.world.dataset.num_users - 1;
  request.k = 5;

  const Status s = server->Reload("wider");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("serve reload"), std::string::npos)
      << s.message();
  EXPECT_EQ(server->generation(), 1u);
  const Response r = server->Call(request);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.generation, 1u);
  EXPECT_TRUE(BitIdenticalItems(r.items, rig.Direct(request)));
  server->Stop();
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.reloads, 0);
  EXPECT_EQ(stats.failed_reloads, 1);
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
