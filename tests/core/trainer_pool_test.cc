#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.h"
#include "core/test_fixtures.h"
#include "core/trainer.h"
#include "nn/checkpoint.h"

namespace groupsa::core {
namespace {

using core::testing::TinyFixture;

GroupSaConfig PoolConfig(int threads) {
  GroupSaConfig c = GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  c.user_epochs = 2;
  c.group_epochs = 2;
  c.threads = threads;
  return c;
}

std::string TrainAndEncode(int threads, bool pooling) {
  const GroupSaConfig config = PoolConfig(threads);
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(17);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  trainer.set_tensor_pooling(pooling);
  trainer.Fit();
  return nn::EncodeParameters(model->Parameters());
}

// The tentpole guarantee: recycling every per-batch tensor changes nothing
// about the numbers. Pooled and unpooled training produce byte-identical
// parameters, at any thread count.
TEST(TrainerPoolTest, PooledTrainingIsByteIdenticalToUnpooled) {
  const std::string unpooled_t1 = TrainAndEncode(1, /*pooling=*/false);
  const std::string pooled_t1 = TrainAndEncode(1, /*pooling=*/true);
  EXPECT_EQ(pooled_t1, unpooled_t1);

  const std::string pooled_t4 = TrainAndEncode(4, /*pooling=*/true);
  EXPECT_EQ(pooled_t4, unpooled_t1);
}

// The social epoch's graph is shape-uniform (every sample records the same
// op skeleton with the same shapes), so one warm-up epoch must teach every
// lane's pool everything it will ever need: afterwards the created/bytes
// counters stop moving no matter how long training runs.
void ExpectSteadyStateZeroGrowth(int threads) {
  const GroupSaConfig config = PoolConfig(threads);
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(23);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);

  trainer.RunSocialEpoch();  // warm-up: every lane sees every shape
  const ag::TensorPool::Stats warm = trainer.PoolStats();
  EXPECT_GT(warm.tensors_created, 0u);
  EXPECT_EQ(warm.escaped, 0u) << "trainer leaked batch tensors";

  trainer.RunSocialEpoch();
  trainer.RunSocialEpoch();
  const ag::TensorPool::Stats steady = trainer.PoolStats();
  EXPECT_EQ(steady.tensors_created, warm.tensors_created)
      << "steady-state batches allocated fresh tensors";
  EXPECT_EQ(steady.workspaces_created, warm.workspaces_created)
      << "steady-state batches allocated fresh workspaces";
  EXPECT_EQ(steady.bytes, warm.bytes) << "pool kept growing";
  EXPECT_EQ(steady.escaped, 0u);
  EXPECT_GT(steady.tensors_reused, warm.tensors_reused);
}

TEST(TrainerPoolTest, SteadyStateAllocatesNothingSingleThread) {
  ExpectSteadyStateZeroGrowth(1);
}

TEST(TrainerPoolTest, SteadyStateAllocatesNothingFourThreads) {
  ExpectSteadyStateZeroGrowth(4);
}

// One user and one group epoch on the Tiny world at pool width `threads`:
// the pool counters plus how many sinks and lanes the trainer kept.
struct MixedRun {
  ag::TensorPool::Stats pool;
  size_t shards = 0;
  size_t lanes = 0;
};

MixedRun RunMixedEpochs(int threads) {
  const GroupSaConfig config = PoolConfig(threads);
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(31);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  trainer.RunUserEpoch();
  trainer.RunGroupEpoch();
  return {trainer.PoolStats(), trainer.num_shard_contexts(),
          trainer.num_lane_contexts()};
}

// The shard structure — and with it the stream of pool requests — is a pure
// function of the data and the seed, so the number of tensor and workspace
// requests, and of shards ended, does not depend on the thread count. How
// the requests split into fresh allocations and reuses does: each lane's
// pool warms on the shards that lane runs.
TEST(TrainerPoolTest, PoolRequestStreamIsThreadCountInvariant) {
  const ag::TensorPool::Stats t1 = RunMixedEpochs(1).pool;
  const ag::TensorPool::Stats t4 = RunMixedEpochs(4).pool;
  EXPECT_EQ(t1.tensors_created + t1.tensors_reused,
            t4.tensors_created + t4.tensors_reused);
  EXPECT_EQ(t1.workspaces_created + t1.workspaces_reused,
            t4.workspaces_created + t4.workspaces_reused);
  EXPECT_EQ(t1.batches, t4.batches);
  EXPECT_EQ(t1.escaped, 0u);
  EXPECT_EQ(t4.escaped, 0u);
}

// Tapes and pools belong to worker lanes, not shards: one thread keeps one
// pool however many shards a batch has, four threads keep four, and the
// single pool holds less than the four together. Gradient sinks stay one
// per shard at any width.
TEST(TrainerPoolTest, PoolsFollowThePoolWidth) {
  const MixedRun t1 = RunMixedEpochs(1);
  const MixedRun t4 = RunMixedEpochs(4);
  EXPECT_EQ(t1.lanes, 1u);
  EXPECT_EQ(t4.lanes, 4u);
  EXPECT_LT(t1.pool.bytes, t4.pool.bytes);
  EXPECT_EQ(t1.shards, t4.shards);
  EXPECT_GT(t1.shards, t4.lanes);
}

// User/group epochs have data-dependent shapes (member counts, neighbor
// lists), so their pools warm the union of shapes each lane encounters —
// but nothing may leak, and disabling pooling must keep the counters at
// zero.
TEST(TrainerPoolTest, MixedEpochsNeverLeakAndToggleDisablesPooling) {
  const GroupSaConfig config = PoolConfig(1);
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(41);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);

  trainer.set_tensor_pooling(false);
  trainer.RunUserEpoch();
  EXPECT_EQ(trainer.PoolStats().tensors_created, 0u);
  EXPECT_EQ(trainer.PoolStats().batches, 0u);

  trainer.set_tensor_pooling(true);
  trainer.RunUserEpoch();
  trainer.RunGroupEpoch();
  const ag::TensorPool::Stats stats = trainer.PoolStats();
  EXPECT_GT(stats.tensors_created, 0u);
  EXPECT_GT(stats.tensors_reused, 0u);
  EXPECT_EQ(stats.escaped, 0u);
  EXPECT_GT(trainer.num_shard_contexts(), 0u);
}

}  // namespace
}  // namespace groupsa::core
