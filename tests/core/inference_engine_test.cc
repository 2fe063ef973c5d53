#include "core/inference_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/test_fixtures.h"
#include "core/topk.h"
#include "core/trainer.h"
#include "nn/checkpoint.h"

namespace groupsa::core {
namespace {

using core::testing::TinyFixture;

GroupSaConfig SmallConfig() {
  GroupSaConfig c = GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  return c;
}

// The ablation corners exercise every tower-selection branch of the engine:
// full model (latent blend + separate tower), Group-A (no user modeling, no
// blend), Group-I (latent falls back to the shared item embedding), and a
// fully untied variant (own group tower, own latent spaces, shared latent
// tower).
std::vector<GroupSaConfig> ParityConfigs() {
  std::vector<GroupSaConfig> configs;
  configs.push_back(SmallConfig());
  {
    GroupSaConfig c = GroupSaConfig::GroupA();
    c.embedding_dim = 8;
    c.attention_hidden = 8;
    c.ffn_hidden = 8;
    c.predictor_hidden = {8};
    c.fusion_hidden = {8};
    configs.push_back(c);
  }
  {
    GroupSaConfig c = GroupSaConfig::GroupI();
    c.embedding_dim = 8;
    c.attention_hidden = 8;
    c.ffn_hidden = 8;
    c.predictor_hidden = {8};
    c.fusion_hidden = {8};
    configs.push_back(c);
  }
  {
    GroupSaConfig c = SmallConfig();
    c.share_predictors = false;
    c.separate_latent_tower = false;
    c.tie_latent_spaces = false;
    c.use_enhanced_member_reps = true;
    configs.push_back(c);
  }
  {
    // Attention wider than the engine's fused-loop cap (128) so the buffered
    // Gemm fallback inside ScoreBatchGroup is exercised too.
    GroupSaConfig c = SmallConfig();
    c.attention_hidden = 144;
    configs.push_back(c);
  }
  return configs;
}

std::vector<data::ItemId> Catalog(int n) { return AllItems(n); }

// Runs `body` at pool widths 1 and 4, restoring the serial default after.
// The 0-ULP contract must hold at every width (tensor::Gemm is bit-stable
// across widths, so per-item and batched agree everywhere or nowhere).
void AtThreads(const std::function<void()>& body) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    parallel::SetGlobalThreads(threads);
    body();
  }
  parallel::SetGlobalThreads(1);
}

TEST(InferenceEngineTest, GroupScoresBitIdenticalToPerItemPath) {
  for (const GroupSaConfig& config : ParityConfigs()) {
    SCOPED_TRACE(config.variant);
    const TinyFixture f = TinyFixture::Make(config);
    auto model = f.MakeModel(config);
    const auto items = Catalog(model->num_items());
    AtThreads([&] {
      for (data::GroupId g : {0, 3, 7}) {
        const auto batched = model->inference().ScoreItemsForGroup(g, items);
        const auto reference = model->ScoreItemsForGroupPerItem(g, items);
        EXPECT_EQ(batched, reference) << "group " << g;
      }
    });
  }
}

TEST(InferenceEngineTest, UserScoresBitIdenticalToPerItemPath) {
  for (const GroupSaConfig& config : ParityConfigs()) {
    SCOPED_TRACE(config.variant);
    const TinyFixture f = TinyFixture::Make(config);
    auto model = f.MakeModel(config);
    const auto items = Catalog(model->num_items());
    AtThreads([&] {
      for (data::UserId u : {0, 5, 11}) {
        const auto batched = model->inference().ScoreItemsForUser(u, items);
        const auto reference = model->ScoreItemsForUserPerItem(u, items);
        EXPECT_EQ(batched, reference) << "user " << u;
      }
    });
  }
}

TEST(InferenceEngineTest, MemberScoresBitIdenticalToPerItemPath) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const auto items = Catalog(model->num_items());
  const std::vector<data::UserId> members = {2, 9, 14};
  AtThreads([&] {
    EXPECT_EQ(model->inference().ScoreItemsForMembers(members, items),
              model->ScoreItemsForMembersPerItem(members, items));
    const auto matrix = model->inference().MemberItemScores(members, items);
    ASSERT_EQ(matrix.size(), members.size());
    for (size_t m = 0; m < members.size(); ++m)
      EXPECT_EQ(matrix[m], model->ScoreItemsForUserPerItem(members[m], items));
  });
}

TEST(InferenceEngineTest, ConcurrentScoringMatchesSerial) {
  // The evaluator fans ranking cases across the pool with grain 1; the
  // engine's shared cache must stay consistent under that pattern.
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const auto items = Catalog(model->num_items());
  const int num_groups = f.world.dataset.groups.num_groups();

  std::vector<std::vector<double>> serial(num_groups);
  for (int g = 0; g < num_groups; ++g)
    serial[g] = model->ScoreItemsForGroupPerItem(g, items);

  parallel::SetGlobalThreads(4);
  model->inference().InvalidateAll();
  std::vector<std::vector<double>> concurrent(num_groups);
  parallel::ParallelFor(0, num_groups, 1, [&](int64_t begin, int64_t end) {
    for (int64_t g = begin; g < end; ++g)
      concurrent[g] =
          model->inference().ScoreItemsForGroup(static_cast<int>(g), items);
  });
  parallel::SetGlobalThreads(1);
  EXPECT_EQ(concurrent, serial);
  EXPECT_EQ(model->inference().cached_groups(),
            static_cast<size_t>(num_groups));
}

TEST(InferenceEngineTest, CacheInvalidatedByOptimizerStep) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const auto items = Catalog(model->num_items());

  const auto before = model->inference().ScoreItemsForGroup(0, items);
  EXPECT_GT(model->inference().cached_groups(), 0u);
  const uint64_t version_before = model->inference().params_version();

  // Real gradients, real Adam steps.
  Rng rng(7);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  trainer.RunGroupEpoch();

  EXPECT_GT(model->inference().params_version(), version_before);
  const auto after = model->inference().ScoreItemsForGroup(0, items);
  // The stale cache must not survive: post-step scores reflect the new
  // parameters (bit-identical to the per-item path and to an engine built
  // fresh after the step) and differ from the pre-step scores.
  EXPECT_EQ(after, model->ScoreItemsForGroupPerItem(0, items));
  InferenceEngine fresh(model.get());
  EXPECT_EQ(after, fresh.ScoreItemsForGroup(0, items));
  EXPECT_NE(after, before);

  const auto user_before = model->inference().ScoreItemsForUser(3, items);
  trainer.RunUserEpoch();
  const auto user_after = model->inference().ScoreItemsForUser(3, items);
  EXPECT_EQ(user_after, model->ScoreItemsForUserPerItem(3, items));
  EXPECT_NE(user_after, user_before);
}

// A checkpoint load writes into the live tensors, so a warmed engine must
// see it through value_version alone: after the load its answers, in every
// retrieval mode, equal a fresh model's loaded from the same file.
TEST(InferenceEngineTest, LoadIntoWarmedEngineMatchesFreshModel) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  const std::string path =
      std::string(::testing::TempDir()) + "/engine_warm_load.ckpt";
  ASSERT_TRUE(
      nn::SaveParameters(f.MakeModel(config, 21)->Parameters(), path).ok());

  struct Mode {
    TopKMode topk;
    ScoreMode score;
  };
  const Mode modes[] = {{TopKMode::kExact, ScoreMode::kExact},
                        {TopKMode::kIvf, ScoreMode::kExact},
                        {TopKMode::kExact, ScoreMode::kInt8},
                        {TopKMode::kIvf, ScoreMode::kInt8}};
  auto answers = [&](GroupSaModel* model) {
    std::vector<InferenceEngine::Ranking> out;
    InferenceEngine& engine = model->inference();
    ItemIndexConfig index;
    index.nlist = 4;
    engine.set_index_config(index);
    for (const Mode& mode : modes) {
      engine.set_topk_mode(mode.topk);
      engine.set_score_mode(mode.score);
      out.push_back(engine.RecommendForUser(3, 10, nullptr));
      out.push_back(engine.RecommendForGroup(1, 10, nullptr));
      out.push_back(engine.RecommendForMembers({0, 2, 5}, 10, nullptr));
    }
    return out;
  };

  auto warmed = f.MakeModel(config);
  const auto before = answers(warmed.get());
  ASSERT_TRUE(nn::LoadParameters(warmed->Parameters(), path).ok());
  auto fresh = f.MakeModel(config, 12);
  ASSERT_TRUE(nn::LoadParameters(fresh->Parameters(), path).ok());
  const auto after = answers(warmed.get());
  EXPECT_EQ(after, answers(fresh.get()));
  EXPECT_NE(after, before);
}

TEST(InferenceEngineTest, RecommendMatchesFullSortReference) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const auto items = Catalog(model->num_items());
  const int k = 10;

  const auto scores = model->ScoreItemsForGroupPerItem(2, items);
  std::vector<std::pair<data::ItemId, double>> reference;
  for (size_t v = 0; v < scores.size(); ++v)
    reference.emplace_back(static_cast<data::ItemId>(v), scores[v]);
  std::sort(reference.begin(), reference.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  reference.resize(k);

  EXPECT_EQ(model->inference().RecommendForGroup(2, k, nullptr), reference);
}

TEST(InferenceEngineTest, RecommendRespectsExcludeMatrix) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);

  const auto top = model->inference().RecommendForGroup(1, 20, &f.gi_train);
  for (const auto& [item, score] : top) EXPECT_FALSE(f.gi_train.Has(1, item));

  const auto user_top = model->inference().RecommendForUser(4, 20, &f.ui_train);
  for (const auto& [item, score] : user_top)
    EXPECT_FALSE(f.ui_train.Has(4, item));
}

TEST(TopKItemsTest, SelectsAndOrdersWithStableTieBreak) {
  const std::vector<double> scores = {0.5, 2.0, 2.0, -1.0, 3.0, 0.5};
  const auto top = TopKItems(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], std::make_pair(data::ItemId{4}, 3.0));
  // Equal scores rank by ascending item id.
  EXPECT_EQ(top[1], std::make_pair(data::ItemId{1}, 2.0));
  EXPECT_EQ(top[2], std::make_pair(data::ItemId{2}, 2.0));
}

TEST(TopKItemsTest, SkipFilterAndShortInputs) {
  const std::vector<double> scores = {0.1, 0.9, 0.4};
  const auto top =
      TopKItems(scores, 5, [](data::ItemId item) { return item == 1; });
  ASSERT_EQ(top.size(), 2u);  // k > survivors: everything kept, sorted
  EXPECT_EQ(top[0].first, 2);
  EXPECT_EQ(top[1].first, 0);
  EXPECT_TRUE(TopKItems(scores, 0).empty());
  EXPECT_TRUE(TopKItems({}, 3).empty());
}

// ---------------- The validation boundary ----------------------------------

class ServingStatusTest : public ::testing::Test {
 protected:
  ServingStatusTest()
      : config_(SmallConfig()),
        f_(TinyFixture::Make(config_)),
        model_(f_.MakeModel(config_)),
        engine_(model_.get()) {}

  GroupSaConfig config_;
  TinyFixture f_;
  std::unique_ptr<GroupSaModel> model_;
  InferenceEngine engine_;
};

TEST_F(ServingStatusTest, InvalidIdsReturnDescriptiveErrors) {
  EXPECT_TRUE(engine_.ValidateRequest(QueryKind::kUser, {4}, 5).ok());
  EXPECT_TRUE(engine_.ValidateRequest(QueryKind::kGroup, {2}, 5).ok());
  EXPECT_TRUE(engine_.ValidateRequest(QueryKind::kMembers, {1, 2}, 5).ok());

  Status s = engine_.ValidateRequest(QueryKind::kUser, {-1}, 5);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("user id -1 out of range"), std::string::npos);

  s = engine_.ValidateRequest(QueryKind::kUser, {model_->num_users()}, 5);
  EXPECT_FALSE(s.ok());

  s = engine_.ValidateRequest(QueryKind::kGroup, {-7}, 5);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("group id -7 out of range"), std::string::npos);

  s = engine_.ValidateRequest(QueryKind::kMembers, {}, 5);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("members list is empty"), std::string::npos);

  s = engine_.ValidateRequest(QueryKind::kMembers, {0, -2}, 5);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("member"), std::string::npos);

  s = engine_.ValidateRequest(QueryKind::kUser, {0}, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("k must be >= 1"), std::string::npos);
}

TEST_F(ServingStatusTest, MemberListsAreValidated) {
  EXPECT_TRUE(engine_.ValidateRequest(QueryKind::kMembers, {0, 1}, 4).ok());

  Status s = engine_.ValidateRequest(QueryKind::kMembers, {0, -1}, 4);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out of range"), std::string::npos);

  s = engine_.ValidateRequest(QueryKind::kMembers, {3, 1, 3}, 4);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "duplicate member id 3");

  EXPECT_FALSE(engine_.ValidateRequest(QueryKind::kMembers, {}, 4).ok());
  EXPECT_FALSE(engine_.ValidateRequest(QueryKind::kMembers, {0}, -2).ok());
}

}  // namespace
}  // namespace groupsa::core
