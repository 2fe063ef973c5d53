// ScoreMode::kInt8 end-to-end suite: ranking quality of the int8 scan +
// exact FP32 re-rank against the exact path (HR@10 / NDCG@10 within 1%),
// the >= 3.5x representation-cache memory gate, value-version invalidation
// of the quantized tables after real optimizer steps, composition with
// TopKMode::kIvf and determinism across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/inference_engine.h"
#include "core/item_index.h"
#include "core/test_fixtures.h"
#include "core/topk.h"
#include "core/trainer.h"
#include "data/synthetic.h"

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

// The engine-test ablation corners: full model, Group-A (no user modeling),
// Group-I (latent table falls back to the item embedding) and the untied
// variant — each takes a different tower path through the int8 linearized
// scan.
std::vector<GroupSaConfig> AblationConfigs() {
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
  return configs;
}

void AtThreads(const std::function<void()>& body) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    parallel::SetGlobalThreads(threads);
    body();
  }
  parallel::SetGlobalThreads(1);
}

bool SameList(const std::vector<std::pair<data::ItemId, double>>& a,
              const std::vector<std::pair<data::ItemId, double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
    if (std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return false;
  }
  return true;
}

// A medium seeded world (600 items) so the int8 scan has room to miss.
struct World {
  data::SyntheticWorld world;
  data::Split ui;
  data::Split gi;
  data::InteractionMatrix ui_train;
  data::InteractionMatrix gi_train;
  ModelData model_data;
  std::unique_ptr<GroupSaModel> model;

  explicit World(const GroupSaConfig& config) {
    data::SyntheticWorldConfig wc = data::SyntheticWorldConfig::Tiny();
    wc.name = "int8";
    wc.num_users = 150;
    wc.num_items = 600;
    wc.num_groups = 60;
    world = data::GenerateWorld(wc);
    Rng rng(5);
    ui = data::SplitEdges(world.dataset.user_item, 0.2, 0.0, &rng);
    gi = data::GlobalSplitEdges(world.dataset.group_item, 0.2, 0.0, &rng);
    ui_train = data::InteractionMatrix(world.dataset.num_users,
                                       world.dataset.num_items, ui.train);
    gi_train = data::InteractionMatrix(world.dataset.groups.num_groups(),
                                       world.dataset.num_items, gi.train);
    model_data.groups = &world.dataset.groups;
    model_data.social = &world.dataset.social;
    model_data.top_items = data::TopItemsPerUser(ui_train, config.top_h);
    model_data.top_friends =
        data::TopFriendsPerUser(world.dataset.social, config.top_h);
    Rng model_rng(11);
    model = std::make_unique<GroupSaModel>(config, world.dataset.num_users,
                                           world.dataset.num_items,
                                           model_data, &model_rng);
  }
};

// Leave-one-out HR@10 / NDCG@10 over the held-out user-item test edges: the
// positive's rank inside the top-10 recommendation list with train items
// excluded. The same protocol runs under both score modes, so the metric
// deltas isolate the int8 approximation.
struct Metrics {
  double hr = 0.0;
  double ndcg = 0.0;
  int cases = 0;
};

Metrics RankingMetrics(InferenceEngine& engine, const World& w) {
  Metrics m;
  for (const auto& edge : w.ui.test) {
    const auto top = engine.RecommendForUser(edge.row, 10, &w.ui_train);
    for (size_t rank = 0; rank < top.size(); ++rank) {
      if (top[rank].first != edge.item) continue;
      m.hr += 1.0;
      m.ndcg += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
      break;
    }
    ++m.cases;
  }
  if (m.cases > 0) {
    m.hr /= m.cases;
    m.ndcg /= m.cases;
  }
  return m;
}

TEST(Int8ModeTest, RankingQualityWithinOnePercentOfExact) {
  const GroupSaConfig config = SmallConfig();
  World w(config);
  InferenceEngine& engine = w.model->inference();

  engine.set_score_mode(ScoreMode::kExact);
  const Metrics exact = RankingMetrics(engine, w);
  engine.set_score_mode(ScoreMode::kInt8);
  const Metrics int8 = RankingMetrics(engine, w);

  ASSERT_GE(exact.cases, 200) << "world too small for a stable gate";
  // 1% relative with an absolute floor so a tiny exact metric cannot make
  // the gate vacuous or impossibly strict.
  const double hr_eps = std::max(0.01 * exact.hr, 0.002);
  const double ndcg_eps = std::max(0.01 * exact.ndcg, 0.002);
  EXPECT_NEAR(int8.hr, exact.hr, hr_eps);
  EXPECT_NEAR(int8.ndcg, exact.ndcg, ndcg_eps);
}

TEST(Int8ModeTest, DeterministicAcrossThreadCountsAndRepeats) {
  for (const GroupSaConfig& config : AblationConfigs()) {
    SCOPED_TRACE(config.variant);
    const TinyFixture f = TinyFixture::Make(config);
    auto model = f.MakeModel(config);
    InferenceEngine& engine = model->inference();
    engine.set_score_mode(ScoreMode::kInt8);
    const auto user_ref = engine.RecommendForUser(1, 10, nullptr);
    const auto group_ref = engine.RecommendForGroup(2, 10, nullptr);
    const auto members_ref =
        engine.RecommendForMembers({0, 3, 5}, 10, nullptr);
    ASSERT_EQ(user_ref.size(), 10u);
    ASSERT_EQ(group_ref.size(), 10u);
    ASSERT_EQ(members_ref.size(), 10u);
    AtThreads([&] {
      EXPECT_TRUE(SameList(user_ref, engine.RecommendForUser(1, 10, nullptr)));
      EXPECT_TRUE(
          SameList(group_ref, engine.RecommendForGroup(2, 10, nullptr)));
      EXPECT_TRUE(SameList(members_ref,
                           engine.RecommendForMembers({0, 3, 5}, 10, nullptr)));
    });
  }
}

TEST(Int8ModeTest, RerankKCoveringTheCatalogReproducesExactTopTen) {
  // With rerank_k >= catalog size every candidate goes through the exact
  // re-rank, so int8 mode degenerates to the exact ranking over the
  // dequantized cached rep — the top-10 item sets must coincide with the
  // exact path's for almost every user (the reps differ only by bounded
  // quantization error).
  const GroupSaConfig config = SmallConfig();
  World w(config);
  InferenceEngine& engine = w.model->inference();
  Int8Config int8;
  int8.rerank_k = w.model->num_items();
  engine.set_int8_config(int8);

  int agree = 0;
  const int users = 30;
  for (data::UserId u = 0; u < users; ++u) {
    engine.set_score_mode(ScoreMode::kExact);
    const auto exact = engine.RecommendForUser(u, 10, nullptr);
    engine.set_score_mode(ScoreMode::kInt8);
    const auto quant = engine.RecommendForUser(u, 10, nullptr);
    std::set<data::ItemId> want;
    for (const auto& [item, score] : exact) want.insert(item);
    int hit = 0;
    for (const auto& [item, score] : quant) hit += want.count(item) ? 1 : 0;
    agree += hit;
  }
  EXPECT_GE(static_cast<double>(agree) / (10.0 * users), 0.95);
}

TEST(Int8ModeTest, MemoryAtLeastThreeAndAHalfTimesSmallerThanFp32) {
  // The ratio is (4d) / (d + 4) per cached row, so the 3.5x gate is a
  // statement about the model's real embedding width (d = 32 -> 3.55x); the
  // other tests shrink d for speed, this one must not.
  GroupSaConfig config = SmallConfig();
  config.embedding_dim = 32;
  World w(config);
  InferenceEngine& engine = w.model->inference();
  engine.set_score_mode(ScoreMode::kInt8);
  for (data::UserId u = 0; u < 100; ++u)
    engine.RecommendForUser(u, 10, nullptr);
  ASSERT_EQ(engine.cached_quant_users(), 100u);
  // int8 mode must not warm the FP32 rep cache — that is the memory win.
  EXPECT_EQ(engine.cached_users(), 0u);
  const double quant = static_cast<double>(engine.QuantUserCacheBytes());
  const double fp32 = static_cast<double>(engine.Fp32UserCacheBytes());
  ASSERT_GT(quant, 0.0);
  EXPECT_GE(fp32 / quant, 3.5);
}

TEST(Int8ModeTest, TrainerEpochInvalidatesQuantizedState) {
  const GroupSaConfig config = SmallConfig();
  TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  InferenceEngine& engine = model->inference();
  engine.set_score_mode(ScoreMode::kInt8);

  const auto state_before = engine.GetQuantState();
  const auto rec_before = engine.RecommendForUser(0, 10, nullptr);
  EXPECT_GT(engine.cached_quant_users(), 0u);
  // Stable parameters: the state pointer is reused.
  EXPECT_EQ(engine.GetQuantState().get(), state_before.get());

  // Real gradients, real Adam steps.
  Rng rng(7);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  trainer.RunGroupEpoch();

  // The version bump must drop the quantized tables AND the quantized rep
  // caches, and the rebuilt state must rank with the new parameters.
  const auto state_after = engine.GetQuantState();
  EXPECT_NE(state_after.get(), state_before.get());
  EXPECT_EQ(engine.cached_quant_users(), 0u);
  const auto rec_after = engine.RecommendForUser(0, 10, nullptr);
  EXPECT_FALSE(SameList(rec_after, rec_before));
}

TEST(Int8ModeTest, ComposesWithIvfFullProbeIdentically) {
  // nprobe = nlist makes the IVF candidate union the whole catalog, so
  // int8+IVF must return exactly what plain int8 returns (the subset-scan
  // total order is candidate-order independent).
  const GroupSaConfig config = SmallConfig();
  World w(config);
  InferenceEngine& engine = w.model->inference();
  engine.set_score_mode(ScoreMode::kInt8);

  const auto user_plain = engine.RecommendForUser(3, 10, nullptr);
  const auto group_plain = engine.RecommendForGroup(4, 10, nullptr);

  ItemIndexConfig index_config;
  index_config.nlist = 16;
  index_config.nprobe = 16;
  engine.set_index_config(index_config);
  engine.set_topk_mode(TopKMode::kIvf);
  EXPECT_TRUE(SameList(user_plain, engine.RecommendForUser(3, 10, nullptr)));
  EXPECT_TRUE(SameList(group_plain, engine.RecommendForGroup(4, 10, nullptr)));

  // A genuinely approximate probe still returns most of the int8 top-10.
  index_config.nprobe = 4;
  engine.set_index_config(index_config);
  std::set<data::ItemId> want;
  for (const auto& [item, score] : user_plain) want.insert(item);
  int hit = 0;
  for (const auto& [item, score] : engine.RecommendForUser(3, 10, nullptr))
    hit += want.count(item) ? 1 : 0;
  EXPECT_GE(hit, 7);
}

}  // namespace
}  // namespace groupsa::core
