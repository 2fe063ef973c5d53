// Retrieval-plan suite: pins the top-10 bits of every (config x query kind x
// plan) cell of the one retrieval pipeline, checks the two full-probe
// identities (IVF full probe == exact, IVF+int8 full probe == int8) for
// every query kind, and checks that every cell's answer holds at most k
// entries. Race-labelled so the TSan lane covers the rep cache and
// the IVF / quantized state builds under the thread pool.
//
// Query kinds: a user rep, a cached group's voting-stack rep, an ad-hoc
// member list's voting-stack rep, and the Sec. II-F member average
// (FastGroupRecommender). Plans: exact, IVF (16 lists, 4 probed), int8 and
// IVF + int8. The int8 re-rank keeps 32 survivors, so the shortlist stage
// cuts the candidate set under both int8 plans.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fast_recommender.h"
#include "core/inference_engine.h"
#include "core/item_index.h"
#include "data/synthetic.h"
#include "data/tfidf.h"

namespace groupsa::core {
namespace {

using Ranking = std::vector<std::pair<data::ItemId, double>>;

GroupSaConfig Shrunk(GroupSaConfig c) {
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  return c;
}

struct NamedConfig {
  const char* name;
  GroupSaConfig config;
};

// The int8 suite's four ablation corners (full model, Group-A, Group-I,
// untied towers) plus the wide-attention config that takes the buffered
// attention path instead of the fused kernel.
std::vector<NamedConfig> Configs() {
  std::vector<NamedConfig> configs;
  configs.push_back({"full", Shrunk(GroupSaConfig::Default())});
  configs.push_back({"group-a", Shrunk(GroupSaConfig::GroupA())});
  configs.push_back({"group-i", Shrunk(GroupSaConfig::GroupI())});
  {
    GroupSaConfig c = Shrunk(GroupSaConfig::Default());
    c.share_predictors = false;
    c.separate_latent_tower = false;
    c.tie_latent_spaces = false;
    c.use_enhanced_member_reps = true;
    configs.push_back({"untied", c});
  }
  {
    GroupSaConfig c = Shrunk(GroupSaConfig::Default());
    c.attention_hidden = 144;
    configs.push_back({"wide attention", c});
  }
  return configs;
}

// A 600-item seeded world: large enough that 4 of 16 lists and a
// 32-survivor int8 shortlist both leave most of the catalog out.
struct World {
  data::SyntheticWorld world;
  data::InteractionMatrix ui_train;
  data::InteractionMatrix gi_train;
  ModelData model_data;
  std::unique_ptr<GroupSaModel> model;

  explicit World(const GroupSaConfig& config) {
    data::SyntheticWorldConfig wc = data::SyntheticWorldConfig::Tiny();
    wc.name = "retrieve";
    wc.num_users = 150;
    wc.num_items = 600;
    wc.num_groups = 60;
    world = data::GenerateWorld(wc);
    ui_train = data::InteractionMatrix(world.dataset.num_users,
                                       world.dataset.num_items,
                                       world.dataset.user_item);
    gi_train = data::InteractionMatrix(world.dataset.groups.num_groups(),
                                       world.dataset.num_items,
                                       world.dataset.group_item);
    model_data.groups = &world.dataset.groups;
    model_data.social = &world.dataset.social;
    model_data.top_items = data::TopItemsPerUser(ui_train, config.top_h);
    model_data.top_friends =
        data::TopFriendsPerUser(world.dataset.social, config.top_h);
    Rng rng(11);
    model = std::make_unique<GroupSaModel>(config, world.dataset.num_users,
                                           world.dataset.num_items,
                                           model_data, &rng);
  }
};

constexpr QueryKind kKinds[] = {QueryKind::kUser, QueryKind::kGroup,
                                QueryKind::kMembers, QueryKind::kMemberAverage};
const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kUser: return "user";
    case QueryKind::kGroup: return "group";
    case QueryKind::kMembers: return "members";
    case QueryKind::kMemberAverage: return "member average";
  }
  return "?";
}

struct Plan {
  const char* name;
  TopKMode topk;
  ScoreMode score;
};
constexpr Plan kPlans[] = {
    {"exact", TopKMode::kExact, ScoreMode::kExact},
    {"ivf", TopKMode::kIvf, ScoreMode::kExact},
    {"int8", TopKMode::kExact, ScoreMode::kInt8},
    {"ivf+int8", TopKMode::kIvf, ScoreMode::kInt8},
};

// Sets `plan` on both the engine and the fast recommender, then answers
// one top-10 request of `kind` with train interactions excluded.
Ranking Answer(World& w, FastGroupRecommender& fast, QueryKind kind,
               const Plan& plan) {
  InferenceEngine& engine = w.model->inference();
  engine.set_topk_mode(plan.topk);
  engine.set_score_mode(plan.score);
  fast.set_topk_mode(plan.topk);
  fast.set_score_mode(plan.score);
  const std::vector<data::UserId> members = {1, 4, 9};
  switch (kind) {
    case QueryKind::kUser:
      return engine.RecommendForUser(3, 10, &w.ui_train);
    case QueryKind::kGroup:
      return engine.RecommendForGroup(4, 10, &w.gi_train);
    case QueryKind::kMembers:
      return engine.RecommendForMembers(members, 10, &w.ui_train);
    case QueryKind::kMemberAverage:
      return fast.RecommendForMembers(members, 10, &w.ui_train);
  }
  return {};
}

ItemIndexConfig IndexConfig(int nprobe) {
  ItemIndexConfig config;
  config.nlist = 16;
  config.nprobe = nprobe;
  return config;
}

void Prepare(World& w) {
  InferenceEngine& engine = w.model->inference();
  engine.set_index_config(IndexConfig(4));
  Int8Config int8;
  int8.rerank_k = 32;
  engine.set_int8_config(int8);
}

// Runs `body` at pool widths 1 and 4 with cold caches each time, restoring
// the serial default after.
void AtThreads(World& w, const std::function<void()>& body) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    parallel::SetGlobalThreads(threads);
    w.model->inference().InvalidateAll();
    body();
  }
  parallel::SetGlobalThreads(1);
}

// 64-bit FNV-1a over raw bytes, chained through `h`.
uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Item ids and score bits of a ranking, in rank order.
uint64_t Digest(const Ranking& ranking) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [item, score] : ranking) {
    h = Fnv1a(&item, sizeof(item), h);
    h = Fnv1a(&score, sizeof(score), h);
  }
  return h;
}

bool SameBits(const Ranking& a, const Ranking& b) {
  return a.size() == b.size() && Digest(a) == Digest(b);
}

// Pinned top-10 digests, one row per config in Configs() order; within a
// row, kinds in kKinds order and plans in kPlans order.
constexpr uint64_t kPinned[5][4][4] = {
    // full
    {
        {0x1b65a951c9adbeedULL, 0x1b65a951c9adbeedULL,
         0x75b3695924e7a6dbULL, 0x2a9755d5840391a7ULL},
        {0x987ecefd7782b239ULL, 0x987ecefd7782b239ULL,
         0xe9a080adf0a7291cULL, 0x28f42f50a17a132bULL},
        {0x9a0cbd2d934e9e39ULL, 0x9a0cbd2d934e9e39ULL,
         0x58f41209c3e2def3ULL, 0x9014e24b3975ee0bULL},
        {0x6dc698b9d7c91836ULL, 0x01851af3261913feULL,
         0x9395b432495f6a1bULL, 0x32fd1d90edc27736ULL},
    },
    // group-a
    {
        {0xb7852be8f5503af8ULL, 0x701c90891bb44a7fULL,
         0xf90fd0345f137425ULL, 0x6c2998eff73640a2ULL},
        {0x781d47068b2fea77ULL, 0x85770a1f3b9f57f1ULL,
         0x649eacb96d386cf3ULL, 0x851353732c31ef85ULL},
        {0x39bf03c9c161c648ULL, 0x68fb389bd9a9a36eULL,
         0xe11d1e23f365d0c5ULL, 0x3b9080c14498027fULL},
        {0xec374a16bc215042ULL, 0x7a52df8cf1d2307cULL,
         0xa693e424ce08f440ULL, 0xdd4d0cd8f5fda29bULL},
    },
    // group-i
    {
        {0x3611ab2b5320d011ULL, 0x3611ab2b5320d011ULL,
         0x1ec870f969b10788ULL, 0x1ec870f969b10788ULL},
        {0x9cb0ed844c237476ULL, 0x5d577923e7a04065ULL,
         0xb89d9562195d515aULL, 0xef600e19907e8227ULL},
        {0x73fe1d84b628872cULL, 0x6cc9bf5c49523cf2ULL,
         0xb1207c85d0ddf972ULL, 0x7864ef7f1778a4b6ULL},
        {0x0627b63f504115d2ULL, 0x00d0e083e056dad5ULL,
         0xa8174bd9f85f369aULL, 0xb0bb62dec875dcfeULL},
    },
    // untied
    {
        {0x99b3ae02b2bb9a73ULL, 0xa85fb5c4853d5864ULL,
         0xcdcd2100e57aa951ULL, 0xeb0b4991760aeb78ULL},
        {0xfc851a3a6539899cULL, 0x0762d694f7ee3351ULL,
         0x9ae9f12787685153ULL, 0xe3e856f32ee29994ULL},
        {0x496495a73a7e8f8cULL, 0xaf9a2983cdcbdf79ULL,
         0xedbe13f01b0a6791ULL, 0xbbe59266d5689e6aULL},
        {0x83c16c48f2a86a73ULL, 0x19318da52244d5b8ULL,
         0x77b7e73bdd4a2f49ULL, 0x034847509da0de6bULL},
    },
    // wide attention
    {
        {0xb789063c024323b2ULL, 0xb789063c024323b2ULL,
         0x5e2ab95d69029600ULL, 0x451d1ee11f00e65dULL},
        {0xf52d0fd383be3ac7ULL, 0x24832b2347cf2a96ULL,
         0x413c1744875fd640ULL, 0xaf0aeb8b043a11cfULL},
        {0x14f4eea45bc7e3c8ULL, 0xdf27897fbd84deb8ULL,
         0x6837e938e8471a58ULL, 0xfe0e50b25d4a1d36ULL},
        {0x1845172a023db7e5ULL, 0x2edda461141b5914ULL,
         0x262f28effa2470c2ULL, 0xa61a736faa30cad5ULL},
    },
};

TEST(RetrievePlanTest, TopTenBitsArePinned) {
  const std::vector<NamedConfig> configs = Configs();
  for (size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE(configs[c].name);
    World w(configs[c].config);
    Prepare(w);
    FastGroupRecommender fast(w.model.get());
    AtThreads(w, [&] {
      for (size_t k = 0; k < 4; ++k) {
        for (size_t p = 0; p < 4; ++p) {
          SCOPED_TRACE(::testing::Message()
                       << KindName(kKinds[k]) << " / " << kPlans[p].name);
          const Ranking top = Answer(w, fast, kKinds[k], kPlans[p]);
          ASSERT_EQ(top.size(), 10u);
          const uint64_t digest = Digest(top);
          EXPECT_EQ(digest, kPinned[c][k][p])
              << "digest 0x" << std::hex << digest;
        }
      }
    });
  }
}

TEST(RetrievePlanTest, EveryPlanAnswersWithAtMostKEntries) {
  // A top-10 answer over 600 items, a probed subset or a 32-entry int8
  // shortlist holds 10 entries' storage, not one per candidate.
  World w(Configs()[0].config);
  Prepare(w);
  FastGroupRecommender fast(w.model.get());
  for (QueryKind kind : kKinds) {
    for (const Plan& plan : kPlans) {
      SCOPED_TRACE(::testing::Message()
                   << KindName(kind) << " / " << plan.name);
      const Ranking top = Answer(w, fast, kind, plan);
      ASSERT_EQ(top.size(), 10u);
      EXPECT_LE(top.capacity(), 10u);
    }
  }
}

TEST(RetrievePlanTest, FullProbeIsIdenticalToTheCatalogPlan) {
  const std::vector<NamedConfig> configs = Configs();
  for (const NamedConfig& nc : configs) {
    SCOPED_TRACE(nc.name);
    World w(nc.config);
    Prepare(w);
    w.model->inference().set_index_config(IndexConfig(16));
    FastGroupRecommender fast(w.model.get());
    AtThreads(w, [&] {
      for (QueryKind kind : kKinds) {
        SCOPED_TRACE(KindName(kind));
        // kPlans[1] / [3] are the IVF twins of the catalog plans [0] / [2].
        for (size_t p : {0, 2}) {
          const Ranking catalog = Answer(w, fast, kind, kPlans[p]);
          const Ranking probed = Answer(w, fast, kind, kPlans[p + 1]);
          ASSERT_EQ(catalog.size(), 10u);
          EXPECT_TRUE(SameBits(catalog, probed)) << kPlans[p + 1].name;
        }
      }
    });
  }
}

}  // namespace
}  // namespace groupsa::core
