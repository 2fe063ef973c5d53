// ItemIndex / TopKMode::kIvf suite: quantizer structure, build determinism
// across thread counts (race-labelled for the TSan lane), value-version
// invalidation after real optimizer steps, the structural exact-parity
// contract (nprobe = nlist bit-identical to kExact), empty/tiny catalogs,
// pinned digests of fixed builds, and recall@10 against exact top-K on a
// seeded synthetic world.

#include "core/item_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/inference_engine.h"
#include "core/test_fixtures.h"
#include "core/topk.h"
#include "core/trainer.h"

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

// Runs `body` at pool widths 1 and 4, restoring the serial default after.
void AtThreads(const std::function<void()>& body) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    parallel::SetGlobalThreads(threads);
    body();
  }
  parallel::SetGlobalThreads(1);
}

tensor::Matrix RandomTable(int rows, int cols, uint64_t seed) {
  tensor::Matrix m(rows, cols);
  Rng rng(seed);
  m.FillGaussian(&rng, 0.0f, 1.0f);
  return m;
}

bool SameBits(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

bool SameBits(const std::vector<std::pair<data::ItemId, double>>& a,
              const std::vector<std::pair<data::ItemId, double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
    if (std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return false;
  }
  return true;
}

TEST(ItemIndexTest, ListsPartitionTheCatalogInAscendingOrder) {
  const tensor::Matrix table = RandomTable(200, 6, /*seed=*/9);
  ItemIndexConfig config;
  config.nlist = 12;
  const ItemIndex index = ItemIndex::Build(table, config);

  ASSERT_EQ(index.num_items(), 200);
  ASSERT_EQ(index.nlist(), 12);
  ASSERT_EQ(index.assignments().size(), 200u);

  std::set<data::ItemId> seen;
  int total = 0;
  for (int c = 0; c < index.nlist(); ++c) {
    const data::ItemId* items = index.ListBegin(c);
    const int size = index.ListSize(c);
    total += size;
    for (int i = 0; i < size; ++i) {
      if (i > 0) {
        EXPECT_LT(items[i - 1], items[i]) << "list " << c;
      }
      EXPECT_TRUE(seen.insert(items[i]).second) << "duplicate " << items[i];
      EXPECT_EQ(index.assignments()[static_cast<size_t>(items[i])], c);
    }
  }
  EXPECT_EQ(total, 200);
  EXPECT_EQ(seen.size(), 200u);
}

TEST(ItemIndexRaceTest, BuildIsBitIdenticalAcrossThreadCounts) {
  const tensor::Matrix table = RandomTable(300, 8, /*seed=*/17);
  ItemIndexConfig config;
  config.nlist = 16;

  parallel::SetGlobalThreads(1);
  const ItemIndex serial = ItemIndex::Build(table, config);
  AtThreads([&] {
    const ItemIndex index = ItemIndex::Build(table, config);
    EXPECT_TRUE(SameBits(index.centroids(), serial.centroids()));
    EXPECT_EQ(index.assignments(), serial.assignments());
    for (int c = 0; c < index.nlist(); ++c)
      ASSERT_EQ(index.ListSize(c), serial.ListSize(c));
  });
}

// 64-bit FNV-1a over raw bytes: a compact fingerprint of a build's bits.
uint64_t Fnv1a(const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Exact +0.0f / -0.0f coordinates (the terms the nearest-centroid GEMM adds
// as signed zeros) and rows duplicated from earlier ones (tied distances).
tensor::Matrix ZerosAndDuplicatesTable() {
  tensor::Matrix m = RandomTable(600, 8, /*seed=*/41);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      if ((r + c) % 3 == 0) m.At(r, c) = 0.0f;
      if ((7 * r + c) % 11 == 0) m.At(r, c) = -0.0f;
    }
    if (r % 5 == 4) m.SetRow(r, m.RowPtr(r / 2));
  }
  return m;
}

// The centroid and assignment bits of fixed builds, pinned as digests. The
// list counts cover every shape the nearest-centroid products take: one
// list (the single-column path), 17 and 40 (runtime-width and 8-wide
// column tails), 256 (whole 32-wide tiles), and the size rule at 5,000
// items (282 lists: tiles plus a runtime tail).
TEST(ItemIndexRaceTest, BuildBitsArePinned) {
  struct Pinned {
    const char* name;
    tensor::Matrix table;
    ItemIndexConfig config;
    int nlist;
    uint64_t centroids;
    uint64_t assignments;
  };
  const std::vector<Pinned> cases = {
      {"one list", RandomTable(300, 5, 101), {.nlist = 1}, 1,
       0x8e120971e9b1f9b1ULL, 0x74b4429a2fdd70e5ULL},
      {"17 lists", RandomTable(1000, 7, 102), {.nlist = 17}, 17,
       0x5555eafd69c4b6bbULL, 0xd01502eeec79d274ULL},
      {"256 lists, sampled", RandomTable(4000, 32, 103),
       {.nlist = 256, .train_sample = 2000}, 256, 0x47a8bcf8b4b9bb9fULL,
       0x03e0a5cdd32522f8ULL},
      {"size rule at 5000 items", RandomTable(5000, 16, 104), {}, 282,
       0x3262128792418e3fULL, 0x7deb3c2a5d4a9ad0ULL},
      {"zeros and duplicates", ZerosAndDuplicatesTable(), {.nlist = 40}, 40,
       0x189590d492d81994ULL, 0xe753b6ab73bca00eULL},
  };
  AtThreads([&] {
    for (const Pinned& p : cases) {
      SCOPED_TRACE(p.name);
      const ItemIndex index = ItemIndex::Build(p.table, p.config);
      ASSERT_EQ(index.nlist(), p.nlist);
      const tensor::Matrix& c = index.centroids();
      const std::vector<int>& a = index.assignments();
      const uint64_t centroids =
          Fnv1a(c.data(), sizeof(float) * static_cast<size_t>(c.size()));
      const uint64_t assignments = Fnv1a(a.data(), sizeof(int) * a.size());
      EXPECT_EQ(centroids, p.centroids)
          << "centroids digest 0x" << std::hex << centroids;
      EXPECT_EQ(assignments, p.assignments)
          << "assignments digest 0x" << std::hex << assignments;
    }
  });
}

TEST(ItemIndexTest, EmptyCatalogYieldsEmptyIndex) {
  const ItemIndex index = ItemIndex::Build(tensor::Matrix(), ItemIndexConfig{});
  EXPECT_EQ(index.num_items(), 0);
  EXPECT_EQ(index.nlist(), 0);
  EXPECT_TRUE(index.SelectProbes({}, 4).empty());
  EXPECT_TRUE(index.Candidates({}).empty());
}

TEST(ItemIndexTest, TinyCatalogClampsNlistBelowItems) {
  // Fewer items than the requested nlist: the build must degrade, not fail,
  // and probing everything must still return the whole catalog.
  const tensor::Matrix table = RandomTable(3, 4, /*seed=*/5);
  ItemIndexConfig config;
  config.nlist = 8;
  const ItemIndex index = ItemIndex::Build(table, config);
  ASSERT_LE(index.nlist(), 3);
  ASSERT_GE(index.nlist(), 1);

  std::vector<double> scores(static_cast<size_t>(index.nlist()), 0.0);
  const std::vector<data::ItemId> all =
      index.Candidates(index.SelectProbes(scores, index.nlist()));
  std::vector<data::ItemId> sorted = all;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<data::ItemId>{0, 1, 2}));
}

TEST(ItemIndexTest, SingleItemCatalog) {
  const ItemIndex index =
      ItemIndex::Build(RandomTable(1, 4, /*seed=*/2), ItemIndexConfig{});
  EXPECT_EQ(index.nlist(), 1);
  EXPECT_EQ(index.Candidates(index.SelectProbes({0.0}, 1)),
            (std::vector<data::ItemId>{0}));
}

TEST(ItemIndexTest, SelectProbesRanksByScoreThenListId) {
  // Four tight, well-separated blobs guarantee four non-empty lists, so the
  // expectations below depend only on the scores handed to SelectProbes.
  tensor::Matrix table(64, 4);
  Rng rng(3);
  table.FillGaussian(&rng, 0.0f, 0.05f);
  for (int r = 0; r < table.rows(); ++r) {
    table.At(r, 0) += static_cast<float>(100 * (r % 4));
  }
  ItemIndexConfig config;
  config.nlist = 4;
  const ItemIndex index = ItemIndex::Build(table, config);
  ASSERT_EQ(index.nlist(), 4);
  for (int c = 0; c < 4; ++c) ASSERT_GT(index.ListSize(c), 0);

  // Tie between lists 1 and 3: ascending list id must win.
  const std::vector<double> scores = {0.5, 2.0, -1.0, 2.0};
  EXPECT_EQ(index.SelectProbes(scores, 3), (std::vector<int>{1, 3, 0}));
  // nprobe past the list count clamps to everything.
  EXPECT_EQ(index.SelectProbes(scores, 100),
            (std::vector<int>{1, 3, 0, 2}));
}

TEST(ItemIndexTest, ListMeansMatchesNaiveDoubleMean) {
  const tensor::Matrix vectors = RandomTable(50, 5, /*seed=*/23);
  ItemIndexConfig config;
  config.nlist = 6;
  const ItemIndex index = ItemIndex::Build(vectors, config);
  const tensor::Matrix payload = RandomTable(50, 3, /*seed=*/29);
  const tensor::Matrix means = index.ListMeans(payload);
  ASSERT_EQ(means.rows(), index.nlist());
  ASSERT_EQ(means.cols(), 3);

  for (int c = 0; c < index.nlist(); ++c) {
    for (int col = 0; col < 3; ++col) {
      double sum = 0.0;
      for (int i = 0; i < index.ListSize(c); ++i)
        sum += static_cast<double>(payload.At(index.ListBegin(c)[i], col));
      const float want =
          index.ListSize(c) == 0
              ? 0.0f
              : static_cast<float>(sum / index.ListSize(c));
      EXPECT_EQ(means.At(c, col), want) << "list " << c << " col " << col;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

// Full-probe config: nprobe = nlist makes the candidate set the whole
// catalog, so kIvf must be structurally bit-identical to kExact.
ItemIndexConfig FullProbeConfig(int nlist) {
  ItemIndexConfig config;
  config.nlist = nlist;
  config.nprobe = nlist;
  return config;
}

TEST(ItemIndexRaceTest, IvfFullProbeBitIdenticalToExactTopK) {
  for (bool wide_attention : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "wide=" << wide_attention);
    GroupSaConfig config = SmallConfig();
    // Cover both the fused and the buffered attention paths.
    if (wide_attention) config.attention_hidden = 144;
    const TinyFixture f = TinyFixture::Make(config);
    auto model = f.MakeModel(config);
    InferenceEngine& engine = model->inference();
    engine.set_index_config(FullProbeConfig(10));

    AtThreads([&] {
      engine.set_topk_mode(TopKMode::kExact);
      const auto exact_user = engine.RecommendForUser(3, 10, &f.ui_train);
      const auto exact_group = engine.RecommendForGroup(5, 10, &f.gi_train);
      const auto exact_members =
          engine.RecommendForMembers({1, 4, 9}, 10, &f.ui_train);

      engine.set_topk_mode(TopKMode::kIvf);
      EXPECT_TRUE(
          SameBits(engine.RecommendForUser(3, 10, &f.ui_train), exact_user));
      EXPECT_TRUE(SameBits(engine.RecommendForGroup(5, 10, &f.gi_train),
                           exact_group));
      EXPECT_TRUE(SameBits(
          engine.RecommendForMembers({1, 4, 9}, 10, &f.ui_train),
          exact_members));
    });
  }
}

TEST(ItemIndexTest, IndexInvalidatedByOptimizerStep) {
  const GroupSaConfig config = SmallConfig();
  TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  InferenceEngine& engine = model->inference();
  engine.set_index_config(FullProbeConfig(10));
  engine.set_topk_mode(TopKMode::kIvf);

  const auto index_before = engine.GetOrBuildIndex();
  const auto rec_before = engine.RecommendForGroup(0, 10, nullptr);
  // The cached state is reused while parameters stand still.
  EXPECT_EQ(engine.GetOrBuildIndex().get(), index_before.get());

  // Real gradients, real Adam steps.
  Rng rng(7);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  trainer.RunGroupEpoch();

  // The stale index must not survive the version bump, and the rebuilt one
  // must rank with the NEW parameters: full-probe IVF still bit-matches the
  // exact path post-step.
  const auto index_after = engine.GetOrBuildIndex();
  EXPECT_NE(index_after.get(), index_before.get());
  const auto ivf_after = engine.RecommendForGroup(0, 10, nullptr);
  engine.set_topk_mode(TopKMode::kExact);
  EXPECT_TRUE(SameBits(ivf_after, engine.RecommendForGroup(0, 10, nullptr)));
  EXPECT_FALSE(SameBits(ivf_after, rec_before));
}

TEST(ItemIndexTest, SetIndexConfigDropsTheBuiltIndex) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  InferenceEngine& engine = model->inference();
  engine.set_index_config(FullProbeConfig(10));
  const auto first = engine.GetOrBuildIndex();
  EXPECT_EQ(first->nlist(), 10);
  engine.set_index_config(FullProbeConfig(5));
  const auto second = engine.GetOrBuildIndex();
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(second->nlist(), 5);
}

// ---------------------------------------------------------------------------
// Recall on a seeded world
// ---------------------------------------------------------------------------

// A larger-catalog world so approximate probing has room to miss: 600 items,
// deterministic seed, model at init (scores are a fixed function of the
// seeds).
struct RecallFixture {
  data::SyntheticWorld world;
  data::Split ui;
  data::Split gi;
  data::InteractionMatrix ui_train;
  data::InteractionMatrix gi_train;
  ModelData model_data;
  std::unique_ptr<GroupSaModel> model;

  explicit RecallFixture(const GroupSaConfig& config) {
    data::SyntheticWorldConfig wc = data::SyntheticWorldConfig::Tiny();
    wc.name = "recall";
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

double RecallAtK(const std::vector<std::pair<data::ItemId, double>>& exact,
                 const std::vector<std::pair<data::ItemId, double>>& approx) {
  if (exact.empty()) return 1.0;
  std::set<data::ItemId> want;
  for (const auto& [item, score] : exact) want.insert(item);
  int hit = 0;
  for (const auto& [item, score] : approx)
    hit += want.count(item) ? 1 : 0;
  return static_cast<double>(hit) / static_cast<double>(want.size());
}

TEST(ItemIndexTest, RecallAtTenOnSeededWorld) {
  const GroupSaConfig config = SmallConfig();
  RecallFixture f(config);
  InferenceEngine& engine = f.model->inference();
  // A genuinely approximate setting: probe 12 of 48 lists (a quarter of the
  // catalog per query).
  ItemIndexConfig index_config;
  index_config.nlist = 48;
  index_config.nprobe = 12;
  engine.set_index_config(index_config);

  double user_recall = 0.0;
  double group_recall = 0.0;
  const int num_users = 20;
  const int num_groups = 20;
  for (int u = 0; u < num_users; ++u) {
    engine.set_topk_mode(TopKMode::kExact);
    const auto exact = engine.RecommendForUser(u, 10, nullptr);
    engine.set_topk_mode(TopKMode::kIvf);
    user_recall += RecallAtK(exact, engine.RecommendForUser(u, 10, nullptr));
  }
  for (int g = 0; g < num_groups; ++g) {
    engine.set_topk_mode(TopKMode::kExact);
    const auto exact = engine.RecommendForGroup(g, 10, nullptr);
    engine.set_topk_mode(TopKMode::kIvf);
    group_recall +=
        RecallAtK(exact, engine.RecommendForGroup(g, 10, nullptr));
  }
  user_recall /= num_users;
  group_recall /= num_groups;
  // Deterministic world + seeds: these are fixed quantities, gated with
  // headroom below the measured values.
  EXPECT_GE(user_recall, 0.9) << "user recall@10 degraded";
  EXPECT_GE(group_recall, 0.9) << "group recall@10 degraded";

  // And the IVF scores it does return are exact-path bits (re-rank is
  // exact): every returned (item, score) appears identically in the exact
  // full ranking.
  engine.set_topk_mode(TopKMode::kExact);
  const auto exact_full =
      engine.RecommendForUser(0, f.model->num_items(), nullptr);
  engine.set_topk_mode(TopKMode::kIvf);
  for (const auto& [item, score] : engine.RecommendForUser(0, 10, nullptr)) {
    bool found = false;
    for (const auto& [eitem, escore] : exact_full) {
      if (eitem != item) continue;
      found = std::memcmp(&score, &escore, sizeof(double)) == 0;
      break;
    }
    EXPECT_TRUE(found) << "item " << item
                       << " score is not the exact-path bits";
  }
}

}  // namespace
}  // namespace groupsa::core
