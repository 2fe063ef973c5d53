#include "data/synthetic.h"

#include <gtest/gtest.h>

namespace groupsa::data {
namespace {

TEST(SyntheticWorldTest, DeterministicGivenSeed) {
  const SyntheticWorldConfig config = SyntheticWorldConfig::Tiny();
  SyntheticWorld a = GenerateWorld(config);
  SyntheticWorld b = GenerateWorld(config);
  ASSERT_EQ(a.dataset.user_item.size(), b.dataset.user_item.size());
  for (size_t i = 0; i < a.dataset.user_item.size(); ++i)
    EXPECT_TRUE(a.dataset.user_item[i] == b.dataset.user_item[i]);
  ASSERT_EQ(a.dataset.group_item.size(), b.dataset.group_item.size());
  EXPECT_EQ(a.dataset.social.num_edges(), b.dataset.social.num_edges());
}

TEST(SyntheticWorldTest, DifferentSeedsDiffer) {
  SyntheticWorldConfig config = SyntheticWorldConfig::Tiny();
  SyntheticWorld a = GenerateWorld(config);
  config.seed = config.seed + 1;
  SyntheticWorld b = GenerateWorld(config);
  EXPECT_NE(a.dataset.user_item.size(), b.dataset.user_item.size());
}

TEST(SyntheticWorldTest, DimensionsMatchConfig) {
  const SyntheticWorldConfig config = SyntheticWorldConfig::Tiny();
  SyntheticWorld world = GenerateWorld(config);
  EXPECT_EQ(world.dataset.num_users, config.num_users);
  EXPECT_EQ(world.dataset.num_items, config.num_items);
  EXPECT_EQ(world.dataset.groups.num_groups(), config.num_groups);
  EXPECT_EQ(world.user_vectors.rows(), config.num_users);
  EXPECT_EQ(world.user_vectors.cols(), config.latent_dim);
  EXPECT_EQ(world.item_vectors.rows(), config.num_items);
  EXPECT_EQ(world.user_expertise.rows(), config.num_users);
  EXPECT_EQ(world.user_expertise.cols(), config.num_topics);
  EXPECT_EQ(world.user_topic.size(), static_cast<size_t>(config.num_users));
  EXPECT_EQ(world.item_topic.size(), static_cast<size_t>(config.num_items));
}

TEST(SyntheticWorldTest, AllEdgesInRange) {
  SyntheticWorld world = GenerateWorld(SyntheticWorldConfig::Tiny());
  for (const Edge& e : world.dataset.user_item) {
    EXPECT_GE(e.row, 0);
    EXPECT_LT(e.row, world.dataset.num_users);
    EXPECT_GE(e.item, 0);
    EXPECT_LT(e.item, world.dataset.num_items);
  }
  for (const Edge& e : world.dataset.group_item) {
    EXPECT_GE(e.row, 0);
    EXPECT_LT(e.row, world.dataset.groups.num_groups());
  }
}

TEST(SyntheticWorldTest, GroupSizesWithinBounds) {
  const SyntheticWorldConfig config = SyntheticWorldConfig::Tiny();
  SyntheticWorld world = GenerateWorld(config);
  for (GroupId g = 0; g < world.dataset.groups.num_groups(); ++g) {
    EXPECT_GE(world.dataset.groups.GroupSize(g), config.min_group_size);
    EXPECT_LE(world.dataset.groups.GroupSize(g), config.max_group_size);
  }
}

TEST(SyntheticWorldTest, StatsApproximateConfigTargets) {
  const SyntheticWorldConfig config = SyntheticWorldConfig::YelpLike();
  SyntheticWorld world = GenerateWorld(config);
  const DatasetStats stats = world.dataset.ComputeStats();
  EXPECT_NEAR(stats.avg_group_size, config.avg_group_size, 1.2);
  EXPECT_NEAR(stats.avg_friends_per_user, config.avg_friends_per_user, 4.0);
  // User interactions include the group-attendance echo, so the realized
  // mean sits near (not exactly at) the configured solo+echo target.
  EXPECT_GT(stats.avg_interactions_per_user, 6.0);
  EXPECT_LT(stats.avg_interactions_per_user, 25.0);
  EXPECT_GT(stats.avg_interactions_per_group, 1.0);
  EXPECT_LT(stats.avg_interactions_per_group, 2.5);
}

TEST(SyntheticWorldTest, GroupItemEchoedIntoMemberHistories) {
  // Every group interaction must appear in each member's user-item history
  // (the datasets' construction: a group activity IS each member attending).
  SyntheticWorld world = GenerateWorld(SyntheticWorldConfig::Tiny());
  const InteractionMatrix ui = world.dataset.UserItemMatrix();
  for (const Edge& e : world.dataset.group_item) {
    for (UserId member : world.dataset.groups.Members(e.row)) {
      EXPECT_TRUE(ui.Has(member, e.item))
          << "group " << e.row << " item " << e.item << " member " << member;
    }
  }
}

TEST(SyntheticWorldTest, ExpertsAreMoreActive) {
  SyntheticWorld world = GenerateWorld(SyntheticWorldConfig::YelpLike());
  const InteractionMatrix ui = world.dataset.UserItemMatrix();
  double expert_total = 0.0;
  double other_total = 0.0;
  int experts = 0;
  int others = 0;
  for (int u = 0; u < world.dataset.num_users; ++u) {
    if (world.user_is_expert[u]) {
      expert_total += ui.RowDegree(u);
      ++experts;
    } else {
      other_total += ui.RowDegree(u);
      ++others;
    }
  }
  ASSERT_GT(experts, 0);
  ASSERT_GT(others, 0);
  EXPECT_GT(expert_total / experts, other_total / others);
}

TEST(SyntheticWorldTest, ExpertiseBoostOnPrimaryTopicOnly) {
  SyntheticWorld world = GenerateWorld(SyntheticWorldConfig::Tiny());
  for (int u = 0; u < world.dataset.num_users; ++u) {
    if (!world.user_is_expert[u]) continue;
    const int z = world.user_topic[u];
    EXPECT_GE(world.user_expertise.At(u, z), 0.8f);
    for (int k = 0; k < world.config.num_topics; ++k) {
      if (k != z) EXPECT_LE(world.user_expertise.At(u, k), 0.2f);
    }
  }
}

TEST(SyntheticWorldTest, GroupsAreSociallyConnectedMostly) {
  // Most groups should contain at least one social edge among members
  // (groups grow along the social graph).
  SyntheticWorld world = GenerateWorld(SyntheticWorldConfig::YelpLike());
  int connected = 0;
  const int total = world.dataset.groups.num_groups();
  for (GroupId g = 0; g < total; ++g) {
    const auto& members = world.dataset.groups.Members(g);
    bool any = false;
    for (size_t i = 0; i < members.size() && !any; ++i)
      for (size_t j = i + 1; j < members.size() && !any; ++j)
        any = world.dataset.social.Connected(members[i], members[j]);
    connected += any;
  }
  EXPECT_GT(static_cast<double>(connected) / total, 0.5);
}

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t EdgesDigest(const EdgeList& edges) {
  return Fnv1a(edges.data(), edges.size() * sizeof(Edge), kFnvBasis);
}

// Each row's length, then its ids, so a shifted row boundary shows.
template <typename RowFn>
uint64_t RowsDigest(int num_rows, const RowFn& row) {
  uint64_t h = kFnvBasis;
  for (int r = 0; r < num_rows; ++r) {
    const std::vector<UserId>& ids = row(r);
    const uint64_t n = ids.size();
    h = Fnv1a(&n, sizeof(n), h);
    h = Fnv1a(ids.data(), ids.size() * sizeof(UserId), h);
  }
  return h;
}

// Pins every observable edge of four world shapes: the two presets, the
// unit-test world and perfbench's cold_adhoc_5k shape (5,000 items x 50,000
// users x 100 groups, the largest topic pools). A faster generator must
// reproduce these bits; a deliberate change re-pins them from the printed
// values.
TEST(SyntheticWorldTest, WorldBitsArePinned) {
  struct Pin {
    const char* name;
    SyntheticWorldConfig config;
    uint64_t user_item, group_item, social, members;
  };
  SyntheticWorldConfig cold;
  cold.num_items = 5000;
  cold.num_users = 50000;
  cold.num_groups = 100;
  const Pin pins[] = {
      {"Tiny", SyntheticWorldConfig::Tiny(), 0xc9d5aeb4e2cf72e1ULL,
       0x922f654126a5c938ULL, 0x8f0d24cde7f206a3ULL, 0x0b9944ad458abb6cULL},
      {"YelpLike", SyntheticWorldConfig::YelpLike(), 0x514c26bf34b441c3ULL,
       0x81964270456cdcdeULL, 0xca75561ceba65f08ULL, 0xe61d20c0fe4e022bULL},
      {"DoubanEventLike", SyntheticWorldConfig::DoubanEventLike(),
       0x355e55b800157eb7ULL, 0x68064b5b4eef956dULL, 0x3584dd34f54de710ULL,
       0x0056dba034120c78ULL},
      {"5000x50000x100", cold, 0x2d3865ec7ff68ceeULL, 0x1b41187c3497ae0cULL,
       0x3514e65198bab651ULL, 0xb0d0a966bb2b6812ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const SyntheticWorld world = GenerateWorld(pin.config);
    const Dataset& d = world.dataset;
    const uint64_t user_item = EdgesDigest(d.user_item);
    const uint64_t group_item = EdgesDigest(d.group_item);
    const uint64_t social = RowsDigest(
        d.num_users, [&](int u) -> const std::vector<UserId>& {
          return d.social.Neighbors(u);
        });
    const uint64_t members = RowsDigest(
        d.groups.num_groups(), [&](int g) -> const std::vector<UserId>& {
          return d.groups.Members(g);
        });
    EXPECT_EQ(user_item, pin.user_item) << std::hex << "0x" << user_item;
    EXPECT_EQ(group_item, pin.group_item) << std::hex << "0x" << group_item;
    EXPECT_EQ(social, pin.social) << std::hex << "0x" << social;
    EXPECT_EQ(members, pin.members) << std::hex << "0x" << members;
  }
}

TEST(SyntheticWorldTest, PresetsHaveDistinctShapes) {
  const auto yelp = SyntheticWorldConfig::YelpLike();
  const auto douban = SyntheticWorldConfig::DoubanEventLike();
  EXPECT_NE(yelp.num_items, douban.num_items);
  EXPECT_LT(yelp.avg_group_size, douban.avg_group_size);
  EXPECT_NE(yelp.seed, douban.seed);
}

}  // namespace
}  // namespace groupsa::data
