// The daemon's fallback recommender: a generation without a model answers
// every admitted request with the popularity ranking — training-interaction
// counts per item, ranked by core::TopKItems (count descending, then id
// ascending), with the request's seen items skipped.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/harness.h"
#include "serve/server.h"

namespace groupsa::serve {
namespace {

constexpr int kUsers = 3;
constexpr int kGroups = 2;

data::EdgeList PopularityEdges() {
  // Item 2 three times, item 0 twice, item 1 once; items 3/4 unseen.
  // Edges whose item is outside the catalog must be ignored, not trusted.
  return {{0, 2}, {1, 2}, {2, 2}, {0, 0}, {1, 0}, {2, 1}, {0, 99}, {0, -3}};
}

// A started server over `num_items` items whose generations have no model.
std::unique_ptr<Server> PopularityServer(
    const data::EdgeList& popularity, int num_items,
    const data::InteractionMatrix* user_exclude = nullptr) {
  Server::ModelFactory no_model =
      [](const std::string&, std::unique_ptr<core::GroupSaModel>* out) {
        out->reset();
        return Status::Ok();
      };
  auto server = std::make_unique<Server>(
      ServeConfig(), std::move(no_model), "<none>", popularity, kUsers,
      kGroups, num_items, user_exclude, /*group_exclude=*/nullptr);
  EXPECT_TRUE(server->Start().ok());
  return server;
}

Request UserRequest(int k, bool exclude_seen = false) {
  Request r;
  r.kind = Request::Kind::kUser;
  r.user = 0;
  r.k = k;
  r.exclude_seen = exclude_seen;
  return r;
}

TEST(FallbackRecommenderTest, PopularityRankingIsCountDescIdAsc) {
  auto server = PopularityServer(PopularityEdges(), /*num_items=*/5);
  const Response r = server->Call(UserRequest(5));
  EXPECT_TRUE(r.degraded);
  const std::vector<std::pair<data::ItemId, double>> want = {
      {2, 3.0}, {0, 2.0}, {1, 1.0}, {3, 0.0}, {4, 0.0}};
  EXPECT_EQ(r.items, want);
}

TEST(FallbackRecommenderTest, NullEngineDegradesEveryRequest) {
  auto server = PopularityServer(PopularityEdges(), 5);
  Request group;
  group.kind = Request::Kind::kGroup;
  group.group = 1;
  group.k = 3;
  Request members;
  members.kind = Request::Kind::kMembers;
  members.members = {0, 2};
  members.k = 3;
  for (const Request& request : {UserRequest(3), group, members}) {
    const Response r = server->Call(request);
    EXPECT_TRUE(r.degraded) << FormatRequest(request);
    EXPECT_EQ(r.error, "model unavailable");
    ASSERT_EQ(r.items.size(), 3u);
    EXPECT_EQ(r.items[0].first, 2);
  }
  server->Stop();
  EXPECT_EQ(server->stats().degraded, 3);
}

TEST(FallbackRecommenderTest, KPastTheCatalogReturnsWholeCatalog) {
  auto server = PopularityServer(PopularityEdges(), 5);
  const Response r = server->Call(UserRequest(50));
  EXPECT_TRUE(r.degraded);
  ASSERT_EQ(r.items.size(), 5u);  // all of it, never more
  EXPECT_EQ(r.items[0].first, 2);
}

TEST(FallbackRecommenderTest, ExcludeCoveringWholeCatalogYieldsEmpty) {
  // User 0 has seen every item: nothing is left to recommend, and the
  // answer is an empty ranking, not an error or a crash.
  const data::InteractionMatrix exclude(kUsers, /*num_items=*/3,
                                        {{0, 0}, {0, 1}, {0, 2}});
  auto server = PopularityServer(PopularityEdges(), 3, &exclude);
  const Response r = server->Call(UserRequest(3, /*exclude_seen=*/true));
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.rejected);
  EXPECT_TRUE(r.items.empty());
}

TEST(FallbackRecommenderTest, EmptyInteractionsStillRankIdAscending) {
  // A cold-start world with zero interactions: every count is 0, so the
  // popularity order collapses to the id-ascending tie-break.
  auto server = PopularityServer(data::EdgeList{}, /*num_items=*/4);
  const Response r = server->Call(UserRequest(3));
  EXPECT_TRUE(r.degraded);
  ASSERT_EQ(r.items.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.items[static_cast<size_t>(i)].first, i);
    EXPECT_DOUBLE_EQ(r.items[static_cast<size_t>(i)].second, 0.0);
  }
}

}  // namespace
}  // namespace groupsa::serve
