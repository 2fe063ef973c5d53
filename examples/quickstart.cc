// Quickstart: generate a small synthetic world, train GroupSA, and produce
// Top-K recommendations for a group and for an ad-hoc (cold) group.
//
//   ./example_quickstart
//
// This walks the whole public API: data generation, splitting, TF-IDF
// neighbourhoods, model construction, the two-stage trainer, evaluation and
// recommendation.

#include <cstdio>

#include "core/inference_engine.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tfidf.h"
#include "eval/evaluator.h"

using namespace groupsa;

int main() {
  // 1. A small world (use YelpLike()/DoubanEventLike() for the full-size
  // evaluation worlds).
  data::SyntheticWorldConfig world_config = data::SyntheticWorldConfig::Tiny();
  world_config.num_users = 300;
  world_config.num_items = 200;
  world_config.num_groups = 220;
  data::SyntheticWorld world = data::GenerateWorld(world_config);
  std::printf("=== dataset ===\n%s\n\n",
              world.dataset.ComputeStats().ToString().c_str());

  // 2. Protocol: per-user split for user-item data, global split for the
  // sparse group-item data (cold groups land in test).
  Rng rng(42);
  data::Split ui = data::SplitEdges(world.dataset.user_item, 0.2, 0.1, &rng);
  data::Split gi =
      data::GlobalSplitEdges(world.dataset.group_item, 0.2, 0.1, &rng);
  data::InteractionMatrix ui_train(world.dataset.num_users,
                                   world.dataset.num_items, ui.train);
  data::InteractionMatrix gi_train(world.dataset.groups.num_groups(),
                                   world.dataset.num_items, gi.train);

  // 3. Model: the paper's defaults, plus the TF-IDF Top-H neighbourhoods
  // computed from the training interactions.
  core::GroupSaConfig config = core::GroupSaConfig::Default();
  config.user_epochs = 5;
  config.group_epochs = 5;
  core::ModelData model_data;
  model_data.groups = &world.dataset.groups;
  model_data.social = &world.dataset.social;
  model_data.top_items = data::TopItemsPerUser(ui_train, config.top_h);
  model_data.top_friends =
      data::TopFriendsPerUser(world.dataset.social, config.top_h);
  core::GroupSaModel model(config, world.dataset.num_users,
                           world.dataset.num_items, model_data, &rng);
  std::printf("model: %lld parameters\n\n",
              static_cast<long long>(model.NumParameterScalars()));

  // 4. Two-stage joint training (Sec. II-E).
  core::Trainer trainer(&model, ui.train, gi.train, &ui_train, &gi_train,
                        &rng);
  trainer.Fit(/*verbose=*/true);

  // 5. Evaluate with the paper's 100-candidate protocol.
  data::InteractionMatrix gi_all = world.dataset.GroupItemMatrix();
  auto cases = eval::BuildRankingCases(gi.test, gi_all, 100, &rng);
  eval::EvalResult result = eval::EvaluateRanking(
      cases,
      [&](int32_t group, const std::vector<data::ItemId>& items) {
        return model.inference().ScoreItemsForGroup(group, items);
      },
      {5, 10});
  std::printf("\ngroup task: %s\n", result.ToString().c_str());

  // 6. Recommend for a known group...
  std::printf("\nTop-5 for group #0 (members:");
  for (data::UserId u : world.dataset.groups.Members(0))
    std::printf(" %d", u);
  std::printf("):\n");
  for (const auto& [item, score] :
       model.inference().RecommendForGroup(0, 5, &gi_all))
    std::printf("  item #%-4d score %.3f\n", item, score);

  // 7. ...and for a brand-new ad-hoc group (the OGR setting): no group id,
  // just a member list.
  const std::vector<data::UserId> ad_hoc = {5, 17, 101};
  std::printf("\nTop-5 for the ad-hoc group {5, 17, 101}:\n");
  std::vector<data::ItemId> all_items(world.dataset.num_items);
  for (int v = 0; v < world.dataset.num_items; ++v) all_items[v] = v;
  auto scores = model.inference().ScoreItemsForMembers(ad_hoc, all_items);
  std::vector<std::pair<data::ItemId, double>> ranked;
  for (size_t v = 0; v < scores.size(); ++v)
    ranked.emplace_back(static_cast<data::ItemId>(v), scores[v]);
  std::partial_sort(ranked.begin(), ranked.begin() + 5, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  for (int i = 0; i < 5; ++i)
    std::printf("  item #%-4d score %.3f\n", ranked[i].first,
                ranked[i].second);
  return 0;
}
