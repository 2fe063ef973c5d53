#ifndef GROUPSA_TESTS_CORE_TEST_FIXTURES_H_
#define GROUPSA_TESTS_CORE_TEST_FIXTURES_H_

#include <memory>

#include "core/groupsa_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tfidf.h"

namespace groupsa::core::testing {

// A tiny world (or, given its config, any other) plus everything needed to
// construct models and trainers.
struct TinyFixture {
  data::SyntheticWorld world;
  data::Split ui;
  data::Split gi;
  data::InteractionMatrix ui_train;
  data::InteractionMatrix gi_train;
  ModelData model_data;

  static TinyFixture Make(const GroupSaConfig& config, uint64_t seed = 5,
                          const data::SyntheticWorldConfig& world_config =
                              data::SyntheticWorldConfig::Tiny()) {
    TinyFixture f;
    f.world = data::GenerateWorld(world_config);
    Rng rng(seed);
    f.ui = data::SplitEdges(f.world.dataset.user_item, 0.2, 0.0, &rng);
    f.gi = data::GlobalSplitEdges(f.world.dataset.group_item, 0.2, 0.0, &rng);
    f.ui_train = data::InteractionMatrix(f.world.dataset.num_users,
                                         f.world.dataset.num_items,
                                         f.ui.train);
    f.gi_train = data::InteractionMatrix(f.world.dataset.groups.num_groups(),
                                         f.world.dataset.num_items,
                                         f.gi.train);
    f.model_data.groups = &f.world.dataset.groups;
    f.model_data.social = &f.world.dataset.social;
    f.model_data.top_items = data::TopItemsPerUser(f.ui_train, config.top_h);
    f.model_data.top_friends =
        data::TopFriendsPerUser(f.world.dataset.social, config.top_h);
    return f;
  }

  std::unique_ptr<GroupSaModel> MakeModel(const GroupSaConfig& config,
                                          uint64_t seed = 11) const {
    Rng rng(seed);
    return std::make_unique<GroupSaModel>(config, world.dataset.num_users,
                                          world.dataset.num_items, model_data,
                                          &rng);
  }
};

}  // namespace groupsa::core::testing

#endif  // GROUPSA_TESTS_CORE_TEST_FIXTURES_H_
