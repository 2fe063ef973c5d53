#ifndef GROUPSA_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define GROUPSA_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/test_fixtures.h"
#include "nn/checkpoint.h"
#include "serve/server.h"

namespace groupsa::serve::testing {

// A small config so model construction per generation stays fast.
inline core::GroupSaConfig SmallConfig() {
  core::GroupSaConfig c = core::GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  return c;
}

// Serving test rig over the tiny world: an in-memory model factory (fixed
// construction seed, so every generation holds identical parameters and
// responses are comparable across reloads; reloading any path but
// kInMemory loads that checkpoint over the seeded model) plus a same-seed
// oracle model outside the daemon for parity checks.
struct ServeRig {
  core::GroupSaConfig config = SmallConfig();
  core::testing::TinyFixture fixture;
  std::unique_ptr<core::GroupSaModel> oracle;
  std::unique_ptr<Server> server;

  static constexpr uint64_t kModelSeed = 11;
  // The checkpoint path that means "the seeded model, nothing loaded".
  static constexpr const char* kInMemory = "<in-memory>";

  explicit ServeRig(const ServeConfig& sc,
                    bool factory_yields_null_model = false) {
    fixture = core::testing::TinyFixture::Make(config);
    // Make() returns by value; the ModelData pointers inside it refer to the
    // temporary's world, so re-point them at the member we moved into.
    fixture.model_data.groups = &fixture.world.dataset.groups;
    fixture.model_data.social = &fixture.world.dataset.social;
    oracle = fixture.MakeModel(config, kModelSeed);
    Server::ModelFactory factory =
        [this, factory_yields_null_model](
            const std::string& path,
            std::unique_ptr<core::GroupSaModel>* out) -> Status {
      if (factory_yields_null_model) {
        out->reset();
        return Status::Ok();
      }
      std::unique_ptr<core::GroupSaModel> model =
          fixture.MakeModel(config, kModelSeed);
      // Any other path names a checkpoint to load over the seeded model.
      if (path != kInMemory) {
        GROUPSA_RETURN_IF_ERROR(
            nn::LoadParameters(model->Parameters(), path));
      }
      *out = std::move(model);
      return Status::Ok();
    };
    server = std::make_unique<Server>(
        sc, std::move(factory), kInMemory, fixture.ui.train,
        fixture.world.dataset.num_users,
        fixture.world.dataset.groups.num_groups(),
        fixture.world.dataset.num_items, &fixture.ui_train,
        &fixture.gi_train);
  }

  ScheduleConfig Schedule(int num_requests, uint64_t seed) const {
    ScheduleConfig sc;
    sc.num_requests = num_requests;
    sc.seed = seed;
    sc.num_users = fixture.world.dataset.num_users;
    sc.num_groups = fixture.world.dataset.groups.num_groups();
    return sc;
  }

  // The direct-engine answer the pipeline must reproduce bit for bit.
  std::vector<std::pair<data::ItemId, double>> Direct(const Request& r) {
    core::InferenceEngine& engine = oracle->inference();
    const data::InteractionMatrix* user_ex =
        r.exclude_seen ? &fixture.ui_train : nullptr;
    const data::InteractionMatrix* group_ex =
        r.exclude_seen ? &fixture.gi_train : nullptr;
    switch (r.kind) {
      case Request::Kind::kUser:
        return engine.RecommendForUser(r.user, r.k, user_ex);
      case Request::Kind::kGroup:
        return engine.RecommendForGroup(r.group, r.k, group_ex);
      case Request::Kind::kMembers:
        return engine.RecommendForMembers(r.members, r.k, user_ex);
    }
    return {};
  }
};

}  // namespace groupsa::serve::testing

#endif  // GROUPSA_TESTS_SERVE_SERVE_TEST_UTIL_H_
