// Event-planning scenario (the paper's Douban-Event motivation): attendees
// who met at a conference form an ad-hoc group and need an after-event
// activity. Demonstrates cold-group recommendation: the groups scored here
// never appear in training — only their members' individual histories and
// social ties do.

#include <cstdio>
#include <span>

#include "core/inference_engine.h"
#include "pipeline/experiment.h"

using namespace groupsa;

int main(int argc, char** argv) {
  pipeline::RunOptions options = pipeline::ParseBenchArgs(
      argc, argv, pipeline::RunOptions{});
  options.user_epochs = std::min(options.user_epochs, 5);
  options.group_epochs = std::min(options.group_epochs, 6);

  data::SyntheticWorldConfig world_config =
      data::SyntheticWorldConfig::DoubanEventLike();
  world_config.num_users = 500;
  world_config.num_items = 400;
  world_config.num_groups = 320;
  pipeline::ExperimentData data =
      pipeline::PrepareData(world_config, options);

  Rng rng(options.seed + 1);
  const core::GroupSaConfig config = core::GroupSaConfig::Default();
  const core::ModelData model_data = pipeline::BuildModelData(data, config);
  std::printf("training GroupSA on the event world...\n");
  auto model =
      pipeline::TrainGroupSa(config, data, options, &rng, model_data);

  // Build three ad-hoc "conference dinner" groups of socially connected
  // users that never co-occur as a training group.
  const auto& social = data.world.dataset.social;
  int built = 0;
  for (data::UserId seed_user = 0;
       seed_user < data.num_users() && built < 3; ++seed_user) {
    const std::span<const data::UserId> friends =
        social.Neighbors(seed_user);
    if (friends.size() < 3) continue;
    std::vector<data::UserId> members = {seed_user, friends[0], friends[1],
                                         friends[2]};
    ++built;
    std::printf("\nad-hoc group %d:", built);
    for (data::UserId u : members) std::printf(" user#%d", u);
    std::printf("\n");

    // Score the whole catalog through the voting network and show the top
    // events with the per-member influence on the winning event.
    std::vector<data::ItemId> all_items(data.num_items());
    for (int v = 0; v < data.num_items(); ++v) all_items[v] = v;
    const auto scores =
        model->inference().ScoreItemsForMembers(members, all_items);
    std::vector<std::pair<data::ItemId, double>> ranked;
    for (size_t v = 0; v < scores.size(); ++v)
      ranked.emplace_back(static_cast<data::ItemId>(v), scores[v]);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (int i = 0; i < 3; ++i)
      std::printf("  event #%-4d score %.3f\n", ranked[i].first,
                  ranked[i].second);

    ag::Tape* no_tape = nullptr;
    auto fwd = model->BuildGroupForwardFromMembers(no_tape, members, false,
                                                   nullptr);
    auto detail =
        model->ScoreGroupItem(no_tape, fwd, ranked[0].first, false, nullptr);
    std::printf("  member influence on the winner:");
    for (int c = 0; c < detail.member_weights.cols(); ++c)
      std::printf(" %.3f", detail.member_weights.At(0, c));
    std::printf("\n");
  }
  return 0;
}
