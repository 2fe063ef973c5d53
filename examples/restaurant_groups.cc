// Restaurant scenario (the paper's Yelp motivation): friends who occasionally
// meet pick a restaurant together, and a "food critic" member should
// dominate the choice. This example trains GroupSA on the Yelp-like world,
// then inspects the learned member weights (gamma, Eq. 10) for groups that
// contain a ground-truth expert, checking whether the voting scheme assigns
// experts more influence on their own topic.

#include <cstdio>

#include "core/inference_engine.h"
#include "pipeline/experiment.h"

using namespace groupsa;

int main(int argc, char** argv) {
  pipeline::RunOptions options = pipeline::ParseBenchArgs(
      argc, argv, pipeline::RunOptions{});
  options.user_epochs = std::min(options.user_epochs, 5);
  options.group_epochs = std::min(options.group_epochs, 6);

  data::SyntheticWorldConfig world_config =
      data::SyntheticWorldConfig::YelpLike();
  world_config.num_users = 600;
  world_config.num_items = 400;
  world_config.num_groups = 420;
  pipeline::ExperimentData data =
      pipeline::PrepareData(world_config, options);

  Rng rng(options.seed + 1);
  const core::GroupSaConfig config = core::GroupSaConfig::Default();
  const core::ModelData model_data = pipeline::BuildModelData(data, config);
  std::printf("training GroupSA on the restaurant world...\n");
  auto model =
      pipeline::TrainGroupSa(config, data, options, &rng, model_data);

  // For every group that contains exactly one expert, compare the expert's
  // attention weight against the uniform share 1/l when the candidate item
  // is on the expert's topic.
  const auto& world = data.world;
  double expert_weight_total = 0.0;
  double uniform_total = 0.0;
  int samples = 0;
  for (data::GroupId g = 0;
       g < world.dataset.groups.num_groups() && samples < 200; ++g) {
    const auto& members = world.dataset.groups.Members(g);
    int expert_pos = -1;
    int expert_count = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      if (world.user_is_expert[members[i]]) {
        expert_pos = static_cast<int>(i);
        ++expert_count;
      }
    }
    if (expert_count != 1 || members.size() < 3) continue;
    const int expert_topic = world.user_topic[members[expert_pos]];
    // An item on the expert's topic.
    for (data::ItemId v = 0; v < world.dataset.num_items; ++v) {
      if (world.item_topic[v] == expert_topic) {
        const auto detail = model->ScoreGroupItemDetailed(g, v);
        expert_weight_total += detail.member_weights.At(0, expert_pos);
        uniform_total += 1.0 / static_cast<double>(members.size());
        ++samples;
        break;
      }
    }
  }
  std::printf(
      "\nacross %d expert-containing groups, mean attention on the expert "
      "for on-topic items: %.4f (uniform share would be %.4f)\n",
      samples, expert_weight_total / samples, uniform_total / samples);

  // Show one concrete group recommendation.
  for (data::GroupId g = 0; g < world.dataset.groups.num_groups(); ++g) {
    const auto& members = world.dataset.groups.Members(g);
    if (members.size() < 4) continue;
    std::printf("\ngroup #%d (size %zu) — Top-5 restaurants:\n", g,
                members.size());
    const data::InteractionMatrix gi_all = world.dataset.GroupItemMatrix();
    for (const auto& [item, score] :
         model->inference().RecommendForGroup(g, 5, &gi_all))
      std::printf("  restaurant #%-4d (topic %d) score %.3f\n", item,
                  world.item_topic[item], score);
    break;
  }
  return 0;
}
