// Fast group recommendation (Sec. II-F): for large groups, averaging the
// members' blended personal scores trades a little accuracy for a much
// cheaper per-candidate cost than the full voting network. The average is
// the Group+avg baseline (baselines::StaticAggRecommender). This example
// trains one model and compares the two paths on accuracy and wall-clock.

#include <cstdio>

#include "baselines/static_agg.h"
#include "common/stopwatch.h"
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
  world_config.max_group_size = 16;
  world_config.avg_group_size = 6.0;
  pipeline::ExperimentData data =
      pipeline::PrepareData(world_config, options);

  Rng rng(options.seed + 1);
  const core::GroupSaConfig config = core::GroupSaConfig::Default();
  const core::ModelData model_data = pipeline::BuildModelData(data, config);
  std::printf("training GroupSA...\n");
  auto model =
      pipeline::TrainGroupSa(config, data, options, &rng, model_data);
  core::InferenceEngine& engine = model->inference();
  const baselines::StaticAggRecommender fast(
      model.get(), baselines::ScoreAggregation::kAverage);

  // Accuracy: evaluate both paths on the held-out group cases.
  const eval::EvalResult full = eval::EvaluateRanking(
      data.group_cases,
      [&](int32_t g, const std::vector<data::ItemId>& items) {
        return engine.ScoreItemsForGroup(g, items);
      },
      options.ks);
  const eval::EvalResult quick = eval::EvaluateRanking(
      data.group_cases,
      [&](int32_t g, const std::vector<data::ItemId>& items) {
        return fast.ScoreItemsForGroup(g, items);
      },
      options.ks);
  std::printf("\nfull voting path : %s\n", full.ToString().c_str());
  std::printf("fast average path: %s\n", quick.ToString().c_str());

  // Wall-clock: score the full catalog for the largest groups.
  data::GroupId biggest = 0;
  for (data::GroupId g = 1; g < data.num_groups(); ++g) {
    if (data.world.dataset.groups.GroupSize(g) >
        data.world.dataset.groups.GroupSize(biggest))
      biggest = g;
  }
  const auto& members = data.world.dataset.groups.Members(biggest);
  std::vector<data::ItemId> all_items(data.num_items());
  for (int v = 0; v < data.num_items(); ++v) all_items[v] = v;

  Stopwatch w;
  auto s1 = engine.ScoreItemsForGroup(biggest, all_items);
  const double full_ms = w.ElapsedMillis();
  w.Reset();
  auto s2 = fast.ScoreItemsForMembers(members, all_items);
  const double fast_ms = w.ElapsedMillis();
  std::printf(
      "\nlargest group (size %zu), %d candidate items:\n"
      "  full voting path %.1f ms, fast path %.1f ms\n",
      members.size(), data.num_items(), full_ms, fast_ms);
  std::printf(
      "\n(The fast path pays one tower pass per member per item; the full "
      "path pays the\nvoting stack once per group plus attention+tower per "
      "item — see bench_micro_model\nfor the crossover by group size.)\n");
  return 0;
}
