// Table IX: group-task performance by group size bin (< 3, 3-7, > 7) for a
// single trained GroupSA. Expected shape (paper): larger groups are easier —
// the voting scheme has more member structure to exploit.

#include <cstdio>

#include "common/stopwatch.h"
#include "core/inference_engine.h"
#include "pipeline/experiment.h"

using namespace groupsa;

int main(int argc, char** argv) {
  pipeline::RunOptions options =
      pipeline::ParseBenchArgs(argc, argv, pipeline::RunOptions{});
  Stopwatch total;
  pipeline::ExperimentData data = pipeline::PrepareData(
      data::SyntheticWorldConfig::YelpLike(), options);

  Rng rng(options.seed + 1);
  const core::GroupSaConfig config = core::GroupSaConfig::Default();
  const core::ModelData model_data = pipeline::BuildModelData(data, config);
  std::printf("training GroupSA...\n");
  auto model =
      pipeline::TrainGroupSa(config, data, options, &rng, model_data);

  const eval::Scorer scorer = [&](int32_t entity,
                                  const std::vector<data::ItemId>& items) {
    return model->inference().ScoreItemsForGroup(entity, items);
  };
  struct Bin {
    const char* label;
    int lo;
    int hi;  // inclusive
  };
  const Bin bins[] = {{"l < 3", 0, 2}, {"3 <= l <= 7", 3, 7},
                      {"7 < l", 8, 1 << 30}};
  std::printf("\n=== Table IX — performance by group size ===\n");
  std::printf("%-12s %6s %8s %8s %8s %8s\n", "bin", "cases", "HR@5", "HR@10",
              "NDCG@5", "NDCG@10");
  for (const Bin& bin : bins) {
    const eval::EvalResult result = eval::EvaluateRankingFiltered(
        data.group_cases, scorer, options.ks, [&](int32_t group) {
          const int l = data.world.dataset.groups.GroupSize(group);
          return l >= bin.lo && l <= bin.hi;
        });
    std::printf("%-12s %6d %8.4f %8.4f %8.4f %8.4f\n", bin.label,
                result.num_cases, result.HitRatio(5), result.HitRatio(10),
                result.Ndcg(5), result.Ndcg(10));
  }
  std::printf("\ntotal %.1fs\n", total.ElapsedSeconds());
  return 0;
}
