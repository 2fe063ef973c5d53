#include "pipeline/experiment.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/inference_engine.h"
#include "data/tfidf.h"

namespace groupsa::pipeline {

ExperimentData PrepareData(const data::SyntheticWorldConfig& config,
                           const RunOptions& options) {
  ExperimentData data;
  data.world = data::GenerateWorld(config);
  Rng rng(options.seed);
  data.ui = data::SplitEdges(data.world.dataset.user_item, 0.2, 0.1, &rng);
  data.gi =
      data::GlobalSplitEdges(data.world.dataset.group_item, 0.2, 0.1, &rng);
  const int num_users = data.world.dataset.num_users;
  const int num_items = data.world.dataset.num_items;
  const int num_groups = data.world.dataset.groups.num_groups();
  data.ui_train = data::InteractionMatrix(num_users, num_items, data.ui.train);
  data.gi_train =
      data::InteractionMatrix(num_groups, num_items, data.gi.train);
  data.ui_all = data.world.dataset.UserItemMatrix();
  data.gi_all = data.world.dataset.GroupItemMatrix();
  data.user_cases = eval::BuildRankingCases(data.ui.test, data.ui_all,
                                            options.num_candidates, &rng);
  data.group_cases = eval::BuildRankingCases(data.gi.test, data.gi_all,
                                             options.num_candidates, &rng);
  return data;
}

eval::EvalResult EvalUser(const ExperimentData& data,
                          const eval::Scorer& scorer,
                          const RunOptions& options) {
  return eval::EvaluateRanking(data.user_cases, scorer, options.ks);
}

eval::EvalResult EvalGroup(const ExperimentData& data,
                           const eval::Scorer& scorer,
                           const RunOptions& options) {
  return eval::EvaluateRanking(data.group_cases, scorer, options.ks);
}

core::ModelData BuildModelData(const ExperimentData& data,
                               const core::GroupSaConfig& config) {
  core::ModelData md;
  md.groups = &data.world.dataset.groups;
  md.social = &data.world.dataset.social;
  md.top_items = data::TopItemsPerUser(data.ui_train, config.top_h);
  md.top_friends =
      data::TopFriendsPerUser(data.world.dataset.social, config.top_h);
  return md;
}

std::unique_ptr<core::GroupSaModel> TrainGroupSa(
    const core::GroupSaConfig& config, const ExperimentData& data,
    const RunOptions& options, Rng* rng, const core::ModelData& model_data) {
  core::GroupSaConfig cfg = config;
  cfg.user_epochs = options.user_epochs;
  cfg.group_epochs = options.group_epochs;
  auto model = std::make_unique<core::GroupSaModel>(
      cfg, data.num_users(), data.num_items(), model_data, rng);
  core::Trainer trainer(model.get(), data.ui.train, data.gi.train,
                        &data.ui_train, &data.gi_train, rng);
  trainer.Fit();
  return model;
}

ModelScores ScoreGroupSa(core::GroupSaModel* model,
                         const ExperimentData& data, const RunOptions& options,
                         const std::string& name) {
  ModelScores scores;
  scores.name = name;
  scores.user = EvalUser(
      data,
      [&](int32_t entity, const std::vector<data::ItemId>& items) {
        return model->inference().ScoreItemsForUser(entity, items);
      },
      options);
  scores.group = EvalGroup(
      data,
      [&](int32_t entity, const std::vector<data::ItemId>& items) {
        return model->inference().ScoreItemsForGroup(entity, items);
      },
      options);
  return scores;
}

ModelScores RunPopularity(const ExperimentData& data,
                          const RunOptions& options) {
  baselines::Popularity pop;
  pop.Fit({&data.ui.train, &data.gi.train}, data.num_items());
  const eval::Scorer scorer = [&](int32_t,
                                  const std::vector<data::ItemId>& items) {
    return pop.ScoreItems(items);
  };
  ModelScores scores;
  scores.name = "Pop";
  scores.user = EvalUser(data, scorer, options);
  scores.group = EvalGroup(data, scorer, options);
  return scores;
}

namespace {

baselines::BprFitOptions BaselineFit(const RunOptions& options) {
  baselines::BprFitOptions fit;
  fit.epochs = options.baseline_epochs;
  return fit;
}

}  // namespace

ModelScores RunNcf(const ExperimentData& data, const RunOptions& options,
                   Rng* rng) {
  // NCF treats groups as virtual users: one instance per id space, trained
  // on that space's interactions alone.
  baselines::Ncf::Options ncf_options;
  baselines::Ncf user_model(ncf_options, data.num_users(), data.num_items(),
                            rng);
  user_model.Fit(data.ui.train, &data.ui_train, BaselineFit(options), rng);
  baselines::Ncf group_model(ncf_options, data.num_groups(), data.num_items(),
                             rng);
  group_model.Fit(data.gi.train, &data.gi_train, BaselineFit(options), rng);

  ModelScores scores;
  scores.name = "NCF";
  scores.user = EvalUser(
      data,
      [&](int32_t entity, const std::vector<data::ItemId>& items) {
        return user_model.ScoreItems(entity, items);
      },
      options);
  scores.group = EvalGroup(
      data,
      [&](int32_t entity, const std::vector<data::ItemId>& items) {
        return group_model.ScoreItems(entity, items);
      },
      options);
  return scores;
}

ModelScores RunAgree(const ExperimentData& data, const RunOptions& options,
                     Rng* rng) {
  baselines::Agree::Options agree_options;
  baselines::Agree model(agree_options, data.num_users(), data.num_items(),
                         data.num_groups(), &data.world.dataset.groups, rng);
  model.Fit(data.ui.train, data.gi.train, &data.ui_train, &data.gi_train,
            BaselineFit(options), rng);
  ModelScores scores;
  scores.name = "AGREE";
  scores.user = EvalUser(
      data,
      [&](int32_t entity, const std::vector<data::ItemId>& items) {
        return model.ScoreItemsForUser(entity, items);
      },
      options);
  scores.group = EvalGroup(
      data,
      [&](int32_t entity, const std::vector<data::ItemId>& items) {
        return model.ScoreItemsForGroup(entity, items);
      },
      options);
  return scores;
}

ModelScores RunSigr(const ExperimentData& data, const RunOptions& options,
                    Rng* rng) {
  baselines::Sigr::Options sigr_options;
  baselines::Sigr model(sigr_options, data.num_users(), data.num_items(),
                        &data.world.dataset.groups, &data.world.dataset.social,
                        rng);
  model.Fit(data.ui.train, data.gi.train, &data.ui_train, &data.gi_train,
            BaselineFit(options), rng);
  ModelScores scores;
  scores.name = "SIGR";
  scores.user = EvalUser(
      data,
      [&](int32_t entity, const std::vector<data::ItemId>& items) {
        return model.ScoreItemsForUser(entity, items);
      },
      options);
  scores.group = EvalGroup(
      data,
      [&](int32_t entity, const std::vector<data::ItemId>& items) {
        return model.ScoreItemsForGroup(entity, items);
      },
      options);
  return scores;
}

ModelScores RunStaticAgg(core::GroupSaModel* model,
                         const ExperimentData& data, const RunOptions& options,
                         baselines::ScoreAggregation aggregation) {
  baselines::StaticAggRecommender recommender(model, aggregation);
  ModelScores scores;
  scores.name = baselines::ToString(aggregation);
  scores.group = EvalGroup(
      data,
      [&](int32_t entity, const std::vector<data::ItemId>& items) {
        return recommender.ScoreItemsForGroup(entity, items);
      },
      options);
  return scores;
}

void PrintOverallTable(const std::string& title,
                       const std::vector<ModelScores>& rows,
                       const RunOptions& options) {
  std::printf("\n=== %s ===\n", title.c_str());
  const ModelScores& reference = rows.back();  // GroupSA by convention
  for (int k : options.ks) {
    std::printf("--- K=%d ---\n", k);
    std::printf("%-12s %8s %8s %8s | %8s %8s %8s\n", "Model", "uHR",
                "uNDCG", "uDlt%", "gHR", "gNDCG", "gDlt%");
    for (const ModelScores& row : rows) {
      std::string user_part;
      if (row.user.num_cases > 0) {
        const double delta =
            row.user.HitRatio(k) > 0.0
                ? 100.0 * (reference.user.HitRatio(k) / row.user.HitRatio(k) -
                           1.0)
                : 0.0;
        user_part = StrFormat("%8.4f %8.4f %8.2f", row.user.HitRatio(k),
                              row.user.Ndcg(k), delta);
      } else {
        user_part = StrFormat("%8s %8s %8s", "-", "-", "-");
      }
      const double group_delta =
          row.group.HitRatio(k) > 0.0
              ? 100.0 * (reference.group.HitRatio(k) / row.group.HitRatio(k) -
                         1.0)
              : 0.0;
      std::printf("%-12s %s | %8.4f %8.4f %8.2f\n", row.name.c_str(),
                  user_part.c_str(), row.group.HitRatio(k), row.group.Ndcg(k),
                  group_delta);
    }
  }
  std::fflush(stdout);
}

void PrintGroupTable(const std::string& title,
                     const std::vector<ModelScores>& rows,
                     const RunOptions& options) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-16s", "Model");
  for (int k : options.ks) std::printf(" %7s@%-2d %6s@%-2d", "HR", k, "NDCG", k);
  std::printf("\n");
  for (const ModelScores& row : rows) {
    std::printf("%-16s", row.name.c_str());
    for (int k : options.ks) {
      std::printf("   %8.4f   %8.4f", row.group.HitRatio(k),
                  row.group.Ndcg(k));
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

bool ParseBenchIntFlag(const char* arg, const char* name, int min, int max,
                       int* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  if (!ParseWholeInt(arg + n + 1, min, max, out)) {
    if (max == INT_MAX) {
      std::fprintf(stderr, "%s must be an integer >= %d, got '%s'\n", name,
                   min, arg + n + 1);
    } else {
      std::fprintf(stderr, "%s must be an integer in [%d, %d], got '%s'\n",
                   name, min, max, arg + n + 1);
    }
    std::exit(2);
  }
  return true;
}

RunOptions ParseBenchArgs(int argc, char** argv, RunOptions defaults) {
  RunOptions options = defaults;
  int epochs = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      options = options.Quick();
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      if (!ParseWholeInt(arg + 7, uint64_t{0}, UINT64_MAX, &options.seed)) {
        std::fprintf(stderr, "--seed must be an integer >= 0, got '%s'\n",
                     arg + 7);
        std::exit(2);
      }
    } else if (ParseBenchIntFlag(arg, "--epochs", 1, INT_MAX, &epochs)) {
      options.user_epochs = epochs;
      options.group_epochs = epochs;
      options.baseline_epochs = epochs;
    } else if (!ParseBenchIntFlag(arg, "--candidates", 1, INT_MAX,
                                  &options.num_candidates) &&
               !ParseBenchIntFlag(arg, "--threads", 0, parallel::kMaxThreads,
                                  &options.threads)) {
      std::fprintf(stderr,
                   "unknown flag %s (supported: --quick --seed=N "
                   "--candidates=N --epochs=N --threads=N)\n",
                   arg);
      std::exit(2);
    }
  }
  if (options.threads > 0) parallel::SetGlobalThreads(options.threads);
  return options;
}

}  // namespace groupsa::pipeline
