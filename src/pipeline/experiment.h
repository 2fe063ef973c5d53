#ifndef GROUPSA_PIPELINE_EXPERIMENT_H_
#define GROUPSA_PIPELINE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/agree.h"
#include "baselines/ncf.h"
#include "baselines/popularity.h"
#include "baselines/sigr.h"
#include "baselines/static_agg.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"

namespace groupsa::pipeline {

// Shared experiment plumbing used by the bench binaries (one per paper table
// / figure) and the examples: world generation, splitting, candidate
// sampling, model training, and evaluation, all seed-deterministic.

// Options shared by every experiment run.
struct RunOptions {
  int num_candidates = 100;      // paper: 100 negatives per test case
  std::vector<int> ks = {5, 10};  // paper cutoffs
  int user_epochs = 10;
  int group_epochs = 10;
  int baseline_epochs = 10;  // joint epochs for NCF/AGREE/SIGR
  uint64_t seed = 1;
  // Global pool width for training and evaluation (--threads=N); 0 keeps
  // the current pool (GROUPSA_THREADS env default). Metrics are
  // bit-identical at any width; only wall-clock changes.
  int threads = 0;

  // Shrinks everything for CI smoke runs (--quick flag of the benches).
  RunOptions Quick() const {
    RunOptions q = *this;
    q.user_epochs = 2;
    q.group_epochs = 2;
    q.baseline_epochs = 2;
    return q;
  }
};

// The per-(dataset, seed) data bundle every model trains and evaluates on.
struct ExperimentData {
  data::SyntheticWorld world;
  data::Split ui;  // user-item: per-row 80/10/10 split
  data::Split gi;  // group-item: global split (cold groups in test)
  data::InteractionMatrix ui_train;
  data::InteractionMatrix gi_train;
  data::InteractionMatrix ui_all;
  data::InteractionMatrix gi_all;
  std::vector<eval::RankingCase> user_cases;
  std::vector<eval::RankingCase> group_cases;

  int num_users() const { return world.dataset.num_users; }
  int num_items() const { return world.dataset.num_items; }
  int num_groups() const { return world.dataset.groups.num_groups(); }
};

// Generates the world (world seed comes from `config`) and derives splits,
// matrices and ranking cases from `options.seed`.
ExperimentData PrepareData(const data::SyntheticWorldConfig& config,
                           const RunOptions& options);

// User-task and group-task metrics of one model (either may be empty for
// group-only scorers).
struct ModelScores {
  std::string name;
  eval::EvalResult user;
  eval::EvalResult group;
};

// Evaluation helpers over the prepared ranking cases.
eval::EvalResult EvalUser(const ExperimentData& data,
                          const eval::Scorer& scorer,
                          const RunOptions& options);
eval::EvalResult EvalGroup(const ExperimentData& data,
                           const eval::Scorer& scorer,
                           const RunOptions& options);

// ---------------- Model train-and-score helpers ----------------

// Builds the ModelData view (group table, social graph, TF-IDF Top-H lists
// from the *training* interactions) for a GroupSA variant.
core::ModelData BuildModelData(const ExperimentData& data,
                               const core::GroupSaConfig& config);

// Trains a GroupSA variant and returns the live model (for static
// aggregation reuse and introspection).
std::unique_ptr<core::GroupSaModel> TrainGroupSa(
    const core::GroupSaConfig& config, const ExperimentData& data,
    const RunOptions& options, Rng* rng, const core::ModelData& model_data);

// Scores a trained GroupSA on both tasks.
ModelScores ScoreGroupSa(core::GroupSaModel* model, const ExperimentData& data,
                         const RunOptions& options, const std::string& name);

// Baselines: train + evaluate in one call.
ModelScores RunPopularity(const ExperimentData& data,
                          const RunOptions& options);
ModelScores RunNcf(const ExperimentData& data, const RunOptions& options,
                   Rng* rng);
ModelScores RunAgree(const ExperimentData& data, const RunOptions& options,
                     Rng* rng);
ModelScores RunSigr(const ExperimentData& data, const RunOptions& options,
                    Rng* rng);
// Static score aggregation over an already-trained GroupSA.
ModelScores RunStaticAgg(core::GroupSaModel* model, const ExperimentData& data,
                         const RunOptions& options,
                         baselines::ScoreAggregation aggregation);

// ---------------- Table rendering ----------------

// Prints a paper-style table: one row per model, HR/NDCG at each cutoff for
// the user and group tasks, plus the Delta% of `reference` (last row's
// group HR) over each row, mirroring Tables II/III.
void PrintOverallTable(const std::string& title,
                       const std::vector<ModelScores>& rows,
                       const RunOptions& options);

// Prints group-task-only rows (Figure 3 / Tables V-IX shapes).
void PrintGroupTable(const std::string& title,
                     const std::vector<ModelScores>& rows,
                     const RunOptions& options);

// Reads `arg` into *out when it is `name=N` (`name` with its dashes);
// false when it is another flag. N must be a whole number in [min, max]
// (ParseWholeInt), or the process exits 2 naming the flag.
bool ParseBenchIntFlag(const char* arg, const char* name, int min, int max,
                       int* out);

// Parses the common bench flags: --quick, --seed=N, --candidates=N,
// --epochs=N (every stage) and --threads=N (0 keeps the current pool). A
// malformed value or an unknown flag exits 2.
RunOptions ParseBenchArgs(int argc, char** argv, RunOptions defaults);

}  // namespace groupsa::pipeline

#endif  // GROUPSA_PIPELINE_EXPERIMENT_H_
