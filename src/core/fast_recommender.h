#ifndef GROUPSA_CORE_FAST_RECOMMENDER_H_
#define GROUPSA_CORE_FAST_RECOMMENDER_H_

#include <utility>
#include <vector>

#include "core/groupsa_model.h"
#include "core/item_index.h"
#include "core/quantized.h"
#include "data/interaction_matrix.h"

namespace groupsa::core {

// Fast group recommendation (Sec. II-F): instead of running the multi-layer
// voting network per candidate item, score each member individually with the
// blended user score (Eq. 23) and average — a time/accuracy trade-off for
// large groups. The member embeddings already carry group-mate interests
// through joint training, which is why this stays competitive.
//
// Both calls are member-average queries (QueryKind::kMemberAverage) on the
// model's InferenceEngine: the same retrieval pipeline, rep cache and
// validation boundary (InferenceEngine::ValidateRequest) as the engine's
// own Recommend*, run under this recommender's modes.
class FastGroupRecommender {
 public:
  // `model` must outlive the recommender.
  explicit FastGroupRecommender(GroupSaModel* model) : model_(model) {}

  // Retrieval mode for RecommendForMembers. Under kIvf the coarse stage
  // averages the members' exact centroid pseudo-item scores (the same
  // averaging the fine stage applies to real items), probes the engine's
  // item index, and re-ranks the candidate union exactly — so nprobe >=
  // nlist is bit-identical to kExact here too. Setup-time call: must not
  // race with in-flight recommendations.
  void set_topk_mode(TopKMode mode) { mode_ = mode; }
  TopKMode topk_mode() const { return mode_; }

  // Candidate-scan precision for RecommendForMembers. Under kInt8 the
  // members' reps come from the engine's quantized cache, the candidates
  // are scanned with the int8 path (averaged like the exact scores), and
  // the engine's Int8Config::rerank_k best averaged scans are re-ranked
  // through the exact FP32 member scores; with kIvf the scan covers the IVF
  // candidate union instead of the catalog. Setup-time call, like
  // set_topk_mode.
  void set_score_mode(ScoreMode mode) { score_ = mode; }
  ScoreMode score_mode() const { return score_; }

  // Average-of-member-scores for an ad-hoc member list.
  std::vector<double> ScoreItemsForMembers(
      const std::vector<data::UserId>& members,
      const std::vector<data::ItemId>& items) const;

  // Top-K over the full catalog. `exclude` is a user-row interaction matrix
  // (the members are ad-hoc, so there is no group row to consult): when
  // non-null, an item is filtered as soon as ANY member has observed it.
  std::vector<std::pair<data::ItemId, double>> RecommendForMembers(
      const std::vector<data::UserId>& members, int k,
      const data::InteractionMatrix* exclude = nullptr) const;

 private:
  GroupSaModel* model_;
  TopKMode mode_ = TopKMode::kExact;
  ScoreMode score_ = ScoreMode::kExact;
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_FAST_RECOMMENDER_H_
