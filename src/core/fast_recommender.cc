#include "core/fast_recommender.h"

#include "common/macros.h"
#include "core/inference_engine.h"

namespace groupsa::core {

std::vector<double> FastGroupRecommender::ScoreItemsForMembers(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) const {
  GROUPSA_CHECK(!members.empty(), "fast recommender needs members");
  return model_->inference().Score(QueryKind::kMemberAverage, members, items);
}

std::vector<std::pair<data::ItemId, double>>
FastGroupRecommender::RecommendForMembers(
    const std::vector<data::UserId>& members, int k,
    const data::InteractionMatrix* exclude) const {
  GROUPSA_CHECK(!members.empty(), "fast recommender needs members");
  InferenceEngine& engine = model_->inference();
  InferenceEngine::Plan plan = engine.EnginePlan();
  plan.topk = mode_;
  plan.score = score_;
  return engine.Recommend(QueryKind::kMemberAverage, members, k, exclude,
                          plan);
}

}  // namespace groupsa::core
