#include "baselines/static_agg.h"

#include <algorithm>

#include "common/macros.h"
#include "core/inference_engine.h"

namespace groupsa::baselines {

std::string ToString(ScoreAggregation aggregation) {
  switch (aggregation) {
    case ScoreAggregation::kAverage:
      return "Group+avg";
    case ScoreAggregation::kLeastMisery:
      return "Group+lm";
    case ScoreAggregation::kMaxSatisfaction:
      return "Group+ms";
  }
  return "?";
}

std::vector<double> AggregateMemberScores(
    const std::vector<std::vector<double>>& member_scores,
    ScoreAggregation aggregation) {
  GROUPSA_CHECK(!member_scores.empty(), "no member scores");
  const size_t num_items = member_scores[0].size();
  std::vector<double> out(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    double acc = member_scores[0][i];
    for (size_t m = 1; m < member_scores.size(); ++m) {
      GROUPSA_CHECK(member_scores[m].size() == num_items,
                    "ragged member score matrix");
      const double s = member_scores[m][i];
      switch (aggregation) {
        case ScoreAggregation::kAverage:
          acc += s;
          break;
        case ScoreAggregation::kLeastMisery:
          acc = std::min(acc, s);
          break;
        case ScoreAggregation::kMaxSatisfaction:
          acc = std::max(acc, s);
          break;
      }
    }
    if (aggregation == ScoreAggregation::kAverage)
      acc /= static_cast<double>(member_scores.size());
    out[i] = acc;
  }
  return out;
}

std::vector<double> StaticAggRecommender::ScoreItemsForGroup(
    data::GroupId group, const std::vector<data::ItemId>& items) const {
  return ScoreItemsForMembers(model_->model_data().groups->Members(group),
                              items);
}

std::vector<double> StaticAggRecommender::ScoreItemsForMembers(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) const {
  return AggregateMemberScores(
      model_->inference().MemberItemScores(members, items), aggregation_);
}

}  // namespace groupsa::baselines
