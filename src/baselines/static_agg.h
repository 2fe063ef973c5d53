#ifndef GROUPSA_BASELINES_STATIC_AGG_H_
#define GROUPSA_BASELINES_STATIC_AGG_H_

#include <string>
#include <vector>

#include "core/groupsa_model.h"

namespace groupsa::baselines {

// Predefined score aggregation strategies (late aggregation, Sec. VI-A).
// Following the paper's protocol these run on top of a trained GroupSA: each
// member's personal preference scores are predicted first, then combined
// with a static rule (Group+avg / Group+lm / Group+ms in Tables II/III).
enum class ScoreAggregation {
  kAverage,          // equal contribution
  kLeastMisery,      // min over members
  kMaxSatisfaction,  // max over members
};

std::string ToString(ScoreAggregation aggregation);

// Combines a [member][item] score matrix into per-item group scores.
std::vector<double> AggregateMemberScores(
    const std::vector<std::vector<double>>& member_scores,
    ScoreAggregation aggregation);

// Group scorer over a trained GroupSA model. Group+avg is also the paper's
// Sec. II-F fast path: the members' blended user scores (Eq. 23), averaged,
// with no voting-network pass per candidate item.
class StaticAggRecommender {
 public:
  StaticAggRecommender(core::GroupSaModel* model,
                       ScoreAggregation aggregation)
      : model_(model), aggregation_(aggregation) {}

  std::vector<double> ScoreItemsForGroup(
      data::GroupId group, const std::vector<data::ItemId>& items) const;
  std::vector<double> ScoreItemsForMembers(
      const std::vector<data::UserId>& members,
      const std::vector<data::ItemId>& items) const;

  ScoreAggregation aggregation() const { return aggregation_; }

 private:
  core::GroupSaModel* model_;
  ScoreAggregation aggregation_;
};

}  // namespace groupsa::baselines

#endif  // GROUPSA_BASELINES_STATIC_AGG_H_
