#include "core/fallback_recommender.h"

namespace groupsa::core {
namespace {

// Bounds-guarded exclude check: any in-range row that observed `item` skips
// it; out-of-range rows (the degraded path may be serving the very ids that
// failed validation) are simply ignored.
bool AnyRowHas(const data::InteractionMatrix* exclude,
               const std::vector<int32_t>& rows, data::ItemId item) {
  if (exclude == nullptr) return false;
  for (int32_t row : rows) {
    if (row < 0 || row >= exclude->num_rows()) continue;
    if (exclude->Has(row, item)) return true;
  }
  return false;
}

}  // namespace

FallbackRecommender::FallbackRecommender(InferenceEngine* engine,
                                         const data::EdgeList& popularity,
                                         int num_items)
    : engine_(engine), counts_(num_items > 0 ? num_items : 0, 0.0) {
  for (const data::Edge& edge : popularity) {
    if (edge.item >= 0 && edge.item < static_cast<data::ItemId>(counts_.size()))
      counts_[edge.item] += 1.0;
  }
}

FallbackRecommender::Response FallbackRecommender::Degrade(
    std::string error, int k, const data::InteractionMatrix* exclude,
    const std::vector<int32_t>& rows, Response::Source source) {
  degraded_.fetch_add(1, std::memory_order_relaxed);
  Response response;
  response.degraded = true;
  response.error = std::move(error);
  response.source = source;
  response.items = PopularityTopK(k, [&](data::ItemId item) {
    return AnyRowHas(exclude, rows, item);
  });
  return response;
}

FallbackRecommender::Response FallbackRecommender::ServeDegraded(
    std::string reason, int k, const data::InteractionMatrix* exclude,
    const std::vector<int32_t>& rows) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  return Degrade(std::move(reason), k, exclude, rows,
                 Response::Source::kBypassed);
}

FallbackRecommender::Response FallbackRecommender::Serve(
    QueryKind kind, const std::vector<int32_t>& ids, int k,
    const data::InteractionMatrix* exclude,
    const std::function<InferenceEngine::Ranking()>& recommend) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (engine_ == nullptr)
    return Degrade("model unavailable", k, exclude, ids,
                   Response::Source::kNoEngine);
  if (Status s = engine_->ValidateRequest(kind, ids, k); !s.ok())
    return Degrade(s.message(), k, exclude, ids,
                   Response::Source::kEngineError);
  Response response;
  response.items = recommend();
  return response;
}

FallbackRecommender::Response FallbackRecommender::RecommendForUser(
    data::UserId user, int k, const data::InteractionMatrix* exclude) {
  return Serve(QueryKind::kUser, {user}, k, exclude, [&] {
    return engine_->RecommendForUser(user, k, exclude);
  });
}

FallbackRecommender::Response FallbackRecommender::RecommendForGroup(
    data::GroupId group, int k, const data::InteractionMatrix* exclude) {
  return Serve(QueryKind::kGroup, {group}, k, exclude, [&] {
    return engine_->RecommendForGroup(group, k, exclude);
  });
}

FallbackRecommender::Response FallbackRecommender::RecommendForMembers(
    const std::vector<data::UserId>& members, int k,
    const data::InteractionMatrix* exclude) {
  return Serve(QueryKind::kMembers, members, k, exclude, [&] {
    return engine_->RecommendForMembers(members, k, exclude);
  });
}

}  // namespace groupsa::core
