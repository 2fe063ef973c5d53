#include "data/tfidf.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace groupsa::data {
namespace {

// One row per `row(r)`, r < num_rows: its `top_h` ids with the largest
// scores, stably (score desc, id asc). The table is sized exactly before it
// is filled.
template <typename RowFn, typename Scorer>
IdLists TopByScore(int num_rows, int top_h, const RowFn& row,
                   const Scorer& score) {
  GROUPSA_CHECK(top_h > 0, "top_h must be positive");
  const size_t keep_max = static_cast<size_t>(top_h);
  size_t total = 0;
  for (int r = 0; r < num_rows; ++r)
    total += std::min(keep_max, row(r).size());
  IdLists out;
  out.Reserve(static_cast<size_t>(num_rows), total);
  std::vector<std::pair<double, int32_t>> scored;
  std::vector<int32_t> kept;
  for (int r = 0; r < num_rows; ++r) {
    scored.clear();
    for (int32_t id : row(r)) scored.emplace_back(score(id), id);
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    kept.clear();
    for (size_t i = 0; i < std::min(keep_max, scored.size()); ++i)
      kept.push_back(scored[i].second);
    out.AddRow(kept);
  }
  return out;
}

}  // namespace

IdLists TopItemsPerUser(const InteractionMatrix& ui, int top_h) {
  const double num_users = std::max(1, ui.num_rows());
  return TopByScore(
      ui.num_rows(), top_h, [&](int u) -> const auto& { return ui.Row(u); },
      [&](ItemId item) {
        return std::log(num_users / (1.0 + ui.ColDegree(item)));
      });
}

IdLists TopFriendsPerUser(const SocialGraph& graph, int top_h) {
  const double num_users = std::max(1, graph.num_users());
  return TopByScore(
      graph.num_users(), top_h,
      [&](UserId u) -> const auto& { return graph.Neighbors(u); },
      [&](UserId friend_id) {
        return std::log(num_users / (1.0 + graph.Degree(friend_id)));
      });
}

}  // namespace groupsa::data
