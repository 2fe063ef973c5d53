#include "data/tfidf.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace groupsa::data {
namespace {

// One row per `row(r)`, r < num_rows: its `top_h` ids with the largest
// `score[id]`, stably (score desc, id asc). The table is sized exactly
// before it is filled.
template <typename RowFn>
IdLists TopByScore(int num_rows, int top_h, const RowFn& row,
                   const std::vector<double>& score) {
  GROUPSA_CHECK(top_h > 0, "top_h must be positive");
  const size_t keep_max = static_cast<size_t>(top_h);
  size_t total = 0;
  for (int r = 0; r < num_rows; ++r)
    total += std::min(keep_max, row(r).size());
  IdLists::Builder out;
  out.Reserve(static_cast<size_t>(num_rows), total);
  std::vector<std::pair<double, int32_t>> scored;
  std::vector<int32_t> kept;
  for (int r = 0; r < num_rows; ++r) {
    scored.clear();
    for (int32_t id : row(r)) scored.emplace_back(score[id], id);
    const size_t keep = std::min(keep_max, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    kept.clear();
    for (size_t i = 0; i < keep; ++i) kept.push_back(scored[i].second);
    out.AddRow(kept);
  }
  return std::move(out).Build();
}

// idf = log(num_users / (1 + degree(id))) for every id < num_ids, each
// computed once rather than once per row that holds the id.
template <typename DegreeFn>
std::vector<double> IdfTable(int num_users, int num_ids,
                             const DegreeFn& degree) {
  const double users = std::max(1, num_users);
  std::vector<double> idf(static_cast<size_t>(num_ids));
  for (int id = 0; id < num_ids; ++id)
    idf[id] = std::log(users / (1.0 + degree(id)));
  return idf;
}

}  // namespace

IdLists TopItemsPerUser(const InteractionMatrix& ui, int top_h) {
  return TopByScore(
      ui.num_rows(), top_h, [&](int u) { return ui.Row(u); },
      IdfTable(ui.num_rows(), ui.num_cols(),
               [&](ItemId item) { return ui.ColDegree(item); }));
}

IdLists TopFriendsPerUser(const SocialGraph& graph, int top_h) {
  return TopByScore(
      graph.num_users(), top_h,
      [&](UserId u) { return graph.Neighbors(u); },
      IdfTable(graph.num_users(), graph.num_users(),
               [&](UserId friend_id) { return graph.Degree(friend_id); }));
}

}  // namespace groupsa::data
