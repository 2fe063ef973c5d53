#include "core/topk.h"

#include <algorithm>

#include "common/macros.h"

namespace groupsa::core {
namespace {

// Cuts `ranked` to its top k under BetterRanked and sorts the survivors.
// The nth_element cut and the final sort share the comparator, so the two
// code paths (k < size vs k >= size) produce identical orderings on ties.
void CutAndSort(std::vector<std::pair<data::ItemId, double>>* ranked, int k) {
  if (static_cast<int>(ranked->size()) > k) {
    std::nth_element(ranked->begin(), ranked->begin() + k, ranked->end(),
                     BetterRanked);
    ranked->resize(static_cast<size_t>(k));
  }
  std::sort(ranked->begin(), ranked->end(), BetterRanked);
}

}  // namespace

bool BetterRanked(const std::pair<data::ItemId, double>& a,
                  const std::pair<data::ItemId, double>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

std::vector<std::pair<data::ItemId, double>> TopKItems(
    const std::vector<double>& scores, int k,
    const std::function<bool(data::ItemId)>& skip) {
  std::vector<std::pair<data::ItemId, double>> ranked;
  if (k <= 0) return ranked;
  ranked.reserve(scores.size());
  for (size_t v = 0; v < scores.size(); ++v) {
    const auto item = static_cast<data::ItemId>(v);
    if (skip != nullptr && skip(item)) continue;
    ranked.emplace_back(item, scores[v]);
  }
  CutAndSort(&ranked, k);
  return ranked;
}

std::vector<std::pair<data::ItemId, double>> TopKItems(
    const std::vector<data::ItemId>& items, const std::vector<double>& scores,
    int k, const std::function<bool(data::ItemId)>& skip) {
  GROUPSA_CHECK(items.size() == scores.size(),
                "TopKItems subset: items/scores size mismatch");
  std::vector<std::pair<data::ItemId, double>> ranked;
  if (k <= 0) return ranked;
  ranked.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (skip != nullptr && skip(items[i])) continue;
    ranked.emplace_back(items[i], scores[i]);
  }
  CutAndSort(&ranked, k);
  return ranked;
}

std::vector<data::ItemId> AllItems(int num_items) {
  std::vector<data::ItemId> items(num_items);
  for (int v = 0; v < num_items; ++v) items[v] = v;
  return items;
}

std::function<bool(data::ItemId)> SeenByAny(
    const data::InteractionMatrix* exclude, const std::vector<int32_t>& rows) {
  if (exclude == nullptr) return nullptr;
  return [exclude, &rows](data::ItemId item) {
    for (int32_t row : rows)
      if (exclude->Has(row, item)) return true;
    return false;
  };
}

std::vector<double> ItemCounts(const data::EdgeList& edges, int num_items) {
  std::vector<double> counts(std::max(num_items, 0), 0.0);
  for (const data::Edge& edge : edges) {
    if (edge.item >= 0 && edge.item < num_items) counts[edge.item] += 1.0;
  }
  return counts;
}

}  // namespace groupsa::core
