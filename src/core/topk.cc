#include "core/topk.h"

#include <algorithm>

#include "common/macros.h"

namespace groupsa::core {
namespace {

// The k-bounded selector behind both overloads: keeps the best min(k, n)
// of the n candidates (item_at(i), scores[i]) that `skip` lets through.
// With BetterRanked as the heap's less-than, the front of `kept` is the
// worst entry kept; a candidate replaces it only by ranking better, and
// sort_heap leaves the survivors best first.
template <typename ItemAt>
std::vector<std::pair<data::ItemId, double>> SelectTopK(
    size_t n, const ItemAt& item_at, const std::vector<double>& scores,
    int k, const std::function<bool(data::ItemId)>& skip) {
  std::vector<std::pair<data::ItemId, double>> kept;
  if (k <= 0 || n == 0) return kept;
  const size_t bound = std::min(n, static_cast<size_t>(k));
  kept.reserve(bound);
  for (size_t i = 0; i < n; ++i) {
    const data::ItemId item = item_at(i);
    if (skip != nullptr && skip(item)) continue;
    const std::pair<data::ItemId, double> candidate(item, scores[i]);
    if (kept.size() < bound) {
      kept.push_back(candidate);
      std::push_heap(kept.begin(), kept.end(), BetterRanked);
    } else if (BetterRanked(candidate, kept.front())) {
      std::pop_heap(kept.begin(), kept.end(), BetterRanked);
      kept.back() = candidate;
      std::push_heap(kept.begin(), kept.end(), BetterRanked);
    }
  }
  std::sort_heap(kept.begin(), kept.end(), BetterRanked);
  return kept;
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
  return SelectTopK(
      scores.size(), [](size_t v) { return static_cast<data::ItemId>(v); },
      scores, k, skip);
}

std::vector<std::pair<data::ItemId, double>> TopKItems(
    const std::vector<data::ItemId>& items, const std::vector<double>& scores,
    int k, const std::function<bool(data::ItemId)>& skip) {
  GROUPSA_CHECK(items.size() == scores.size(),
                "TopKItems subset: items/scores size mismatch");
  return SelectTopK(
      items.size(), [&items](size_t i) { return items[i]; }, scores, k, skip);
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
