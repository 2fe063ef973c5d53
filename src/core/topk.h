#ifndef GROUPSA_CORE_TOPK_H_
#define GROUPSA_CORE_TOPK_H_

#include <functional>
#include <utility>
#include <vector>

#include "data/interaction_matrix.h"
#include "data/types.h"

namespace groupsa::core {

// The single strict-total-order comparator behind every ranking path in the
// library: higher score first, equal scores broken by ascending item id.
// Exact scoring, IVF re-rank, probe selection and popularity answers all rank
// through this one function, which is what lets tied scores come out
// byte-identical across paths (and identical to sorting every candidate).
bool BetterRanked(const std::pair<data::ItemId, double>& a,
                  const std::pair<data::ItemId, double>& b);

// Top-K selection over a full-catalog score vector (scores[v] is the score
// of item v). Items for which `skip` returns true are dropped before
// ranking; pass nullptr to keep everything. Returns (item, score) sorted by
// BetterRanked: descending score, ties broken by ascending item id.
//
// Selection keeps a heap of at most min(k, n) entries whose front is the
// worst one kept, so a candidate that does not enter the top k costs one
// comparison, and ranking n candidates costs O(n log k) at worst. The
// returned vector's capacity() is at most min(k, n): an answer never holds
// a catalog-sized buffer. Because the comparator is a strict total order
// (the item-id tie-break), the result is identical to sorting everything
// and truncating.
std::vector<std::pair<data::ItemId, double>> TopKItems(
    const std::vector<double>& scores, int k,
    const std::function<bool(data::ItemId)>& skip = nullptr);

// Subset variant for candidate re-ranking: scores[i] is the score of
// items[i] (any order, no duplicates expected). Same comparator, same
// k-bounded selection and capacity bound (n = items.size()), so ranking a
// subset that happens to cover the whole catalog returns exactly what the
// full-catalog overload would.
std::vector<std::pair<data::ItemId, double>> TopKItems(
    const std::vector<data::ItemId>& items, const std::vector<double>& scores,
    int k, const std::function<bool(data::ItemId)>& skip = nullptr);

// The 0..num_items-1 identity catalog used by every full-catalog ranking
// entry point.
std::vector<data::ItemId> AllItems(int num_items);

// The seen-item filter of every recommendation: skips an item that any of
// `rows` has observed in `exclude`. Null `exclude` gives a null filter (skip
// nothing). `rows` must outlive the filter.
std::function<bool(data::ItemId)> SeenByAny(
    const data::InteractionMatrix* exclude, const std::vector<int32_t>& rows);

// Interaction counts per item over a catalog of `num_items` items: the
// popularity ranking's scores. Edges whose item is outside the catalog are
// ignored.
std::vector<double> ItemCounts(const data::EdgeList& edges, int num_items);

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_TOPK_H_
