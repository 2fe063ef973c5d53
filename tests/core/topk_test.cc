// Edge cases for the k-bounded top-K selector: the serving paths lean on
// TopKItems behaving sanely at the boundaries (k past the catalog, k == 0,
// ties, skip filters that eat everything), because requests arriving at the
// daemon can put any of these in play. The selector must also equal a
// sort-everything reference on every input order, and an answer must hold
// at most min(k, n) entries, since every response carries one.

#include "core/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace groupsa::core {
namespace {

using Ranking = std::vector<std::pair<data::ItemId, double>>;
using SkipFn = std::function<bool(data::ItemId)>;

// The sort-everything reference the selector must equal: every candidate
// `skip` lets through, sorted by descending score then ascending id (written
// out here, not through BetterRanked), truncated to k.
Ranking SortAndTruncate(const std::vector<data::ItemId>& items,
                        const std::vector<double>& scores, int k,
                        const SkipFn& skip) {
  Ranking all;
  for (size_t i = 0; i < items.size(); ++i) {
    if (skip != nullptr && skip(items[i])) continue;
    all.emplace_back(items[i], scores[i]);
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return std::make_pair(-a.second, a.first) <
           std::make_pair(-b.second, b.first);
  });
  all.resize(std::min(all.size(), static_cast<size_t>(std::max(k, 0))));
  return all;
}

// An answer never holds more than min(k, n) entries for n candidates.
void ExpectAnswerSized(const Ranking& ranked, int k, size_t n) {
  EXPECT_LE(ranked.capacity(), std::min(static_cast<size_t>(k), n));
}

TEST(TopKItemsTest, RanksByScoreDescendingThenIdAscending) {
  const std::vector<double> scores = {0.5, 2.0, 1.0, 2.0};
  const auto ranked = TopKItems(scores, 4);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].first, 1);  // 2.0, lower id wins the tie
  EXPECT_EQ(ranked[1].first, 3);  // 2.0
  EXPECT_EQ(ranked[2].first, 2);  // 1.0
  EXPECT_EQ(ranked[3].first, 0);  // 0.5
  EXPECT_DOUBLE_EQ(ranked[0].second, 2.0);
}

TEST(TopKItemsTest, KLargerThanCatalogReturnsWholeCatalog) {
  const std::vector<double> scores = {3.0, 1.0, 2.0};
  const auto ranked = TopKItems(scores, 100);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, 0);
  EXPECT_EQ(ranked[1].first, 2);
  EXPECT_EQ(ranked[2].first, 1);
}

TEST(TopKItemsTest, NonPositiveKIsEmpty) {
  const std::vector<double> scores = {3.0, 1.0};
  EXPECT_TRUE(TopKItems(scores, 0).empty());
  EXPECT_TRUE(TopKItems(scores, -5).empty());
}

TEST(TopKItemsTest, AllTiedScoresComeBackInIdOrder) {
  const std::vector<double> scores(7, 1.25);
  const auto ranked = TopKItems(scores, 5);
  ASSERT_EQ(ranked.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ranked[static_cast<size_t>(i)].first, i);
    EXPECT_DOUBLE_EQ(ranked[static_cast<size_t>(i)].second, 1.25);
  }
}

TEST(TopKItemsTest, SkipDropsItemsBeforeRanking) {
  const std::vector<double> scores = {5.0, 4.0, 3.0, 2.0};
  const auto ranked =
      TopKItems(scores, 3, [](data::ItemId item) { return item % 2 == 0; });
  ASSERT_EQ(ranked.size(), 2u);  // only odd items survive
  EXPECT_EQ(ranked[0].first, 1);
  EXPECT_EQ(ranked[1].first, 3);
}

TEST(TopKItemsTest, SkipEverythingYieldsEmptyNotError) {
  const std::vector<double> scores = {5.0, 4.0, 3.0};
  const auto ranked = TopKItems(scores, 2, [](data::ItemId) { return true; });
  EXPECT_TRUE(ranked.empty());
}

TEST(TopKItemsTest, EmptyCatalogYieldsEmpty) {
  EXPECT_TRUE(TopKItems({}, 3).empty());
}

TEST(TopKItemsTest, SelectionMatchesFullSortTruncation) {
  // The k-bounded selection must be invisible: identical to
  // sort-everything.
  std::vector<double> scores;
  for (int i = 0; i < 257; ++i)
    scores.push_back(static_cast<double>((i * 7919) % 101));  // many ties
  const auto selected = TopKItems(scores, 10);
  const auto full = TopKItems(scores, static_cast<int>(scores.size()));
  ASSERT_EQ(selected.size(), 10u);
  for (size_t i = 0; i < selected.size(); ++i) {
    EXPECT_EQ(selected[i].first, full[i].first);
    EXPECT_DOUBLE_EQ(selected[i].second, full[i].second);
  }
}

TEST(BetterRankedTest, IsAStrictTotalOrder) {
  using P = std::pair<data::ItemId, double>;
  EXPECT_TRUE(BetterRanked(P{0, 2.0}, P{1, 1.0}));   // score wins
  EXPECT_FALSE(BetterRanked(P{0, 1.0}, P{1, 2.0}));
  EXPECT_TRUE(BetterRanked(P{3, 1.0}, P{7, 1.0}));   // tie: ascending id
  EXPECT_FALSE(BetterRanked(P{7, 1.0}, P{3, 1.0}));
  EXPECT_FALSE(BetterRanked(P{5, 1.0}, P{5, 1.0}));  // irreflexive
}

// --------------------------------------------------------------------------
// Subset overload (candidate re-ranking)
// --------------------------------------------------------------------------

TEST(TopKSubsetTest, MatchesFullCatalogWhenSubsetCoversEverything) {
  const std::vector<double> catalog_scores = {0.5, 2.0, 1.0, 2.0, -1.0};
  // Candidate ids arrive in arbitrary (probe) order with their own score
  // layout; covering the whole catalog must reproduce the full overload
  // exactly.
  const std::vector<data::ItemId> items = {3, 0, 4, 1, 2};
  std::vector<double> scores;
  for (data::ItemId item : items)
    scores.push_back(catalog_scores[static_cast<size_t>(item)]);
  const auto subset = TopKItems(items, scores, 3);
  const auto full = TopKItems(catalog_scores, 3);
  ASSERT_EQ(subset.size(), full.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    EXPECT_EQ(subset[i].first, full[i].first);
    EXPECT_DOUBLE_EQ(subset[i].second, full[i].second);
  }
}

TEST(TopKSubsetTest, TieHeavySubsetBreaksTiesByAscendingId) {
  // Equal scores everywhere, shuffled candidate order: ids must come back
  // ascending regardless of input order, whether candidates displace the
  // kept worst (k < size) or all fit in the heap (k >= size).
  const std::vector<data::ItemId> items = {9, 2, 7, 0, 5, 3};
  const std::vector<double> scores(items.size(), 4.0);
  for (int k : {3, 6, 100}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const auto ranked = TopKItems(items, scores, k);
    std::vector<data::ItemId> sorted = items;
    std::sort(sorted.begin(), sorted.end());
    const size_t want = std::min<size_t>(items.size(), static_cast<size_t>(k));
    ASSERT_EQ(ranked.size(), want);
    for (size_t i = 0; i < want; ++i) EXPECT_EQ(ranked[i].first, sorted[i]);
  }
}

TEST(TopKSubsetTest, SkipAndBoundaries) {
  const std::vector<data::ItemId> items = {4, 1, 8};
  const std::vector<double> scores = {3.0, 2.0, 1.0};
  const auto ranked =
      TopKItems(items, scores, 5, [](data::ItemId item) { return item == 4; });
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, 1);
  EXPECT_EQ(ranked[1].first, 8);
  EXPECT_TRUE(TopKItems(items, scores, 0).empty());
  EXPECT_TRUE(TopKItems(std::vector<data::ItemId>{}, std::vector<double>{}, 3)
                  .empty());
}

TEST(TopKItemsTest, TieHeavyNthElementCutMatchesFullSort) {
  // Only two distinct scores across a big catalog: the top-k cut lands
  // inside a tie run, where the selector's heap keeps or displaces entries
  // of equal score by id alone. A selector that compared scores without the
  // id tie-break would keep the wrong ids there. Regression for the
  // deterministic-tie contract (the name dates from the nth_element cut).
  std::vector<double> scores(301);
  for (size_t i = 0; i < scores.size(); ++i) scores[i] = (i % 3 == 0) ? 2 : 1;
  const auto selected = TopKItems(scores, 150);
  const auto full = TopKItems(scores, static_cast<int>(scores.size()));
  ASSERT_EQ(selected.size(), 150u);
  for (size_t i = 0; i < selected.size(); ++i) {
    EXPECT_EQ(selected[i].first, full[i].first);
    EXPECT_DOUBLE_EQ(selected[i].second, full[i].second);
  }
  // Inside each score band, ids ascend.
  for (size_t i = 1; i < selected.size(); ++i) {
    if (selected[i].second == selected[i - 1].second) {
      EXPECT_LT(selected[i - 1].first, selected[i].first);
    }
  }
}

// --------------------------------------------------------------------------
// The k-bounded selector against the sort-everything reference
// --------------------------------------------------------------------------

constexpr int kN = 64;

// Candidate scores in input order for each shape the heap must survive.
// "ascending": every candidate displaces the kept worst; "descending": none
// does once the heap is full; "tied": only ids decide; "bands": exactly k
// candidates, scattered through the input, score above the rest, so the two
// score bands meet at the cut.
std::vector<std::pair<const char*, std::vector<double>>> Shapes(int k) {
  std::vector<double> ascending(kN), descending(kN), tied(kN, 0.5), bands(kN);
  for (int i = 0; i < kN; ++i) {
    ascending[static_cast<size_t>(i)] = i;
    descending[static_cast<size_t>(i)] = kN - i;
    bands[static_cast<size_t>(i)] = (i * 7) % kN < k ? 2.0 : 1.0;
  }
  return {{"ascending", ascending},
          {"descending", descending},
          {"tied", tied},
          {"bands", bands}};
}

const SkipFn kSkipNone = nullptr;
const SkipFn kSkipThirds = [](data::ItemId item) { return item % 3 == 0; };

// One TopKItems overload over a fixed candidate list: (scores, k, skip).
using Select =
    std::function<Ranking(const std::vector<double>&, int, const SkipFn&)>;

// Checks `select` over candidates `items` against the sort-everything
// reference on every shape, k and skip filter, and its answer's size bound.
void ExpectMatchesSortEverything(const std::vector<data::ItemId>& items,
                                 const Select& select) {
  for (int k : {1, 10, kN - 1, kN, kN + 1}) {
    for (const auto& [shape, scores] : Shapes(k)) {
      for (const SkipFn* skip : {&kSkipNone, &kSkipThirds}) {
        SCOPED_TRACE(::testing::Message() << shape << " k=" << k << " skip="
                                          << (*skip != nullptr));
        const Ranking ranked = select(scores, k, *skip);
        EXPECT_EQ(ranked, SortAndTruncate(items, scores, k, *skip));
        ExpectAnswerSized(ranked, k, items.size());
      }
    }
  }
}

// Checks that `select` over `n` candidates answers with at most min(k, n)
// entries at k = 1, around n, far past n, and when skip drops everything.
void ExpectAnswerSizedForEveryK(size_t n, const Select& select) {
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i)
    scores[i] = static_cast<double>((i * 7919) % 101);
  for (int k : {1, 10, static_cast<int>(n) - 1, static_cast<int>(n),
                static_cast<int>(n) + 1, 100000}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const Ranking ranked = select(scores, k, nullptr);
    EXPECT_EQ(ranked.size(), std::min(n, static_cast<size_t>(k)));
    ExpectAnswerSized(ranked, k, n);
  }
  const Ranking none = select(scores, 10, [](data::ItemId) { return true; });
  EXPECT_TRUE(none.empty());
  ExpectAnswerSized(none, 10, n);
}

TEST(TopKItemsTest, MatchesSortEverythingOnEveryShapeAndK) {
  ExpectMatchesSortEverything(
      AllItems(kN),
      [](const std::vector<double>& scores, int k, const SkipFn& skip) {
        return TopKItems(scores, k, skip);
      });
}

TEST(TopKSubsetTest, MatchesSortEverythingOnEveryShapeAndK) {
  // Sparse ids in shuffled order, so neither input order nor id order
  // lines up with the ranking.
  std::vector<data::ItemId> items(kN);
  for (int i = 0; i < kN; ++i)
    items[static_cast<size_t>(i)] = 1000 + 7 * ((i * 37 + 11) % kN);
  ExpectMatchesSortEverything(
      items, [&items](const std::vector<double>& scores, int k,
                      const SkipFn& skip) {
        return TopKItems(items, scores, k, skip);
      });
}

TEST(TopKItemsTest, AnswerHoldsAtMostKEntries) {
  ExpectAnswerSizedForEveryK(
      500, [](const std::vector<double>& scores, int k, const SkipFn& skip) {
        return TopKItems(scores, k, skip);
      });
}

TEST(TopKSubsetTest, AnswerHoldsAtMostKEntries) {
  const std::vector<data::ItemId> items = AllItems(500);
  ExpectAnswerSizedForEveryK(
      items.size(), [&items](const std::vector<double>& scores, int k,
                             const SkipFn& skip) {
        return TopKItems(items, scores, k, skip);
      });
}

TEST(ItemCountsTest, CountsEdgesPerItemAndIgnoresOutsideTheCatalog) {
  // Item 2 three times, item 0 twice, item 1 once; items 3/4 unseen. Items
  // 99 and -3 lie outside the 5-item catalog.
  const data::EdgeList edges = {{0, 2}, {1, 2}, {2, 2}, {0, 0},
                                {1, 0}, {2, 1}, {0, 99}, {0, -3}};
  EXPECT_EQ(ItemCounts(edges, 5), (std::vector<double>{2, 1, 3, 0, 0}));
  EXPECT_TRUE(ItemCounts(edges, 0).empty());
}

TEST(SeenByAnyTest, SkipsWhatAnyRowObserved) {
  const data::InteractionMatrix seen(/*num_rows=*/3, /*num_items=*/4,
                                     {{0, 1}, {2, 3}});
  const std::vector<int32_t> rows = {0, 2};
  const auto skip = SeenByAny(&seen, rows);
  ASSERT_NE(skip, nullptr);
  EXPECT_FALSE(skip(0));
  EXPECT_TRUE(skip(1));
  EXPECT_FALSE(skip(2));
  EXPECT_TRUE(skip(3));
  EXPECT_EQ(SeenByAny(nullptr, rows), nullptr);
}

TEST(AllItemsTest, IdentityCatalog) {
  const auto items = AllItems(4);
  ASSERT_EQ(items.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(items[static_cast<size_t>(i)], i);
  EXPECT_TRUE(AllItems(0).empty());
}

}  // namespace
}  // namespace groupsa::core
