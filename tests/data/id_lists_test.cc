#include "data/id_lists.h"

#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace groupsa::data {
namespace {

std::vector<int32_t> RowOf(const IdLists& lists, int row) {
  const std::span<const int32_t> span = lists[row];
  return {span.begin(), span.end()};
}

IdLists Build(const std::vector<std::vector<int32_t>>& rows) {
  IdLists::Builder builder;
  for (const auto& row : rows) builder.AddRow(row);
  return std::move(builder).Build();
}

// SortedUnique over explicit (row, id) pairs.
IdLists FromPairs(int num_rows,
                  const std::vector<std::pair<int32_t, int32_t>>& pairs) {
  return IdLists::SortedUnique(num_rows, [&](const auto& emit) {
    for (const auto& [row, id] : pairs) emit(row, id);
  });
}

// A row reads only through a span of const ids.
static_assert(std::is_same_v<decltype(std::declval<const IdLists&>()[0]),
                             std::span<const int32_t>>);

TEST(IdListsTest, EmptyTableHasNoRows) {
  const IdLists lists;
  EXPECT_TRUE(lists.empty());
  EXPECT_EQ(lists.num_rows(), 0);
}

TEST(IdListsTest, EmptyRowsAreKeptAndReadEmpty) {
  const std::vector<int32_t> middle = {4, 2};
  const IdLists lists = Build({{}, middle, {}});
  EXPECT_FALSE(lists.empty());
  ASSERT_EQ(lists.num_rows(), 3);
  EXPECT_TRUE(lists[0].empty());
  EXPECT_EQ(RowOf(lists, 1), middle);
  EXPECT_TRUE(lists[2].empty());
}

TEST(IdListsTest, RowsReadBackInOrderFromOneFlatArray) {
  const std::vector<std::vector<int32_t>> rows = {
      {7}, {3, 1, 2}, {}, {9, 8, 7, 6}, {0}};
  IdLists::Builder builder;
  size_t total = 0;
  for (const auto& row : rows) total += row.size();
  builder.Reserve(rows.size(), total);
  for (const auto& row : rows) builder.AddRow(row);
  const IdLists lists = std::move(builder).Build();
  ASSERT_EQ(lists.num_rows(), static_cast<int>(rows.size()));
  for (size_t r = 0; r < rows.size(); ++r)
    EXPECT_EQ(RowOf(lists, static_cast<int>(r)), rows[r]) << "row " << r;
  // Each row's span starts where the previous one ended.
  EXPECT_EQ(lists[1].data(), lists[0].data() + 1);
  EXPECT_EQ(lists[3].data(), lists[1].data() + 3);
  EXPECT_EQ(lists[4].data(), lists[3].data() + 4);
}

TEST(IdListsTest, CopiesShareRowStorage) {
  const IdLists original = Build({{5, 1}, {}, {3}});
  const IdLists copy = original;
  IdLists assigned;
  assigned = copy;
  ASSERT_EQ(copy.num_rows(), 3);
  for (int r = 0; r < original.num_rows(); ++r) {
    EXPECT_EQ(copy[r].data(), original[r].data()) << "row " << r;
    EXPECT_EQ(assigned[r].data(), original[r].data()) << "row " << r;
  }
  // A move hands the same storage over.
  const int32_t* const first = original[0].data();
  IdLists source = original;
  const IdLists moved = std::move(source);
  EXPECT_EQ(moved[0].data(), first);
}

TEST(IdListsTest, ReassigningOneCopyLeavesTheOthersRows) {
  IdLists a = Build({{1, 2}, {3}});
  const IdLists b = a;
  const int32_t* const shared = b[0].data();
  a = Build({{9}});  // replaces a's table; the shared one is not touched
  EXPECT_EQ(RowOf(a, 0), std::vector<int32_t>({9}));
  EXPECT_EQ(b[0].data(), shared);
  EXPECT_EQ(RowOf(b, 0), std::vector<int32_t>({1, 2}));
  EXPECT_EQ(RowOf(b, 1), std::vector<int32_t>({3}));
}

TEST(IdListsTest, SortedUniqueSortsAndDropsRepeats) {
  const IdLists lists =
      FromPairs(3, {{1, 7}, {0, 4}, {1, 2}, {0, 4}, {1, 7}, {2, 0}, {1, 5}});
  ASSERT_EQ(lists.num_rows(), 3);
  EXPECT_EQ(RowOf(lists, 0), std::vector<int32_t>({4}));
  EXPECT_EQ(RowOf(lists, 1), std::vector<int32_t>({2, 5, 7}));
  EXPECT_EQ(RowOf(lists, 2), std::vector<int32_t>({0}));
  EXPECT_EQ(lists.num_ids(), 5u);
  // Rows are packed back to back after the repeats went.
  EXPECT_EQ(lists[1].data(), lists[0].data() + 1);
  EXPECT_EQ(lists[2].data(), lists[1].data() + 3);
}

TEST(IdListsTest, SortedUniqueKeepsEmptyFirstAndLastRows) {
  const IdLists lists = FromPairs(4, {{2, 3}, {1, 9}, {2, 3}, {1, 8}});
  ASSERT_EQ(lists.num_rows(), 4);
  EXPECT_TRUE(lists[0].empty());
  EXPECT_EQ(RowOf(lists, 1), std::vector<int32_t>({8, 9}));
  EXPECT_EQ(RowOf(lists, 2), std::vector<int32_t>({3}));
  EXPECT_TRUE(lists[3].empty());
  EXPECT_EQ(lists.num_ids(), 3u);
}

TEST(IdListsTest, SortedUniqueOfNoPairsHasEmptyRows) {
  const IdLists lists = FromPairs(3, {});
  ASSERT_EQ(lists.num_rows(), 3);
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(lists[r].empty()) << "row " << r;
  EXPECT_EQ(lists.num_ids(), 0u);
  EXPECT_TRUE(FromPairs(0, {}).empty());
}

TEST(IdListsTest, SortedUniqueBuildsASingleRow) {
  const IdLists lists = FromPairs(1, {{0, 3}, {0, -1}, {0, 3}, {0, 0}});
  ASSERT_EQ(lists.num_rows(), 1);
  EXPECT_EQ(RowOf(lists, 0), std::vector<int32_t>({-1, 0, 3}));
}

}  // namespace
}  // namespace groupsa::data
