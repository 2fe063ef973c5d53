#include "data/id_lists.h"

#include <vector>

#include <gtest/gtest.h>

namespace groupsa::data {
namespace {

std::vector<int32_t> RowOf(const IdLists& lists, int row) {
  const std::span<const int32_t> span = lists[row];
  return {span.begin(), span.end()};
}

TEST(IdListsTest, EmptyTableHasNoRows) {
  const IdLists lists;
  EXPECT_TRUE(lists.empty());
  EXPECT_EQ(lists.num_rows(), 0);
}

TEST(IdListsTest, EmptyRowsAreKeptAndReadEmpty) {
  IdLists lists;
  lists.AddRow({});
  const std::vector<int32_t> middle = {4, 2};
  lists.AddRow(middle);
  lists.AddRow({});
  EXPECT_FALSE(lists.empty());
  ASSERT_EQ(lists.num_rows(), 3);
  EXPECT_TRUE(lists[0].empty());
  EXPECT_EQ(RowOf(lists, 1), middle);
  EXPECT_TRUE(lists[2].empty());
}

TEST(IdListsTest, RowsReadBackInOrderFromOneFlatArray) {
  const std::vector<std::vector<int32_t>> rows = {
      {7}, {3, 1, 2}, {}, {9, 8, 7, 6}, {0}};
  IdLists lists;
  size_t total = 0;
  for (const auto& row : rows) total += row.size();
  lists.Reserve(rows.size(), total);
  for (const auto& row : rows) lists.AddRow(row);
  ASSERT_EQ(lists.num_rows(), static_cast<int>(rows.size()));
  for (size_t r = 0; r < rows.size(); ++r)
    EXPECT_EQ(RowOf(lists, static_cast<int>(r)), rows[r]) << "row " << r;
  // Each row's span starts where the previous one ended.
  EXPECT_EQ(lists[1].data(), lists[0].data() + 1);
  EXPECT_EQ(lists[3].data(), lists[1].data() + 3);
  EXPECT_EQ(lists[4].data(), lists[3].data() + 4);
}

}  // namespace
}  // namespace groupsa::data
