#include "data/interaction_matrix.h"

#include <algorithm>

#include "common/macros.h"

namespace groupsa::data {

InteractionMatrix::InteractionMatrix(int num_rows, int num_cols,
                                     const EdgeList& edges)
    : num_rows_(num_rows), num_cols_(num_cols) {
  for (const Edge& e : edges) {
    GROUPSA_CHECK(e.row >= 0 && e.row < num_rows, "edge row out of range");
    GROUPSA_CHECK(e.item >= 0 && e.item < num_cols, "edge item out of range");
  }
  rows_ = IdLists::SortedUnique(num_rows, [&](const auto& emit) {
    for (const Edge& e : edges) emit(e.row, e.item);
  });
  num_interactions_ = static_cast<int64_t>(rows_.num_ids());
  col_degree_.assign(num_cols, 0);
  for (int r = 0; r < num_rows; ++r)
    for (ItemId item : rows_[r]) ++col_degree_[item];
}

std::span<const ItemId> InteractionMatrix::Row(int row) const {
  GROUPSA_CHECK(row >= 0 && row < num_rows_, "row out of range");
  return rows_[row];
}

bool InteractionMatrix::Has(int row, ItemId item) const {
  const std::span<const ItemId> items = Row(row);
  return std::binary_search(items.begin(), items.end(), item);
}

int InteractionMatrix::ColDegree(ItemId item) const {
  GROUPSA_CHECK(item >= 0 && item < num_cols_, "item out of range");
  return col_degree_[item];
}

double InteractionMatrix::AvgRowDegree() const {
  if (num_rows_ == 0) return 0.0;
  return static_cast<double>(num_interactions_) / num_rows_;
}

}  // namespace groupsa::data
