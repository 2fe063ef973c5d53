#ifndef GROUPSA_DATA_INTERACTION_MATRIX_H_
#define GROUPSA_DATA_INTERACTION_MATRIX_H_

#include <span>
#include <vector>

#include "data/id_lists.h"
#include "data/types.h"

namespace groupsa::data {

// Sparse binary interaction matrix in CSR form (rows -> sorted, deduplicated
// item lists in one flat IdLists), the R^U and R^G of the paper. Immutable
// after construction; copies share the rows.
class InteractionMatrix {
 public:
  InteractionMatrix() = default;
  InteractionMatrix(int num_rows, int num_cols, const EdgeList& edges);

  int num_rows() const { return num_rows_; }
  int num_cols() const { return num_cols_; }
  // Total interactions after deduplication.
  int64_t num_interactions() const { return num_interactions_; }

  // Sorted unique items of `row`.
  std::span<const ItemId> Row(int row) const;

  // True when (row, item) is observed. O(log degree).
  bool Has(int row, ItemId item) const;

  int RowDegree(int row) const {
    return static_cast<int>(Row(row).size());
  }
  // Number of rows interacting with `item` (the item's popularity / document
  // frequency for TF-IDF).
  int ColDegree(ItemId item) const;

  double AvgRowDegree() const;

 private:
  int num_rows_ = 0;
  int num_cols_ = 0;
  int64_t num_interactions_ = 0;
  IdLists rows_;
  std::vector<int> col_degree_;
};

}  // namespace groupsa::data

#endif  // GROUPSA_DATA_INTERACTION_MATRIX_H_
