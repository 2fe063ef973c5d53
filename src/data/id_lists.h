#ifndef GROUPSA_DATA_ID_LISTS_H_
#define GROUPSA_DATA_ID_LISTS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/macros.h"

namespace groupsa::data {

// A table of variable-length id lists stored flat: every list's ids back to
// back in one array, plus one end offset per list. A table of n lists costs
// two allocations, where a vector per list costs n + 1, each with its own
// 24-byte header and malloc rounding. A row reads as a span into the flat
// array, valid until the table is appended to or destroyed.
class IdLists {
 public:
  // Reserves room for `rows` more lists holding `ids` ids in all, so a table
  // built to a known size holds no growth slack.
  void Reserve(size_t rows, size_t ids) {
    ends_.reserve(ends_.size() + rows);
    ids_.reserve(ids_.size() + ids);
  }

  // Appends one list.
  void AddRow(std::span<const int32_t> row) {
    GROUPSA_CHECK(row.size() <= std::numeric_limits<uint32_t>::max() -
                                    ids_.size(),
                  "IdLists holds at most 2^32 - 1 ids");
    ids_.insert(ids_.end(), row.begin(), row.end());
    ends_.push_back(static_cast<uint32_t>(ids_.size()));
  }

  int num_rows() const { return static_cast<int>(ends_.size()); }
  // True when the table has no rows (a table of empty rows is not empty).
  bool empty() const { return ends_.empty(); }

  std::span<const int32_t> operator[](int row) const {
    GROUPSA_DCHECK(row >= 0 && row < num_rows(), "IdLists row out of range");
    const uint32_t begin = row == 0 ? 0 : ends_[row - 1];
    return {ids_.data() + begin, ends_[row] - begin};
  }

 private:
  std::vector<int32_t> ids_;
  std::vector<uint32_t> ends_;  // ends_[r]: one past row r's last id
};

}  // namespace groupsa::data

#endif  // GROUPSA_DATA_ID_LISTS_H_
