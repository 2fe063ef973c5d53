#ifndef GROUPSA_DATA_ID_LISTS_H_
#define GROUPSA_DATA_ID_LISTS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace groupsa::data {

// A table of variable-length id lists stored flat, the data layer's one id
// table (CSR): every list's ids back to back in one array, plus one end
// offset per list. A table of n lists costs two allocations, where a vector
// per list costs n + 1, each with its own 24-byte header and malloc
// rounding.
//
// A table is built whole, by a Builder or by SortedUnique, and never changes
// after. Copies share one immutable storage, so copying a table is a
// pointer copy and a row's span stays valid while any copy lives.
class IdLists {
 public:
  class Builder;

  // A table with no rows.
  IdLists() = default;

  // Builds `num_rows` rows from (row, id) pairs by counting sort: it counts
  // each row, places the ids, then sorts each row and drops its repeats in
  // place, so the table holds exactly its unique ids. `pairs(emit)` calls
  // emit(row, id) once per pair. It is called twice, to count and to place,
  // and must emit the same pairs both times.
  template <typename PairsFn>
  static IdLists SortedUnique(int num_rows, const PairsFn& pairs);

  int num_rows() const {
    return storage_ == nullptr ? 0
                               : static_cast<int>(storage_->ends.size());
  }
  // True when the table has no rows (a table of empty rows is not empty).
  bool empty() const { return num_rows() == 0; }
  // Ids over all rows.
  size_t num_ids() const {
    return storage_ == nullptr ? 0 : storage_->ids.size();
  }

  std::span<const int32_t> operator[](int row) const {
    GROUPSA_DCHECK(row >= 0 && row < num_rows(), "IdLists row out of range");
    const std::vector<uint32_t>& ends = storage_->ends;
    const uint32_t begin = row == 0 ? 0 : ends[row - 1];
    return {storage_->ids.data() + begin, ends[row] - begin};
  }

 private:
  struct Storage {
    std::vector<int32_t> ids;
    std::vector<uint32_t> ends;  // ends[r]: one past row r's last id
  };

  explicit IdLists(Storage storage)
      : storage_(std::make_shared<const Storage>(std::move(storage))) {}

  static void CheckIdCount(size_t ids) {
    GROUPSA_CHECK(ids <= std::numeric_limits<uint32_t>::max(),
                  "IdLists holds at most 2^32 - 1 ids");
  }

  std::shared_ptr<const Storage> storage_;
};

// Appends rows in order; Build() hands them over as a table.
class IdLists::Builder {
 public:
  // Reserves room for `rows` more lists holding `ids` ids in all, so a table
  // built to a known size holds no growth slack.
  void Reserve(size_t rows, size_t ids) {
    storage_.ends.reserve(storage_.ends.size() + rows);
    storage_.ids.reserve(storage_.ids.size() + ids);
  }

  // Appends one list.
  void AddRow(std::span<const int32_t> row) {
    CheckIdCount(storage_.ids.size() + row.size());
    storage_.ids.insert(storage_.ids.end(), row.begin(), row.end());
    storage_.ends.push_back(static_cast<uint32_t>(storage_.ids.size()));
  }

  IdLists Build() && { return IdLists(std::move(storage_)); }

 private:
  Storage storage_;
};

template <typename PairsFn>
IdLists IdLists::SortedUnique(int num_rows, const PairsFn& pairs) {
  Storage s;
  s.ends.assign(static_cast<size_t>(num_rows), 0);
  size_t total = 0;
  pairs([&](int32_t row, int32_t) {
    GROUPSA_CHECK(row >= 0 && row < num_rows, "IdLists row out of range");
    ++s.ends[row];
    ++total;
  });
  CheckIdCount(total);
  // ends[r] becomes row r's start; placing advances it to row r's end.
  uint32_t start = 0;
  for (uint32_t& end : s.ends) {
    const uint32_t count = end;
    end = start;
    start += count;
  }
  s.ids.resize(total);
  pairs([&](int32_t row, int32_t id) { s.ids[s.ends[row]++] = id; });
  // Sorts each row and drops its repeats; rows shift left over the dropped
  // ids, so `read` (a row's placed start) never falls behind `write`.
  size_t read = 0;
  size_t write = 0;
  for (uint32_t& end : s.ends) {
    const auto first = s.ids.begin() + static_cast<ptrdiff_t>(read);
    const auto last = s.ids.begin() + end;
    std::sort(first, last);
    const auto unique_last = std::unique(first, last);
    for (auto it = first; it != unique_last; ++it) s.ids[write++] = *it;
    read = end;
    end = static_cast<uint32_t>(write);
  }
  s.ids.resize(write);
  s.ids.shrink_to_fit();
  return IdLists(std::move(s));
}

}  // namespace groupsa::data

#endif  // GROUPSA_DATA_ID_LISTS_H_
