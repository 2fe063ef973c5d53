#include "autograd/row_grad.h"

#include <bit>

#include "common/macros.h"

namespace groupsa::ag {

size_t RowGrad::Home(int row, size_t capacity) {
  // Fibonacci hashing: the top bits of a multiplicative hash, so strided
  // ids (every 16th user, say) still spread over the index.
  const uint32_t hash = static_cast<uint32_t>(row) * 0x9E3779B9u;
  return capacity <= 1 ? 0 : hash >> (32 - std::countr_zero(capacity));
}

int RowGrad::Find(int row) const {
  if (index_.empty()) return -1;
  const size_t mask = index_.size() - 1;
  for (size_t pos = Home(row, index_.size());; pos = (pos + 1) & mask) {
    const int32_t slot = index_[pos];
    if (slot < 0) return -1;
    if (rows_[static_cast<size_t>(slot)] == row) return slot;
  }
}

void RowGrad::Grow() {
  const size_t capacity = index_.empty() ? 16 : 2 * index_.size();
  index_.assign(capacity, -1);
  const size_t mask = capacity - 1;
  // Re-inserted in slot order, the order they were first inserted in; Clear
  // relies on that.
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    size_t pos = Home(rows_[slot], capacity);
    while (index_[pos] >= 0) pos = (pos + 1) & mask;
    index_[pos] = static_cast<int32_t>(slot);
  }
}

float* RowGrad::Touch(int row) {
  GROUPSA_DCHECK(row >= 0, "RowGrad row id must be non-negative");
  // At most half full, so every probe ends at an empty entry.
  if (2 * (rows_.size() + 1) > index_.size()) Grow();
  const size_t mask = index_.size() - 1;
  size_t pos = Home(row, index_.size());
  for (; index_[pos] >= 0; pos = (pos + 1) & mask) {
    const size_t slot = static_cast<size_t>(index_[pos]);
    if (rows_[slot] == row)
      return values_.data() + slot * static_cast<size_t>(cols_);
  }
  const size_t slot = rows_.size();
  index_[pos] = static_cast<int32_t>(slot);
  rows_.push_back(row);
  values_.resize(values_.size() + static_cast<size_t>(cols_), 0.0f);
  return values_.data() + slot * static_cast<size_t>(cols_);
}

void RowGrad::AddRow(int row, const float* src) {
  float* dst = Touch(row);
  for (int c = 0; c < cols_; ++c) dst[c] += src[c];
}

void RowGrad::AddFrom(const RowGrad& other) {
  GROUPSA_CHECK(other.cols_ == cols_, "RowGrad::AddFrom column mismatch");
  for (size_t slot = 0; slot < other.rows_.size(); ++slot)
    AddRow(other.rows_[slot], other.slot(slot));
}

void RowGrad::Clear() {
  // Newest first. A row's probe path only crosses rows inserted before it
  // (Grow re-inserts in slot order too), and those are still in the index
  // when it is looked up here, so each lookup finds its entry.
  const size_t mask = index_.size() - 1;
  for (size_t slot = rows_.size(); slot-- > 0;) {
    size_t pos = Home(rows_[slot], index_.size());
    while (index_[pos] != static_cast<int32_t>(slot)) pos = (pos + 1) & mask;
    index_[pos] = -1;
  }
  rows_.clear();
  values_.clear();
}

size_t RowGrad::bytes() const {
  return rows_.capacity() * sizeof(int) + values_.capacity() * sizeof(float) +
         index_.capacity() * sizeof(int32_t);
}

}  // namespace groupsa::ag
