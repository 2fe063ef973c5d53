#ifndef GROUPSA_AUTOGRAD_ROW_GRAD_H_
#define GROUPSA_AUTOGRAD_ROW_GRAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace groupsa::ag {

// The gradient of a sparsely updated (embedding) table, kept at the rows a
// batch touched and nowhere else.
//
// The touched rows sit in first-touch order, each with a `cols`-float slot
// in one flat slot-major buffer. A row->slot index finds a row's slot: open
// addressing with linear probing, a power of two in size and at most half
// full, so it is sized by the touched rows, not by the table. Clear()
// resets the index at exactly the touched entries and keeps every buffer's
// capacity, so a steady-state batch allocates nothing.
//
// A slot starts at zero on first touch and is added into, as a zeroed
// dense row would be, so every element holds the sum (signed zeros
// included) a dense rows x cols gradient would hold.
//
// One type serves both ends of a sparse gradient: each embedding module
// owns one as its parameter's real gradient, which the optimizer consumes,
// and each GradShard sink keeps one per sparse parameter for its shard's
// rows, which ReduceInto adds into the real one.
class RowGrad {
 public:
  RowGrad() = default;
  explicit RowGrad(int cols) : cols_(cols) {}

  int cols() const { return cols_; }
  // The touched rows in first-touch order; slot i holds rows()[i].
  const std::vector<int>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  // Slot i's cols() floats.
  const float* slot(size_t i) const {
    return values_.data() + i * static_cast<size_t>(cols_);
  }
  // Every slot, slot-major: num_rows() x cols().
  const std::vector<float>& values() const { return values_; }

  // Adds cols() floats from `src` into `row`'s gradient.
  void AddRow(int row, const float* src);
  // Adds every slot of `other` (same cols) into this gradient, in `other`'s
  // first-touch order.
  void AddFrom(const RowGrad& other);
  // The slot of `row`, or -1 when the row is untouched.
  int Find(int row) const;
  // Forgets every touched row; the buffers keep their capacity.
  void Clear();

  // Bytes held by the row list, the slots and the index (capacities).
  size_t bytes() const;
  // Entries in the row->slot index: 0 before the first touch, then a power
  // of two at least twice the touched rows.
  size_t index_capacity() const { return index_.size(); }
  // Where `row`'s probe starts in an index of `capacity` entries (a power of
  // two). Public so tests can pick rows that collide.
  static size_t Home(int row, size_t capacity);

 private:
  // The slot of `row`, appended (zeroed) on first touch.
  float* Touch(int row);
  // Doubles the index (16 entries at first) and re-inserts every row.
  void Grow();

  int cols_ = 0;
  std::vector<int> rows_;
  std::vector<float> values_;
  std::vector<int32_t> index_;  // slot, or -1 when empty
};

}  // namespace groupsa::ag

#endif  // GROUPSA_AUTOGRAD_ROW_GRAD_H_
