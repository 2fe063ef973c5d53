#ifndef GROUPSA_AUTOGRAD_GRAD_SHARD_H_
#define GROUPSA_AUTOGRAD_GRAD_SHARD_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "autograd/tensor.h"

namespace groupsa::ag {

// Per-shard gradient sink for data-parallel training.
//
// A sharded minibatch step builds each shard's graph on a tape on a pool
// thread. The backward closures accumulate into the gradients of the *shared*
// parameter tensors, which would race across shards. A GradShard, while
// active on a thread, captures those gradients shard-locally;
// non-registered tensors (the shard's own intermediates) are untouched.
// After the parallel region the caller reduces shards *in shard order* via
// ReduceInto, which is what keeps gradient accumulation bit-identical at
// any thread count (see the determinism contract in common/thread_pool.h).
//
// Usage (per shard, on the executing thread):
//   GradShard shard(slots);           // persistent: lives across batches
//   {
//     GradShard::ActiveScope scope(&shard);
//     ... build forward on a local tape, tape.BackwardFrom(...) ...
//   }
//   // later, on the calling thread, in shard order:
//   shard.ReduceInto();
//
// Dense parameters: Tensor::grad() resolves to a shard-local buffer of the
// parameter's shape (Redirect).
//
// Sparse (embedding) parameters: a batch touches a handful of rows of a
// vocabulary-sized table, so the shard keeps only those rows, compactly, in
// the order they are first touched (AccumulateRows, the GatherRows
// backward). A row->slot index of one int32 per table row finds a row's
// slot; the slots x cols float buffer behind it keeps its capacity across
// batches. A shard thus costs 4 B per table row plus 4 * cols B per touched
// row, not a dense copy of the table. A dense grad() of a sparse parameter
// under an active shard would write where no reduce looks, so it CHECK-fails
// in every build type.
//
// ReduceInto adds every slot row into the real gradient in shard order, so
// each element gets the sum a dense per-shard buffer would give it. It
// leaves the shard clean for the next batch without any per-batch
// allocation: dense buffers are cleared (cheap at their size) and the row
// index is reset only at the touched rows.
class GradShard {
 public:
  struct ParamSlot {
    Tensor* tensor = nullptr;
    // Non-null for sparse (embedding) parameters: the module-owned set the
    // optimizer consumes. ReduceInto adds the rows the shard touched.
    std::unordered_set<int>* touched_rows = nullptr;
  };

  explicit GradShard(const std::vector<ParamSlot>& slots);
  GradShard(const GradShard&) = delete;
  GradShard& operator=(const GradShard&) = delete;

  // Activates a shard on the current thread for the scope's lifetime.
  // Scopes do not nest (a shard's forward/backward never starts another
  // shard on the same thread).
  class ActiveScope {
   public:
    explicit ActiveScope(GradShard* shard);
    ~ActiveScope();
    ActiveScope(const ActiveScope&) = delete;
    ActiveScope& operator=(const ActiveScope&) = delete;
  };

  // Resolves the grad buffer for `t` on the active shard of the current
  // thread; null when no shard is active or `t` is not registered. Dies
  // when `t` is a registered sparse parameter. Called by Tensor::grad().
  static tensor::Matrix* Redirect(const Tensor* t);

  // Adds row i of `grads` into row row_ids[i] of `table`'s gradient, in
  // order. With an active shard that registered `table` as sparse, the rows
  // land in the shard's compact rows (recorded as touched at ReduceInto);
  // otherwise they go to table->grad() and `touched_rows`, when non-null,
  // records them. Called by the GatherRows backward closure.
  static void AccumulateRows(Tensor* table,
                             std::unordered_set<int>* touched_rows,
                             const std::vector<int>& row_ids,
                             const tensor::Matrix& grads);

  // Adds the shard's accumulated gradients into the real parameter tensors
  // and the touched rows into each sparse parameter's set, then leaves the
  // shard clean for the next batch. Must run with no shard active,
  // serially, in shard order across shards.
  void ReduceInto();

 private:
  struct Buffer {
    ParamSlot slot;
    // Dense parameters: lazily sized on first redirect.
    tensor::Matrix grad;
    // Sparse parameters: table row -> slot (-1 when untouched), sized on
    // first touch; the touched rows in first-touch order; and their
    // gradients, slot-major, rows.size() x cols.
    std::vector<int32_t> slot_of_row;
    std::vector<int> rows;
    std::vector<float> row_grads;
    bool used = false;  // written to since the last reduce
  };

  std::vector<Buffer> buffers_;  // registration order
  std::unordered_map<const Tensor*, Buffer*> by_tensor_;
};

}  // namespace groupsa::ag

#endif  // GROUPSA_AUTOGRAD_GRAD_SHARD_H_
