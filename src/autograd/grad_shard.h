#ifndef GROUPSA_AUTOGRAD_GRAD_SHARD_H_
#define GROUPSA_AUTOGRAD_GRAD_SHARD_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "autograd/row_grad.h"
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
// vocabulary-sized table, so the shard keeps only those rows, in an
// ag::RowGrad of its own (AccumulateRows, the GatherRows backward). Its
// index and slots are sized by the rows the shard touched and keep their
// capacity across batches: 4 * cols B plus 12-20 B of row id and index per
// touched row, and nothing per table row. A dense grad() of a sparse
// parameter under an active shard would write where no reduce looks, so it
// CHECK-fails in every build type.
//
// ReduceInto adds every shard row into the parameter's own RowGrad in shard
// order, so each element gets the sum a dense per-shard buffer would give
// it. It leaves the shard clean for the next batch without any per-batch
// allocation: dense buffers are cleared (cheap at their size) and the row
// index is reset only at the touched rows.
class GradShard {
 public:
  struct ParamSlot {
    Tensor* tensor = nullptr;
    // Non-null for sparse (embedding) parameters: the module-owned gradient
    // the optimizer consumes. ReduceInto adds the shard's rows into it.
    RowGrad* row_grad = nullptr;
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
  // land in the shard's own RowGrad; otherwise in `row_grad` when it is
  // non-null, and in the dense table->grad() when it is null. Called by the
  // GatherRows backward closure.
  static void AccumulateRows(Tensor* table, RowGrad* row_grad,
                             const std::vector<int>& row_ids,
                             const tensor::Matrix& grads);

  // Adds the shard's accumulated gradients into the real parameter
  // gradients (dense tensors' grad(), sparse parameters' RowGrad), then
  // leaves the shard clean for the next batch. Must run with no shard
  // active, serially, in shard order across shards.
  void ReduceInto();

  // Bytes the shard holds for its sparse parameters' rows and indices.
  size_t sparse_bytes() const;

 private:
  struct Buffer {
    ParamSlot slot;
    // Dense parameters: lazily sized on first redirect.
    tensor::Matrix grad;
    // Sparse parameters: the rows this shard touched since the last reduce.
    RowGrad rows;
    bool used = false;  // written to since the last reduce
  };

  std::vector<Buffer> buffers_;  // registration order
  std::unordered_map<const Tensor*, Buffer*> by_tensor_;
};

}  // namespace groupsa::ag

#endif  // GROUPSA_AUTOGRAD_GRAD_SHARD_H_
