#ifndef GROUPSA_AUTOGRAD_POOL_H_
#define GROUPSA_AUTOGRAD_POOL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "autograd/tensor.h"

namespace groupsa::ag {

// Shape-bucketed recycler for the tensors and workspace matrices a training
// batch allocates. The sharded trainer rebuilds an identical op skeleton
// every batch, so after a warm-up batch the pool can satisfy every
// per-batch request from storage it already owns: steady-state training
// performs zero tensor/matrix heap allocations (asserted by tests via
// stats()).
//
// Ownership protocol (one pool per trainer worker lane, used only by the
// thread running that lane — same lock-free discipline as GradShard). A lane
// runs its shards one after another, and each shard is one pool batch:
//
//   TensorPool pool;                          // lives across batches
//   {
//     TensorPool::ActiveScope scope(&pool);   // per batch, on the lane's
//     ... forward ops + backward pass ...     //   executing thread
//   }
//   tape.Reset();          // drop the closures' TensorPtr references
//   pool.EndBatch();       // reclaim everything no longer referenced
//
// While a pool is active on the current thread, the ops in autograd/ops.h
// draw their outputs from Acquire() and their backward workspaces (dropout
// masks, layer-norm statistics, row-sum temporaries) from
// AcquireWorkspace() instead of the heap. Acquire hands back a TensorPtr
// whose Matrix storage (value and, once allocated, gradient) is reused
// across batches; a recycled tensor is indistinguishable from a fresh one
// because its stale gradient is zeroed on the way out — the same state a
// brand-new tensor's lazily-allocated gradient starts in.
//
// EndBatch() reclaims every handed-out object whose reference count shows
// the batch dropped it (the tape's closures and node records, the loss
// list and the loss root must be cleared/destroyed first). An object still
// referenced elsewhere "escapes": it is released to its holder, counted in
// stats, and the pool replaces it next batch. Escapes in the trainer's
// steady state indicate a leak — the zero-growth test would catch it.
//
// The pool is epoch- and task-agnostic: buckets are keyed purely on
// (rows, cols, requires_grad), so a pool warmed by a user-task batch also
// serves the group task's shapes once it has seen them. Samples with
// data-dependent shapes (per-group member counts, per-user neighborhood
// sizes) warm the union of shapes their lane encounters; shape-uniform
// schedules reach zero growth from batch 2 (see DESIGN.md §9).
class TensorPool {
 public:
  // Running counters; all monotone. "Growth" between two points in time is
  // the delta of tensors_created/workspaces_created (or bytes).
  struct Stats {
    uint64_t tensors_created = 0;    // fresh Tensor allocations
    uint64_t tensors_reused = 0;     // requests served from a bucket
    uint64_t workspaces_created = 0; // fresh workspace Matrix allocations
    uint64_t workspaces_reused = 0;
    uint64_t escaped = 0;        // handed out but still referenced at EndBatch
    uint64_t bytes = 0;          // float storage held by pool-owned values
    uint64_t batches = 0;        // EndBatch calls
  };

  TensorPool() = default;
  TensorPool(const TensorPool&) = delete;
  TensorPool& operator=(const TensorPool&) = delete;

  // Activates a pool on the current thread for the scope's lifetime; the
  // ops in autograd/ops.h consult Active(). A null pool deactivates pooling
  // for the scope (the trainer's toggle for parity tests and benchmarks).
  // Scopes do not nest.
  class ActiveScope {
   public:
    explicit ActiveScope(TensorPool* pool);
    ~ActiveScope();
    ActiveScope(const ActiveScope&) = delete;
    ActiveScope& operator=(const ActiveScope&) = delete;

   private:
    bool activated_;
  };

  // The pool active on the current thread, or null.
  static TensorPool* Active();

  // Hands out a tensor whose value has shape (rows, cols) and unspecified
  // contents — callers fully overwrite it. Its gradient, when the tensor is
  // recycled and had one, is zeroed. The tensor stays checked out until
  // EndBatch.
  TensorPtr Acquire(int rows, int cols, bool requires_grad);

  // Hands out a bare matrix of shape (rows, cols) with unspecified
  // contents, for backward-pass workspaces captured by tape closures.
  std::shared_ptr<tensor::Matrix> AcquireWorkspace(int rows, int cols);

  // Reclaims every object handed out since the last EndBatch whose only
  // remaining reference is the pool's. Call after the tape (and any other
  // holder of batch tensors) has been reset.
  void EndBatch();

  const Stats& stats() const { return stats_; }

 private:
  static uint64_t TensorKey(int rows, int cols, bool requires_grad);

  std::unordered_map<uint64_t, std::vector<TensorPtr>> tensor_buckets_;
  std::unordered_map<uint64_t, std::vector<std::shared_ptr<tensor::Matrix>>>
      workspace_buckets_;
  // Objects checked out for the current batch, in hand-out order.
  std::vector<TensorPtr> tensors_out_;
  std::vector<std::shared_ptr<tensor::Matrix>> workspaces_out_;
  Stats stats_;
};

}  // namespace groupsa::ag

#endif  // GROUPSA_AUTOGRAD_POOL_H_
