#include "autograd/grad_shard.h"

#include "common/macros.h"

namespace groupsa::ag {
namespace {

thread_local GradShard* tls_active_shard = nullptr;

}  // namespace

GradShard::GradShard(const std::vector<ParamSlot>& slots) {
  buffers_.reserve(slots.size());
  for (const ParamSlot& slot : slots) {
    GROUPSA_CHECK(slot.tensor != nullptr, "GradShard slot without tensor");
    Buffer& buffer = buffers_.emplace_back();
    buffer.slot = slot;
    if (slot.row_grad != nullptr) buffer.rows = RowGrad(slot.tensor->cols());
  }
  // The map is built after the vector is final so Buffer* stay stable.
  for (Buffer& buffer : buffers_)
    by_tensor_.emplace(buffer.slot.tensor, &buffer);
}

GradShard::ActiveScope::ActiveScope(GradShard* shard) {
  GROUPSA_CHECK(tls_active_shard == nullptr,
                "GradShard scopes do not nest");
  tls_active_shard = shard;
}

GradShard::ActiveScope::~ActiveScope() { tls_active_shard = nullptr; }

tensor::Matrix* GradShard::Redirect(const Tensor* t) {
  GradShard* shard = tls_active_shard;
  if (shard == nullptr) return nullptr;
  auto it = shard->by_tensor_.find(t);
  if (it == shard->by_tensor_.end()) return nullptr;
  Buffer* buffer = it->second;
  GROUPSA_CHECK(buffer->slot.row_grad == nullptr,
                "dense gradient of a sparse parameter under an active "
                "GradShard; its gradient lives in compact rows "
                "(GradShard::AccumulateRows)");
  if (!buffer->grad.SameShape(t->value()))
    buffer->grad.Resize(t->value().rows(), t->value().cols());
  buffer->used = true;
  return &buffer->grad;
}

void GradShard::AccumulateRows(Tensor* table, RowGrad* row_grad,
                               const std::vector<int>& row_ids,
                               const tensor::Matrix& grads) {
  const int cols = grads.cols();
  if (GradShard* shard = tls_active_shard; shard != nullptr) {
    auto it = shard->by_tensor_.find(table);
    if (it != shard->by_tensor_.end() &&
        it->second->slot.row_grad != nullptr) {
      it->second->used = true;
      row_grad = &it->second->rows;
    }
  }
  if (row_grad == nullptr) {
    tensor::Matrix& tg = table->grad();
    for (size_t i = 0; i < row_ids.size(); ++i) {
      float* dst = tg.RowPtr(row_ids[i]);
      const float* src = grads.RowPtr(static_cast<int>(i));
      for (int c = 0; c < cols; ++c) dst[c] += src[c];
    }
    return;
  }
  GROUPSA_CHECK(row_grad->cols() == cols,
                "row gradient width differs from the gathered rows");
  for (size_t i = 0; i < row_ids.size(); ++i)
    row_grad->AddRow(row_ids[i], grads.RowPtr(static_cast<int>(i)));
}

void GradShard::ReduceInto() {
  GROUPSA_CHECK(tls_active_shard == nullptr,
                "ReduceInto must run outside any active shard");
  for (Buffer& buffer : buffers_) {
    if (!buffer.used) continue;  // not written to since the last reduce
    buffer.used = false;
    if (buffer.slot.row_grad == nullptr) {
      buffer.slot.tensor->grad().AddInPlace(buffer.grad);
      buffer.grad.SetZero();
      continue;
    }
    // Sparse: one addition per touched element, then the shard's index is
    // reset at exactly those rows; its buffers keep their capacity.
    buffer.slot.row_grad->AddFrom(buffer.rows);
    buffer.rows.Clear();
  }
}

size_t GradShard::sparse_bytes() const {
  size_t bytes = 0;
  for (const Buffer& buffer : buffers_) bytes += buffer.rows.bytes();
  return bytes;
}

}  // namespace groupsa::ag
