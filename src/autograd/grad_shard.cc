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
    buffers_.emplace_back().slot = slot;
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
  GROUPSA_CHECK(buffer->slot.touched_rows == nullptr,
                "dense gradient of a sparse parameter under an active "
                "GradShard; its gradient lives in compact rows "
                "(GradShard::AccumulateRows)");
  if (!buffer->grad.SameShape(t->value()))
    buffer->grad.Resize(t->value().rows(), t->value().cols());
  buffer->used = true;
  return &buffer->grad;
}

void GradShard::AccumulateRows(Tensor* table,
                               std::unordered_set<int>* touched_rows,
                               const std::vector<int>& row_ids,
                               const tensor::Matrix& grads) {
  const int cols = grads.cols();
  Buffer* buffer = nullptr;
  if (GradShard* shard = tls_active_shard; shard != nullptr) {
    auto it = shard->by_tensor_.find(table);
    if (it != shard->by_tensor_.end() &&
        it->second->slot.touched_rows != nullptr)
      buffer = it->second;
  }
  if (buffer == nullptr) {
    tensor::Matrix& tg = table->grad();
    for (size_t i = 0; i < row_ids.size(); ++i) {
      float* dst = tg.RowPtr(row_ids[i]);
      const float* src = grads.RowPtr(static_cast<int>(i));
      for (int c = 0; c < cols; ++c) dst[c] += src[c];
    }
    if (touched_rows != nullptr)
      touched_rows->insert(row_ids.begin(), row_ids.end());
    return;
  }

  buffer->used = true;
  if (buffer->slot_of_row.size() != static_cast<size_t>(table->rows()))
    buffer->slot_of_row.assign(static_cast<size_t>(table->rows()), -1);
  for (size_t i = 0; i < row_ids.size(); ++i) {
    int32_t& slot = buffer->slot_of_row[static_cast<size_t>(row_ids[i])];
    if (slot < 0) {
      // First touch: the slot starts at zero and is added into, as a zeroed
      // dense row would be, so every sum (signed zeros included) matches.
      slot = static_cast<int32_t>(buffer->rows.size());
      buffer->rows.push_back(row_ids[i]);
      buffer->row_grads.resize(buffer->row_grads.size() +
                               static_cast<size_t>(cols), 0.0f);
    }
    float* dst = buffer->row_grads.data() + static_cast<size_t>(slot) * cols;
    const float* src = grads.RowPtr(static_cast<int>(i));
    for (int c = 0; c < cols; ++c) dst[c] += src[c];
  }
}

void GradShard::ReduceInto() {
  GROUPSA_CHECK(tls_active_shard == nullptr,
                "ReduceInto must run outside any active shard");
  for (Buffer& buffer : buffers_) {
    if (!buffer.used) continue;  // not written to since the last reduce
    buffer.used = false;
    tensor::Matrix& real = buffer.slot.tensor->grad();
    if (buffer.slot.touched_rows == nullptr) {
      real.AddInPlace(buffer.grad);
      buffer.grad.SetZero();
      continue;
    }
    // Sparse: one addition per touched element, then the row index is
    // reset at exactly those rows; the slot buffer keeps its capacity.
    const int cols = real.cols();
    for (size_t slot = 0; slot < buffer.rows.size(); ++slot) {
      const int row = buffer.rows[slot];
      float* dst = real.RowPtr(row);
      const float* src = buffer.row_grads.data() + slot * cols;
      for (int c = 0; c < cols; ++c) dst[c] += src[c];
      buffer.slot_of_row[static_cast<size_t>(row)] = -1;
    }
    buffer.slot.touched_rows->insert(buffer.rows.begin(), buffer.rows.end());
    buffer.rows.clear();
    buffer.row_grads.clear();
  }
}

}  // namespace groupsa::ag
