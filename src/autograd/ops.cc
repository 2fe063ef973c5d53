#include "autograd/ops.h"

#include <cmath>
#include <limits>

#include "autograd/grad_shard.h"
#include "autograd/pool.h"
#include "tensor/ops.h"

namespace groupsa::ag {
namespace {

using tensor::Matrix;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

bool AnyRequiresGrad(std::initializer_list<const TensorPtr*> inputs) {
  for (const TensorPtr* t : inputs) {
    if ((*t)->requires_grad()) return true;
  }
  return false;
}

// Output tensor for an op. With a TensorPool active on this thread (the
// sharded training path) the tensor — value storage included — is recycled
// from previous batches and already has shape (rows, cols); without one it
// is freshly allocated with an empty value. Either way the contents are
// unspecified and the op must fully overwrite them (via CopyFrom, an *Into
// kernel, Gemm, or EnsureShape + direct writes).
TensorPtr AcquireOutput(int rows, int cols, bool requires_grad) {
  if (TensorPool* pool = TensorPool::Active())
    return pool->Acquire(rows, cols, requires_grad);
  auto out = std::make_shared<Tensor>();
  out->set_requires_grad(requires_grad);
  return out;
}

// Workspace matrix captured by backward closures (dropout masks, layer-norm
// statistics, row-sum temporaries); pooled under the same protocol.
// Contents are unspecified.
std::shared_ptr<Matrix> AcquireWorkspace(int rows, int cols) {
  if (TensorPool* pool = TensorPool::Active())
    return pool->AcquireWorkspace(rows, cols);
  return std::make_shared<Matrix>(rows, cols);
}

// Appends the structural record the graph validator consumes
// (analysis/graph_lint.h). Every op calls this once with its inputs, output
// and shape-relevant attributes; it is a no-op unless the tape records graph
// structure (debug default — see Tape::GraphRecordingDefault).
void RecordNode(Tape* tape, OpKind kind, std::vector<TensorPtr> inputs,
                const TensorPtr& out, int arg0 = 0, int arg1 = 0,
                bool flag0 = false, bool flag1 = false) {
  if (tape == nullptr || !tape->records_graph()) return;
  OpNode node;
  node.kind = kind;
  node.inputs = std::move(inputs);
  node.output = out;
  node.arg0 = arg0;
  node.arg1 = arg1;
  node.flag0 = flag0;
  node.flag1 = flag1;
  tape->RecordNode(std::move(node));
}

// Numerically stable sigmoid.
float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

// Numerically stable softplus: log(1 + exp(x)).
float Softplus(float x) {
  return std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
}

}  // namespace

TensorPtr MatMul(Tape* tape, const TensorPtr& a, const TensorPtr& b,
                 bool transpose_a, bool transpose_b) {
  const int m = transpose_a ? a->cols() : a->rows();
  const int n = transpose_b ? b->rows() : b->cols();
  const bool needs_grad = tape != nullptr && AnyRequiresGrad({&a, &b});
  TensorPtr out = AcquireOutput(m, n, needs_grad);
  tensor::Gemm(a->value(), transpose_a, b->value(), transpose_b, 1.0f,
               &out->mutable_value());
  RecordNode(tape, OpKind::kMatMul, {a, b}, out, 0, 0, transpose_a,
             transpose_b);
  if (!needs_grad) return out;
  tape->Record([a, b, out, transpose_a, transpose_b]() {
    const Matrix& g = out->grad();
    // For C = op(A) op(B): dA accumulates via the matching transposed
    // product; four cases depending on the forward transpose flags.
    if (a->requires_grad()) {
      if (!transpose_a) {
        // dA = g * op(B)^T
        tensor::Gemm(g, false, b->value(), !transpose_b, 1.0f, &a->grad(),
                     /*accumulate=*/true);
      } else {
        // dA^T = g * op(B)^T  =>  dA = op(B) * g^T
        tensor::Gemm(b->value(), transpose_b, g, true, 1.0f, &a->grad(),
                     /*accumulate=*/true);
      }
    }
    if (b->requires_grad()) {
      if (!transpose_b) {
        // dB = op(A)^T * g
        tensor::Gemm(a->value(), !transpose_a, g, false, 1.0f, &b->grad(),
                     /*accumulate=*/true);
      } else {
        // dB = g^T * op(A)
        tensor::Gemm(g, true, a->value(), transpose_a, 1.0f, &b->grad(),
                     /*accumulate=*/true);
      }
    }
  });
  return out;
}

TensorPtr Add(Tape* tape, const TensorPtr& a, const TensorPtr& b) {
  GROUPSA_CHECK(a->value().SameShape(b->value()), "Add shape mismatch");
  const bool needs_grad = tape != nullptr && AnyRequiresGrad({&a, &b});
  TensorPtr out = AcquireOutput(a->rows(), a->cols(), needs_grad);
  Matrix& value = out->mutable_value();
  value.CopyFrom(a->value());
  value.AddInPlace(b->value());
  RecordNode(tape, OpKind::kAdd, {a, b}, out);
  if (!needs_grad) return out;
  tape->Record([a, b, out]() {
    if (a->requires_grad()) a->grad().AddInPlace(out->grad());
    if (b->requires_grad()) b->grad().AddInPlace(out->grad());
  });
  return out;
}

TensorPtr Mul(Tape* tape, const TensorPtr& a, const TensorPtr& b) {
  const bool needs_grad = tape != nullptr && AnyRequiresGrad({&a, &b});
  TensorPtr out = AcquireOutput(a->rows(), a->cols(), needs_grad);
  tensor::HadamardInto(a->value(), b->value(), &out->mutable_value());
  RecordNode(tape, OpKind::kMul, {a, b}, out);
  if (!needs_grad) return out;
  tape->Record([a, b, out]() {
    // In-place accumulation, no Hadamard temporary. Bit-identical to the
    // historical temp-then-AddInPlace form: each element still computes one
    // float multiply then one float add in the same order, and this TU is
    // compiled without FMA so the two can never contract.
    const Matrix& g = out->grad();
    if (a->requires_grad()) {
      Matrix& ga = a->grad();
      const float* bv = b->value().data();
      for (int i = 0; i < g.size(); ++i) ga.data()[i] += g.data()[i] * bv[i];
    }
    if (b->requires_grad()) {
      Matrix& gb = b->grad();
      const float* av = a->value().data();
      for (int i = 0; i < g.size(); ++i) gb.data()[i] += g.data()[i] * av[i];
    }
  });
  return out;
}

TensorPtr Scale(Tape* tape, const TensorPtr& a, float factor) {
  const bool needs_grad = tape != nullptr && a->requires_grad();
  TensorPtr out = AcquireOutput(a->rows(), a->cols(), needs_grad);
  Matrix& value = out->mutable_value();
  value.CopyFrom(a->value());
  value.ScaleInPlace(factor);
  RecordNode(tape, OpKind::kScale, {a}, out);
  if (!needs_grad) return out;
  tape->Record([a, out, factor]() {
    a->grad().AxpyInPlace(factor, out->grad());
  });
  return out;
}

TensorPtr AddBias(Tape* tape, const TensorPtr& x, const TensorPtr& bias) {
  const bool needs_grad = tape != nullptr && AnyRequiresGrad({&x, &bias});
  TensorPtr out = AcquireOutput(x->rows(), x->cols(), needs_grad);
  Matrix& value = out->mutable_value();
  value.CopyFrom(x->value());
  tensor::AddRowBroadcastInPlace(&value, bias->value());
  RecordNode(tape, OpKind::kAddBias, {x, bias}, out);
  if (!needs_grad) return out;
  // The bias gradient keeps the historical sum-rows-into-a-temp-then-add
  // order: accumulating each output row directly into bias->grad() would
  // reassociate the float additions and change the rounding.
  auto ws = bias->requires_grad() ? AcquireWorkspace(1, x->cols()) : nullptr;
  tape->Record([x, bias, out, ws]() {
    if (x->requires_grad()) x->grad().AddInPlace(out->grad());
    if (bias->requires_grad()) {
      tensor::SumRowsInto(out->grad(), ws.get());
      bias->grad().AddInPlace(*ws);
    }
  });
  return out;
}

TensorPtr BroadcastRow(Tape* tape, const TensorPtr& row, int n) {
  GROUPSA_CHECK(row->rows() == 1, "BroadcastRow requires a 1 x d input");
  const bool needs_grad = tape != nullptr && row->requires_grad();
  TensorPtr out = AcquireOutput(n, row->cols(), needs_grad);
  Matrix& value = out->mutable_value();
  value.EnsureShape(n, row->cols());
  for (int r = 0; r < n; ++r) value.SetRow(r, row->value().RowPtr(0));
  RecordNode(tape, OpKind::kBroadcastRow, {row}, out, n);
  if (!needs_grad) return out;
  // Same sum-into-temp-then-add ordering rationale as AddBias.
  auto ws = AcquireWorkspace(1, row->cols());
  tape->Record([row, out, ws]() {
    tensor::SumRowsInto(out->grad(), ws.get());
    row->grad().AddInPlace(*ws);
  });
  return out;
}

TensorPtr ConcatCols(Tape* tape, const std::vector<TensorPtr>& parts) {
  GROUPSA_CHECK(!parts.empty(), "ConcatCols requires inputs");
  std::vector<const Matrix*> raw;
  raw.reserve(parts.size());
  bool needs_grad = false;
  for (const TensorPtr& p : parts) {
    raw.push_back(&p->value());
    needs_grad = needs_grad || p->requires_grad();
  }
  needs_grad = needs_grad && tape != nullptr;
  int total_cols = 0;
  for (const Matrix* m : raw) total_cols += m->cols();
  TensorPtr out = AcquireOutput(raw[0]->rows(), total_cols, needs_grad);
  tensor::ConcatColsInto(raw, &out->mutable_value());
  RecordNode(tape, OpKind::kConcatCols, parts, out);
  if (!needs_grad) return out;
  tape->Record([parts, out]() {
    const Matrix& g = out->grad();
    int offset = 0;
    for (const TensorPtr& p : parts) {
      if (p->requires_grad()) {
        Matrix& pg = p->grad();
        for (int r = 0; r < pg.rows(); ++r)
          for (int c = 0; c < pg.cols(); ++c) pg.At(r, c) += g.At(r, offset + c);
      }
      offset += p->cols();
    }
  });
  return out;
}

TensorPtr ConcatRows(Tape* tape, const std::vector<TensorPtr>& parts) {
  GROUPSA_CHECK(!parts.empty(), "ConcatRows requires inputs");
  std::vector<const Matrix*> raw;
  raw.reserve(parts.size());
  bool needs_grad = false;
  for (const TensorPtr& p : parts) {
    raw.push_back(&p->value());
    needs_grad = needs_grad || p->requires_grad();
  }
  needs_grad = needs_grad && tape != nullptr;
  int total_rows = 0;
  for (const Matrix* m : raw) total_rows += m->rows();
  TensorPtr out = AcquireOutput(total_rows, raw[0]->cols(), needs_grad);
  tensor::ConcatRowsInto(raw, &out->mutable_value());
  RecordNode(tape, OpKind::kConcatRows, parts, out);
  if (!needs_grad) return out;
  tape->Record([parts, out]() {
    const Matrix& g = out->grad();
    int offset = 0;
    for (const TensorPtr& p : parts) {
      if (p->requires_grad()) {
        Matrix& pg = p->grad();
        for (int r = 0; r < pg.rows(); ++r)
          for (int c = 0; c < pg.cols(); ++c) pg.At(r, c) += g.At(offset + r, c);
      }
      offset += p->rows();
    }
  });
  return out;
}

TensorPtr GatherRows(Tape* tape, const TensorPtr& table,
                     const std::vector<int>& row_ids, RowGrad* row_grad) {
  const bool needs_grad = tape != nullptr && table->requires_grad();
  TensorPtr out = AcquireOutput(static_cast<int>(row_ids.size()),
                                table->cols(), needs_grad);
  tensor::GatherRowsInto(table->value(), row_ids, &out->mutable_value());
  int max_id = -1;
  for (int id : row_ids) max_id = std::max(max_id, id);
  RecordNode(tape, OpKind::kGatherRows, {table}, out,
             static_cast<int>(row_ids.size()), max_id);
  if (!needs_grad) return out;
  // Rows are recorded at backward time, not forward time: rows only matter
  // to the optimizer once they carry gradient, and keeping the forward pass
  // free of shared-state writes is what lets no-tape inference and parallel
  // shard forwards run concurrently. Under an active GradShard the rows go
  // to the shard's own RowGrad (grad_shard.h).
  tape->Record([table, out, row_ids, row_grad]() {
    GradShard::AccumulateRows(table.get(), row_grad, row_ids, out->grad());
  });
  return out;
}

TensorPtr Transpose(Tape* tape, const TensorPtr& x) {
  const bool needs_grad = tape != nullptr && x->requires_grad();
  TensorPtr out = AcquireOutput(x->cols(), x->rows(), needs_grad);
  tensor::TransposeInto(x->value(), &out->mutable_value());
  RecordNode(tape, OpKind::kTranspose, {x}, out);
  if (!needs_grad) return out;
  tape->Record([x, out]() {
    // In-place transposed accumulation; visits xg in the same row-major
    // order AddInPlace(Transpose(g)) did, so the float sums are unchanged.
    Matrix& xg = x->grad();
    const Matrix& g = out->grad();
    for (int r = 0; r < xg.rows(); ++r) {
      float* xr = xg.RowPtr(r);
      for (int c = 0; c < xg.cols(); ++c) xr[c] += g.At(c, r);
    }
  });
  return out;
}

TensorPtr Relu(Tape* tape, const TensorPtr& x) {
  const bool needs_grad = tape != nullptr && x->requires_grad();
  TensorPtr out = AcquireOutput(x->rows(), x->cols(), needs_grad);
  Matrix& value = out->mutable_value();
  value.CopyFrom(x->value());
  for (int i = 0; i < value.size(); ++i)
    value.data()[i] = std::max(0.0f, value.data()[i]);
  RecordNode(tape, OpKind::kRelu, {x}, out);
  if (!needs_grad) return out;
  tape->Record([x, out]() {
    Matrix& xg = x->grad();
    const Matrix& g = out->grad();
    const Matrix& v = x->value();
    for (int i = 0; i < g.size(); ++i)
      if (v.data()[i] > 0.0f) xg.data()[i] += g.data()[i];
  });
  return out;
}

TensorPtr Sigmoid(Tape* tape, const TensorPtr& x) {
  const bool needs_grad = tape != nullptr && x->requires_grad();
  TensorPtr out = AcquireOutput(x->rows(), x->cols(), needs_grad);
  Matrix& value = out->mutable_value();
  value.CopyFrom(x->value());
  for (int i = 0; i < value.size(); ++i)
    value.data()[i] = StableSigmoid(value.data()[i]);
  RecordNode(tape, OpKind::kSigmoid, {x}, out);
  if (!needs_grad) return out;
  tape->Record([x, out]() {
    Matrix& xg = x->grad();
    const Matrix& g = out->grad();
    const Matrix& y = out->value();
    for (int i = 0; i < g.size(); ++i) {
      const float s = y.data()[i];
      xg.data()[i] += g.data()[i] * s * (1.0f - s);
    }
  });
  return out;
}

TensorPtr Tanh(Tape* tape, const TensorPtr& x) {
  const bool needs_grad = tape != nullptr && x->requires_grad();
  TensorPtr out = AcquireOutput(x->rows(), x->cols(), needs_grad);
  Matrix& value = out->mutable_value();
  value.CopyFrom(x->value());
  for (int i = 0; i < value.size(); ++i)
    value.data()[i] = std::tanh(value.data()[i]);
  RecordNode(tape, OpKind::kTanh, {x}, out);
  if (!needs_grad) return out;
  tape->Record([x, out]() {
    Matrix& xg = x->grad();
    const Matrix& g = out->grad();
    const Matrix& y = out->value();
    for (int i = 0; i < g.size(); ++i) {
      const float t = y.data()[i];
      xg.data()[i] += g.data()[i] * (1.0f - t * t);
    }
  });
  return out;
}

TensorPtr SoftmaxRows(Tape* tape, const TensorPtr& x,
                      const Matrix* additive_mask) {
  const bool needs_grad = tape != nullptr && x->requires_grad();
  TensorPtr out = AcquireOutput(x->rows(), x->cols(), needs_grad);
  Matrix& value = out->mutable_value();
  value.CopyFrom(x->value());
  if (additive_mask != nullptr) {
    GROUPSA_CHECK(value.SameShape(*additive_mask),
                  "SoftmaxRows mask shape mismatch");
    for (int i = 0; i < value.size(); ++i) {
      // -inf + finite must stay -inf; plain addition does that, but guard
      // against -inf + inf producing NaN.
      const float m = additive_mask->data()[i];
      value.data()[i] = (m == kNegInf) ? kNegInf : value.data()[i] + m;
    }
  }
  tensor::SoftmaxRowsInPlace(&value);
  RecordNode(tape, OpKind::kSoftmaxRows, {x}, out, 0, 0,
             /*flag0=*/additive_mask != nullptr);
  if (!needs_grad) return out;
  tape->Record([x, out]() {
    // dx_row = y_row * (g_row - <g_row, y_row>); masked entries have y = 0
    // so their gradient is exactly zero, matching the hard mask semantics.
    Matrix& xg = x->grad();
    const Matrix& g = out->grad();
    const Matrix& y = out->value();
    for (int r = 0; r < g.rows(); ++r) {
      double dot = 0.0;
      const float* gr = g.RowPtr(r);
      const float* yr = y.RowPtr(r);
      for (int c = 0; c < g.cols(); ++c)
        dot += static_cast<double>(gr[c]) * yr[c];
      float* xr = xg.RowPtr(r);
      for (int c = 0; c < g.cols(); ++c)
        xr[c] += yr[c] * (gr[c] - static_cast<float>(dot));
    }
  });
  return out;
}

TensorPtr LayerNorm(Tape* tape, const TensorPtr& x, const TensorPtr& gain,
                    const TensorPtr& bias, float epsilon) {
  const int d = x->cols();
  GROUPSA_CHECK(gain->rows() == 1 && gain->cols() == d,
                "LayerNorm gain must be 1 x d");
  GROUPSA_CHECK(bias->rows() == 1 && bias->cols() == d,
                "LayerNorm bias must be 1 x d");
  const bool needs_grad = tape != nullptr && AnyRequiresGrad({&x, &gain, &bias});
  TensorPtr out = AcquireOutput(x->rows(), d, needs_grad);
  Matrix& value = out->mutable_value();
  value.EnsureShape(x->rows(), d);
  // Keep normalized activations and inverse stddev for the backward pass.
  auto x_hat = AcquireWorkspace(x->rows(), d);
  auto inv_std = AcquireWorkspace(x->rows(), 1);
  for (int r = 0; r < x->rows(); ++r) {
    const float* row = x->value().RowPtr(r);
    double mean = 0.0;
    for (int c = 0; c < d; ++c) mean += row[c];
    mean /= d;
    double var = 0.0;
    for (int c = 0; c < d; ++c) {
      const double diff = row[c] - mean;
      var += diff * diff;
    }
    var /= d;
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + epsilon);
    inv_std->At(r, 0) = inv;
    for (int c = 0; c < d; ++c) {
      const float xh = (row[c] - static_cast<float>(mean)) * inv;
      x_hat->At(r, c) = xh;
      value.At(r, c) = xh * gain->value().At(0, c) + bias->value().At(0, c);
    }
  }
  RecordNode(tape, OpKind::kLayerNorm, {x, gain, bias}, out);
  if (!needs_grad) return out;
  tape->Record([x, gain, bias, out, x_hat, inv_std]() {
    const Matrix& g = out->grad();
    const int cols = g.cols();
    for (int r = 0; r < g.rows(); ++r) {
      const float* gr = g.RowPtr(r);
      const float* xh = x_hat->RowPtr(r);
      if (gain->requires_grad() || bias->requires_grad()) {
        for (int c = 0; c < cols; ++c) {
          if (gain->requires_grad()) gain->grad().At(0, c) += gr[c] * xh[c];
          if (bias->requires_grad()) bias->grad().At(0, c) += gr[c];
        }
      }
      if (x->requires_grad()) {
        // dL/dx_hat = g * gain;
        // dL/dx = inv_std * (dxh - mean(dxh) - x_hat * mean(dxh * x_hat)).
        double mean_dxh = 0.0;
        double mean_dxh_xh = 0.0;
        for (int c = 0; c < cols; ++c) {
          const double dxh =
              static_cast<double>(gr[c]) * gain->value().At(0, c);
          mean_dxh += dxh;
          mean_dxh_xh += dxh * xh[c];
        }
        mean_dxh /= cols;
        mean_dxh_xh /= cols;
        float* xr = x->grad().RowPtr(r);
        const float inv = inv_std->At(r, 0);
        for (int c = 0; c < cols; ++c) {
          const double dxh =
              static_cast<double>(gr[c]) * gain->value().At(0, c);
          xr[c] += inv * static_cast<float>(dxh - mean_dxh -
                                            xh[c] * mean_dxh_xh);
        }
      }
    }
  });
  return out;
}

TensorPtr Dropout(Tape* tape, const TensorPtr& x, float ratio, bool training,
                  Rng* rng) {
  GROUPSA_CHECK(ratio >= 0.0f && ratio < 1.0f, "Dropout ratio must be [0,1)");
  if (!training || ratio == 0.0f) return x;
  GROUPSA_CHECK(rng != nullptr, "Dropout in training mode requires an Rng");
  const float keep = 1.0f - ratio;
  const float scale = 1.0f / keep;
  const bool needs_grad = tape != nullptr && x->requires_grad();
  TensorPtr out = AcquireOutput(x->rows(), x->cols(), needs_grad);
  auto mask = AcquireWorkspace(x->rows(), x->cols());
  Matrix& value = out->mutable_value();
  value.CopyFrom(x->value());
  for (int i = 0; i < value.size(); ++i) {
    const float m = rng->NextBernoulli(keep) ? scale : 0.0f;
    mask->data()[i] = m;
    value.data()[i] *= m;
  }
  RecordNode(tape, OpKind::kDropout, {x}, out);
  if (!needs_grad) return out;
  tape->Record([x, out, mask]() {
    Matrix& xg = x->grad();
    const Matrix& g = out->grad();
    for (int i = 0; i < g.size(); ++i)
      xg.data()[i] += g.data()[i] * mask->data()[i];
  });
  return out;
}

TensorPtr SumAll(Tape* tape, const TensorPtr& x) {
  const bool needs_grad = tape != nullptr && x->requires_grad();
  TensorPtr out = AcquireOutput(1, 1, needs_grad);
  Matrix& value = out->mutable_value();
  value.EnsureShape(1, 1);
  value.At(0, 0) = x->value().Sum();
  RecordNode(tape, OpKind::kSumAll, {x}, out);
  if (!needs_grad) return out;
  tape->Record([x, out]() {
    const float g = out->grad().At(0, 0);
    Matrix& xg = x->grad();
    for (int i = 0; i < xg.size(); ++i) xg.data()[i] += g;
  });
  return out;
}

TensorPtr BprLoss(Tape* tape, const TensorPtr& pos, const TensorPtr& negs) {
  GROUPSA_CHECK(pos->rows() == 1 && pos->cols() == 1,
                "BprLoss pos must be scalar");
  GROUPSA_CHECK(negs->cols() == 1, "BprLoss negs must be n x 1");
  const float p = pos->scalar();
  const bool needs_grad = tape != nullptr && AnyRequiresGrad({&pos, &negs});
  TensorPtr out = AcquireOutput(1, 1, needs_grad);
  Matrix& value = out->mutable_value();
  value.EnsureShape(1, 1);
  double total = 0.0;
  for (int i = 0; i < negs->rows(); ++i) {
    // -ln sigmoid(p - n) == softplus(n - p).
    total += Softplus(negs->value().At(i, 0) - p);
  }
  value.At(0, 0) = static_cast<float>(total);
  RecordNode(tape, OpKind::kBprLoss, {pos, negs}, out);
  if (!needs_grad) return out;
  tape->Record([pos, negs, out]() {
    const float g = out->grad().At(0, 0);
    const float pv = pos->scalar();
    for (int i = 0; i < negs->rows(); ++i) {
      // d/dn softplus(n - p) = sigmoid(n - p); d/dp = -sigmoid(n - p).
      const float s = StableSigmoid(negs->value().At(i, 0) - pv);
      if (negs->requires_grad()) negs->grad().At(i, 0) += g * s;
      if (pos->requires_grad()) pos->grad().At(0, 0) -= g * s;
    }
  });
  return out;
}

}  // namespace groupsa::ag
