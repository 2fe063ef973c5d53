#ifndef GROUPSA_AUTOGRAD_OPS_H_
#define GROUPSA_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/row_grad.h"
#include "autograd/tape.h"
#include "autograd/tensor.h"
#include "common/rng.h"

namespace groupsa::ag {

// Differentiable operations. Every function computes the forward value
// eagerly and, when any input requires gradients, records the matching
// backward closure on `tape`. Shapes are CHECKed.
//
// Passing tape == nullptr runs every op in inference mode: no closures are
// recorded and outputs never require gradients, which makes evaluation-time
// scoring allocation-light and side-effect free.

// out = op(a) * op(b) with optional transposes.
TensorPtr MatMul(Tape* tape, const TensorPtr& a, const TensorPtr& b,
                 bool transpose_a = false, bool transpose_b = false);

// Element-wise; equal shapes.
TensorPtr Add(Tape* tape, const TensorPtr& a, const TensorPtr& b);
TensorPtr Sub(Tape* tape, const TensorPtr& a, const TensorPtr& b);
TensorPtr Mul(Tape* tape, const TensorPtr& a, const TensorPtr& b);

// out = factor * a.
TensorPtr Scale(Tape* tape, const TensorPtr& a, float factor);

// Adds a 1 x d bias row to every row of x (n x d).
TensorPtr AddBias(Tape* tape, const TensorPtr& x, const TensorPtr& bias);

// Tiles a 1 x d row into n identical rows.
TensorPtr BroadcastRow(Tape* tape, const TensorPtr& row, int n);

// Horizontal concatenation (equal row counts).
TensorPtr ConcatCols(Tape* tape, const std::vector<TensorPtr>& parts);

// Vertical concatenation (equal col counts).
TensorPtr ConcatRows(Tape* tape, const std::vector<TensorPtr>& parts);

// Rows [start, start+count) of x as a new tensor.
TensorPtr SliceRows(Tape* tape, const TensorPtr& x, int start, int count);

// Embedding lookup: one output row per id in `row_ids`. If `row_grad` is
// non-null, the backward pass adds the rows' gradients into it (row_grad.h)
// instead of into a dense table->grad(), so sparse optimizers see only the
// touched rows and no gradient is sized by the table.
TensorPtr GatherRows(Tape* tape, const TensorPtr& table,
                     const std::vector<int>& row_ids,
                     RowGrad* row_grad = nullptr);

// Matrix transpose.
TensorPtr Transpose(Tape* tape, const TensorPtr& x);

// Activations.
TensorPtr Relu(Tape* tape, const TensorPtr& x);
TensorPtr Sigmoid(Tape* tape, const TensorPtr& x);
TensorPtr Tanh(Tape* tape, const TensorPtr& x);
// log(sigmoid(x)), computed stably.
TensorPtr LogSigmoid(Tape* tape, const TensorPtr& x);

// Row-wise softmax. If `additive_mask` is non-null it is added to the logits
// first; -infinity entries force a weight of exactly zero (Eq. 4-5 of the
// paper). Each row must keep at least one unmasked entry.
TensorPtr SoftmaxRows(Tape* tape, const TensorPtr& x,
                      const tensor::Matrix* additive_mask = nullptr);

// Per-row layer normalization with learned gain/bias (1 x d each).
TensorPtr LayerNorm(Tape* tape, const TensorPtr& x, const TensorPtr& gain,
                    const TensorPtr& bias, float epsilon = 1e-5f);

// Inverted dropout; identity when !training or ratio == 0.
TensorPtr Dropout(Tape* tape, const TensorPtr& x, float ratio, bool training,
                  Rng* rng);

// Reductions to 1 x 1.
TensorPtr SumAll(Tape* tape, const TensorPtr& x);
TensorPtr MeanAll(Tape* tape, const TensorPtr& x);

// BPR pairwise ranking loss (Eq. 21 / 24 without the L2 term, which the
// optimizer applies as weight decay): sum_i -ln sigmoid(pos - neg_i).
// `pos` is 1 x 1; `negs` is n x 1.
TensorPtr BprLoss(Tape* tape, const TensorPtr& pos, const TensorPtr& negs);

}  // namespace groupsa::ag

#endif  // GROUPSA_AUTOGRAD_OPS_H_
