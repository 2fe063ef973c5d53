// Property-style gradient checks over randomly sampled composite networks:
// the same assembled graph (attention + layer norm + BPR) must pass the
// finite-difference check for every seed.

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"

namespace groupsa::ag {
namespace {

using tensor::Matrix;

class CompositeGradTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompositeGradTest, AttentionBprNetworkPassesGradCheck) {
  Rng rng(GetParam());
  const int l = 3 + rng.NextInt(3);  // group size 3..5
  const int d = 4;

  Matrix x_m(l, d);
  x_m.FillUniform(&rng, -0.5f, 0.5f);
  TensorPtr x = Variable(std::move(x_m));
  TensorPtr wq = Variable([&] {
    Matrix m(d, d);
    m.FillUniform(&rng, -0.4f, 0.4f);
    return m;
  }());
  TensorPtr wv = Variable([&] {
    Matrix m(d, d);
    m.FillUniform(&rng, -0.4f, 0.4f);
    return m;
  }());
  TensorPtr gain = Variable(Matrix(1, d, 1.0f));
  TensorPtr bias = Variable(Matrix(1, d, 0.1f));
  TensorPtr item = Variable([&] {
    Matrix m(1, d);
    m.FillUniform(&rng, -0.5f, 0.5f);
    return m;
  }());

  auto build = [&](Tape* tape) {
    // Self-attention with shared W for q and k, masked softmax.
    TensorPtr q = MatMul(tape, x, wq);
    TensorPtr logits = Scale(tape, MatMul(tape, q, q, false, true), 0.5f);
    TensorPtr att = SoftmaxRows(tape, logits);
    TensorPtr z = MatMul(tape, att, MatMul(tape, x, wv));
    TensorPtr normed = LayerNorm(tape, Add(tape, x, z), gain, bias);
    // Item-guided pooling scores -> BPR of row 0's score against the rest.
    TensorPtr scores = MatMul(tape, normed, item, false, true);  // l x 1
    std::vector<int> rest(static_cast<size_t>(l - 1));
    std::iota(rest.begin(), rest.end(), 1);
    return BprLoss(tape, GatherRows(tape, scores, {0}),
                   GatherRows(tape, scores, rest));
  };

  auto result = CheckGradients(build, {x, wq, wv, gain, bias, item},
                               /*step=*/1e-2f, /*abs_tolerance=*/6e-3f,
                               /*rel_tolerance=*/4e-2f);
  EXPECT_TRUE(result.ok) << "seed " << GetParam() << ": "
                         << result.worst_entry;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeGradTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace groupsa::ag
