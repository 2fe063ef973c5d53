#include "autograd/grad_shard.h"

#include <cstring>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/tape.h"

namespace groupsa::ag {
namespace {

using tensor::Matrix;

Matrix Filled(int rows, int cols, float base, float step) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i)
    m.data()[i] = base + step * static_cast<float>(i);
  return m;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

// A sparse 8 x 3 table, a dense 3 x 2 weight and the table's touched-row
// set, as an embedding module and a linear layer would register them.
struct Params {
  TensorPtr table = Variable(Filled(8, 3, 0.37f, 0.113f));
  TensorPtr weight = Variable(Filled(3, 2, -0.41f, 0.29f));
  std::unordered_set<int> touched;

  std::vector<GradShard::ParamSlot> Slots() {
    return {{table.get(), &touched}, {weight.get(), nullptr}};
  }
};

// One shard's graph: two gathers whose rows are stacked, projected by the
// dense weight and weighted by distinct constants, so every gathered row
// gets its own gradient.
void RunShard(Params* p, const std::vector<int>& first,
              const std::vector<int>& second, float coef_base) {
  Tape tape;
  TensorPtr rows =
      ConcatRows(&tape, {GatherRows(&tape, p->table, first, &p->touched),
                         GatherRows(&tape, p->table, second, &p->touched)});
  TensorPtr projected = MatMul(&tape, rows, p->weight);
  TensorPtr coef = Constant(
      Filled(projected->rows(), projected->cols(), coef_base, 0.071f));
  tape.Backward(SumAll(&tape, Mul(&tape, projected, coef)));
}

const std::vector<int> kShard0First = {5, 3};
const std::vector<int> kShard0Second = {5, 0};
const std::vector<int> kShard1First = {3, 7};
const std::vector<int> kShard1Second = {7};

// Rows {5, 3, 5, 0} through two GatherRows in one shard (row 5 twice), then
// a second shard overlapping on row 3. Reduced in shard order, the sharded
// gradients must equal, bit for bit, a reference in which each shard's
// graph ran on a plain tape into dense gradients that are then summed in
// the same order.
TEST(GradShardTest, CompactRowsReduceBitIdenticalToDenseReference) {
  Params ref;
  Matrix ref_table(8, 3);
  Matrix ref_weight(3, 2);
  RunShard(&ref, kShard0First, kShard0Second, 0.5f);
  ref_table.AddInPlace(ref.table->grad());
  ref_weight.AddInPlace(ref.weight->grad());
  ref.table->ZeroGrad();
  ref.weight->ZeroGrad();
  RunShard(&ref, kShard1First, kShard1Second, -0.25f);
  ref_table.AddInPlace(ref.table->grad());
  ref_weight.AddInPlace(ref.weight->grad());

  Params sharded;
  GradShard shard0(sharded.Slots());
  GradShard shard1(sharded.Slots());
  // Two batches through the same persistent shards: the second proves the
  // shards come back clean after a reduce.
  for (int batch = 0; batch < 2; ++batch) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    sharded.table->ZeroGrad();
    sharded.weight->ZeroGrad();
    sharded.touched.clear();
    {
      GradShard::ActiveScope scope(&shard0);
      RunShard(&sharded, kShard0First, kShard0Second, 0.5f);
    }
    {
      GradShard::ActiveScope scope(&shard1);
      RunShard(&sharded, kShard1First, kShard1Second, -0.25f);
    }
    // Nothing reaches the real gradients or the touched set before the
    // reduce.
    EXPECT_TRUE(sharded.touched.empty());
    shard0.ReduceInto();
    shard1.ReduceInto();

    EXPECT_TRUE(BitEqual(sharded.table->grad(), ref_table));
    EXPECT_TRUE(BitEqual(sharded.weight->grad(), ref_weight));
    EXPECT_EQ(sharded.touched, (std::unordered_set<int>{0, 3, 5, 7}));
  }
  // Untouched rows carry no gradient.
  for (const int row : {1, 2, 4, 6})
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(sharded.table->grad().At(row, c), 0.0f) << "row " << row;
}

// A sparse parameter's gradient lives in compact rows while a shard is
// active; a dense grad() write to it would land nowhere the reduce looks,
// so it fails loudly in every build type.
TEST(GradShardTest, DenseGradOfSparseParameterUnderActiveShardDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Params p;
  GradShard shard(p.Slots());
  EXPECT_DEATH(
      {
        GradShard::ActiveScope scope(&shard);
        p.table->grad().At(0, 0) += 1.0f;
      },
      "sparse parameter");
  // Dense parameters still redirect to the shard.
  {
    GradShard::ActiveScope scope(&shard);
    p.weight->grad().At(0, 0) += 1.0f;
  }
  EXPECT_FALSE(p.weight->has_grad());
  shard.ReduceInto();
  EXPECT_EQ(p.weight->grad().At(0, 0), 1.0f);
}

}  // namespace
}  // namespace groupsa::ag
