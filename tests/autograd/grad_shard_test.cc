#include "autograd/grad_shard.h"

#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/row_grad.h"
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

// A sparse table, a dense 3 x 2 weight and the table's row gradient, as an
// embedding module and a linear layer would register them.
struct Params {
  explicit Params(int table_rows = 8)
      : table(Variable(Filled(table_rows, 3, 0.37f, 0.113f))) {}

  TensorPtr table;
  TensorPtr weight = Variable(Filled(3, 2, -0.41f, 0.29f));
  RowGrad rows{3};

  std::vector<GradShard::ParamSlot> Slots() {
    return {{table.get(), &rows}, {weight.get(), nullptr}};
  }
};

// One shard's graph: two gathers whose rows are stacked, projected by the
// dense weight and weighted by distinct constants, so every gathered row
// gets its own gradient. The table's gradient goes to `rows`, or to the
// dense table->grad() when `rows` is null.
void RunShard(Params* p, const std::vector<int>& first,
              const std::vector<int>& second, float coef_base,
              RowGrad* rows) {
  Tape tape;
  TensorPtr gathered =
      ConcatRows(&tape, {GatherRows(&tape, p->table, first, rows),
                         GatherRows(&tape, p->table, second, rows)});
  TensorPtr projected = MatMul(&tape, gathered, p->weight);
  TensorPtr coef = Constant(
      Filled(projected->rows(), projected->cols(), coef_base, 0.071f));
  tape.Backward(SumAll(&tape, Mul(&tape, projected, coef)));
}

// A row gradient scattered into a dense table-shaped matrix.
Matrix Densify(const RowGrad& grad, int table_rows) {
  Matrix dense(table_rows, grad.cols());
  for (size_t slot = 0; slot < grad.num_rows(); ++slot)
    dense.SetRow(grad.rows()[slot], grad.slot(slot));
  return dense;
}

// One batch of two shards, each running two gathers.
struct Batch {
  std::vector<int> shard0_first, shard0_second;
  std::vector<int> shard1_first, shard1_second;
};

// The first `count` ids after `base` whose probes start where `base`'s does
// in a `capacity`-entry index.
std::vector<int> CollidingWith(int base, int count, size_t capacity) {
  std::vector<int> ids;
  for (int id = base + 1; static_cast<int>(ids.size()) < count; ++id)
    if (RowGrad::Home(id, capacity) == RowGrad::Home(base, capacity))
      ids.push_back(id);
  return ids;
}

// Each batch runs two shards through persistent sinks and reduces them in
// shard order. The merged gradients must equal, bit for bit, a dense
// reference in which each shard's graph ran on a plain tape into dense
// gradients that are then summed in the same order. The batches cover rows
// gathered twice within and across shards, rows whose probes collide in
// the fresh 16-entry index, a batch that grows every index well past its
// first size, and the first batch's rows again on the grown indices.
TEST(GradShardTest, CompactRowsReduceBitIdenticalToDenseReference) {
  constexpr int kTableRows = 4096;
  const std::vector<int> collide = CollidingWith(5, 3, 16);
  ASSERT_EQ(collide.size(), 3u);
  std::vector<int> many_first, many_second;
  for (int i = 0; i < 40; ++i) {
    many_first.push_back((i * 97 + 11) % kTableRows);
    many_second.push_back((i * 389 + 3) % kTableRows);
  }
  const Batch overlap = {{5, 3}, {5, 0}, {3, 7}, {7}};
  const Batch colliding = {{5, collide[0], collide[1]},
                           {collide[2], 5},
                           {collide[1], 9},
                           {collide[0]}};
  const Batch growth = {many_first, many_second, many_second, {5, 3}};
  const std::vector<Batch> batches = {overlap, colliding, growth, overlap,
                                      colliding};

  Params ref(kTableRows);
  Params sharded(kTableRows);
  GradShard shard0(sharded.Slots());
  GradShard shard1(sharded.Slots());
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE(::testing::Message() << "batch " << b);
    const Batch& batch = batches[b];
    Matrix ref_table(kTableRows, 3);
    Matrix ref_weight(3, 2);
    ref.table->ZeroGrad();
    ref.weight->ZeroGrad();
    RunShard(&ref, batch.shard0_first, batch.shard0_second, 0.5f, nullptr);
    ref_table.AddInPlace(ref.table->grad());
    ref_weight.AddInPlace(ref.weight->grad());
    ref.table->ZeroGrad();
    ref.weight->ZeroGrad();
    RunShard(&ref, batch.shard1_first, batch.shard1_second, -0.25f, nullptr);
    ref_table.AddInPlace(ref.table->grad());
    ref_weight.AddInPlace(ref.weight->grad());

    // What the optimizer leaves behind after each step.
    sharded.rows.Clear();
    sharded.weight->ZeroGrad();
    {
      GradShard::ActiveScope scope(&shard0);
      RunShard(&sharded, batch.shard0_first, batch.shard0_second, 0.5f,
               &sharded.rows);
    }
    {
      GradShard::ActiveScope scope(&shard1);
      RunShard(&sharded, batch.shard1_first, batch.shard1_second, -0.25f,
               &sharded.rows);
    }
    // Nothing reaches the real gradients before the reduce.
    EXPECT_TRUE(sharded.rows.empty());
    shard0.ReduceInto();
    shard1.ReduceInto();

    EXPECT_TRUE(BitEqual(Densify(sharded.rows, kTableRows), ref_table));
    EXPECT_TRUE(BitEqual(sharded.weight->grad(), ref_weight));
    std::set<int> want;
    for (const auto* ids : {&batch.shard0_first, &batch.shard0_second,
                            &batch.shard1_first, &batch.shard1_second})
      want.insert(ids->begin(), ids->end());
    EXPECT_EQ(std::set<int>(sharded.rows.rows().begin(),
                            sharded.rows.rows().end()),
              want);
    EXPECT_EQ(sharded.rows.num_rows(), want.size());
    // The sparse table never gets a dense gradient.
    EXPECT_FALSE(sharded.table->has_grad());
  }
  // The growth batch's 80-odd distinct rows doubled every index past 128
  // entries, and the batches after it reused the grown indices.
  EXPECT_GE(sharded.rows.index_capacity(), 128u);
}

// A sink and the parameter hold sparse-gradient bytes by the rows touched:
// a 1,000,000-row table touched at 3 rows costs well under a KiB on both
// sides, where one dense gradient or a row->slot index per table row would
// cost megabytes.
TEST(GradShardTest, MillionRowTableTouchedAtThreeRowsHoldsThreeRows) {
  constexpr int kTableRows = 1000000;
  Params p(kTableRows);
  GradShard shard(p.Slots());
  {
    GradShard::ActiveScope scope(&shard);
    RunShard(&p, {999999, 17}, {500000, 17}, 0.5f, &p.rows);
  }
  EXPECT_LT(shard.sparse_bytes(), 1024u);
  shard.ReduceInto();
  EXPECT_EQ(p.rows.num_rows(), 3u);
  EXPECT_LT(p.rows.bytes(), 1024u);
  EXPECT_LT(shard.sparse_bytes(), 1024u);  // capacity kept, still small
  EXPECT_FALSE(p.table->has_grad());
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
