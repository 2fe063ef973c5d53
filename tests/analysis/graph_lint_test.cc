#include "analysis/graph_lint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "core/test_fixtures.h"
#include "core/trainer.h"
#include "nn/checkpoint.h"

// Substring assertion over diagnostic messages (gmock matchers are not
// linked in this suite).
#define EXPECT_HAS(haystack, needle)                                  \
  EXPECT_NE(std::string(haystack).find(needle), std::string::npos)    \
      << "expected substring \"" << (needle) << "\" in:\n" << (haystack)

namespace groupsa::analysis {
namespace {

using core::testing::TinyFixture;

ag::TensorPtr Val(int rows, int cols) {
  return ag::Constant(tensor::Matrix(rows, cols));
}

ag::TensorPtr Var(int rows, int cols) {
  return ag::Variable(tensor::Matrix(rows, cols));
}

ag::OpNode Node(ag::OpKind kind, std::vector<ag::TensorPtr> inputs,
                ag::TensorPtr output, int arg0 = 0, int arg1 = 0,
                bool flag0 = false, bool flag1 = false) {
  ag::OpNode node;
  node.kind = kind;
  node.inputs = std::move(inputs);
  node.output = std::move(output);
  node.arg0 = arg0;
  node.arg1 = arg1;
  node.flag0 = flag0;
  node.flag1 = flag1;
  return node;
}

// Shape-only validation of hand-built (malformed) nodes: no root, so the
// reachability checks stay out of the way.
std::string ShapeDiagnostic(ag::OpNode node) {
  ag::Tape tape;
  tape.set_record_graph(true);
  tape.RecordNode(std::move(node));
  const Status status = ValidateTape(tape, TapeLintOptions());
  EXPECT_FALSE(status.ok());
  return status.message();
}

// --- Malformed fixture 1: MatMul inner dimensions -------------------------

TEST(GraphLintTest, RejectsMatMulInnerDimensionMismatch) {
  const std::string msg = ShapeDiagnostic(
      Node(ag::OpKind::kMatMul, {Val(2, 3), Val(4, 5)}, Val(2, 5)));
  EXPECT_HAS(msg, ("[shape-mismatch]"));
  EXPECT_HAS(msg, ("op#0 MatMul"));
  EXPECT_HAS(msg,
              ("inner dimensions differ: op(a)=2x3 vs op(b)=4x5"));
}

// --- Malformed fixture 2: MatMul output under transpose -------------------

TEST(GraphLintTest, RejectsMatMulWrongOutputUnderTranspose) {
  // a^T (3x2 -> 2x3) times b (3x4) is 2x4; the recorded output lies.
  const std::string msg = ShapeDiagnostic(Node(ag::OpKind::kMatMul,
                                               {Val(3, 2), Val(3, 4)},
                                               Val(3, 4), 0, 0,
                                               /*flag0=*/true));
  EXPECT_HAS(msg, ("expected output 2x4, got 3x4"));
}

// --- Malformed fixture 3: elementwise shape mismatch ----------------------

TEST(GraphLintTest, RejectsElementwiseOperandMismatch) {
  const std::string msg = ShapeDiagnostic(
      Node(ag::OpKind::kAdd, {Val(2, 2), Val(2, 3)}, Val(2, 2)));
  EXPECT_HAS(msg, ("op#0 Add"));
  EXPECT_HAS(msg, ("elementwise operands differ: 2x2 vs 2x3"));
}

// --- Malformed fixture 4: bias that cannot broadcast ----------------------

TEST(GraphLintTest, RejectsNonBroadcastableBias) {
  const std::string msg = ShapeDiagnostic(
      Node(ag::OpKind::kAddBias, {Val(2, 4), Val(2, 4)}, Val(2, 4)));
  EXPECT_HAS(msg,
              ("bias must be 1x4 to broadcast over 2x4 rows, got "
                        "2x4"));
}

// --- Malformed fixture 5: broadcasting a non-row --------------------------

TEST(GraphLintTest, RejectsBroadcastOfNonRow) {
  const std::string msg = ShapeDiagnostic(
      Node(ag::OpKind::kBroadcastRow, {Val(2, 3)}, Val(4, 3), /*arg0=*/4));
  EXPECT_HAS(msg, ("input must be a single row, got 2x3"));
}

// --- Malformed fixture 6: gathered id beyond the table -------------------

TEST(GraphLintTest, RejectsGatherIdBeyondTable) {
  const std::string msg =
      ShapeDiagnostic(Node(ag::OpKind::kGatherRows, {Val(4, 2)}, Val(1, 2),
                           /*arg0=*/1, /*arg1=*/7));
  EXPECT_HAS(msg, ("gathered id 7 out of range for a 4-row table"));
}

// --- Malformed fixture 7: ragged concatenation ---------------------------

TEST(GraphLintTest, RejectsRaggedConcatRows) {
  const std::string msg = ShapeDiagnostic(
      Node(ag::OpKind::kConcatRows, {Val(1, 3), Val(1, 4)}, Val(2, 3)));
  EXPECT_HAS(msg,
              ("part 1 is 1x4 but part 0 is 1x3 (column counts "
                        "must match)"));
}

// --- Malformed fixture 8: LayerNorm gain of the wrong width --------------

TEST(GraphLintTest, RejectsLayerNormGainWidth) {
  const std::string msg = ShapeDiagnostic(Node(
      ag::OpKind::kLayerNorm, {Val(2, 4), Val(1, 3), Val(1, 4)}, Val(2, 4)));
  EXPECT_HAS(msg, ("gain must be 1x4, got 1x3"));
}

// --- Malformed fixture 9: BPR negatives not a column ---------------------

TEST(GraphLintTest, RejectsBprNegativesNotColumn) {
  const std::string msg = ShapeDiagnostic(
      Node(ag::OpKind::kBprLoss, {Val(1, 1), Val(3, 2)}, Val(1, 1)));
  EXPECT_HAS(msg, ("negs must be a column (n x 1), got 3x2"));
}

// --- Malformed fixture 10: null operand ----------------------------------

TEST(GraphLintTest, RejectsNullInput) {
  const std::string msg = ShapeDiagnostic(
      Node(ag::OpKind::kAdd, {Val(1, 1), nullptr}, Val(1, 1)));
  EXPECT_HAS(msg, ("[bad-operand]"));
  EXPECT_HAS(msg, ("input 1 is null"));
}

// --- Malformed fixture 11: two ops writing one tensor --------------------

TEST(GraphLintTest, RejectsDoubleWrite) {
  ag::Tape tape;
  tape.set_record_graph(true);
  ag::TensorPtr shared = Val(2, 2);
  tape.RecordNode(Node(ag::OpKind::kRelu, {Val(2, 2)}, shared));
  tape.RecordNode(Node(ag::OpKind::kTanh, {Val(2, 2)}, shared));
  const Status status = ValidateTape(tape, TapeLintOptions());
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(), ("[double-write]"));
  EXPECT_HAS(status.message(),
              ("op#1 Tanh: output tensor already written by op#0 "
                        "Relu"));
}

// --- Malformed fixture 12: op overwriting a parameter --------------------

TEST(GraphLintTest, RejectsParameterOverwrite) {
  ag::Tape tape;
  tape.set_record_graph(true);
  ag::TensorPtr param = Var(2, 2);
  param->set_name("embedding");
  tape.RecordNode(Node(ag::OpKind::kRelu, {Val(2, 2)}, param));
  TapeLintOptions options;
  options.parameters = {param.get()};
  const Status status = ValidateTape(tape, options);
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(), ("[param-overwrite]"));
  EXPECT_HAS(status.message(),
              ("writes a registered parameter"));
  EXPECT_HAS(status.message(), ("'embedding'"));
}

// --- Malformed fixture 13: gradient-requesting op detached from the root ---

TEST(GraphLintTest, RejectsDetachedGradSubgraph) {
  ag::Tape tape;
  tape.set_record_graph(true);
  ag::TensorPtr root = Val(1, 1);
  tape.RecordNode(Node(ag::OpKind::kSumAll, {Var(2, 2)}, root));
  // Forgotten branch: wants gradients, feeds nothing.
  tape.RecordNode(Node(ag::OpKind::kSigmoid, {Var(1, 1)}, Var(1, 1)));
  TapeLintOptions options;
  options.root = root;
  const Status status = ValidateTape(tape, options);
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(), ("[detached-grad]"));
  EXPECT_HAS(status.message(),
              ("op#1 Sigmoid: requests gradients but is not "
                        "reachable from the backward root"));
}

// --- Malformed fixture 14: gradient-free dead compute --------------------

TEST(GraphLintTest, RejectsDanglingNode) {
  ag::Tape tape;
  tape.set_record_graph(true);
  ag::TensorPtr root = Val(1, 1);
  tape.RecordNode(Node(ag::OpKind::kSumAll, {Var(2, 2)}, root));
  tape.RecordNode(Node(ag::OpKind::kRelu, {Val(1, 1)}, Val(1, 1)));
  TapeLintOptions options;
  options.root = root;
  const Status status = ValidateTape(tape, options);
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(), ("[dangling-node]"));
  EXPECT_HAS(status.message(), ("dead compute"));

  // The same graph passes when dead compute is explicitly permitted.
  options.allow_dangling = true;
  EXPECT_TRUE(ValidateTape(tape, options).ok());
}

// --- Malformed fixture 15: root produced by no op ------------------------

TEST(GraphLintTest, RejectsMissingRoot) {
  ag::Tape tape;
  tape.set_record_graph(true);
  tape.RecordNode(Node(ag::OpKind::kRelu, {Var(1, 1)}, Var(1, 1)));
  TapeLintOptions options;
  options.root = Val(1, 1);  // never written on this tape
  const Status status = ValidateTape(tape, options);
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(), ("[missing-root]"));
  EXPECT_HAS(status.message(),
              ("root tensor is not produced by any op on this "
                        "tape"));
}

// --- Malformed fixture 16: parameter the backward pass never reaches -----

TEST(GraphLintTest, RejectsUnreachedParameter) {
  ag::Tape tape;
  tape.set_record_graph(true);
  ag::TensorPtr used = Var(2, 2);
  ag::TensorPtr unused = Var(3, 4);
  unused->set_name("voting/w1");
  ag::TensorPtr root = Val(1, 1);
  tape.RecordNode(Node(ag::OpKind::kSumAll, {used}, root));
  TapeLintOptions options;
  options.root = root;
  options.parameters = {used.get(), unused.get()};
  options.check_unreached_params = true;
  const Status status = ValidateTape(tape, options);
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(), ("[unreached-param]"));
  EXPECT_HAS(status.message(),
              ("parameter 'voting/w1' (3x4) is read by no op "
                        "reachable from the backward root"));

  // Off by default: the same tape with the flag unset is clean.
  options.check_unreached_params = false;
  EXPECT_TRUE(ValidateTape(tape, options).ok());
}

// --- Structure-less tapes cannot be validated -----------------------------

TEST(GraphLintTest, FlagsTapeBuiltWithoutGraphRecording) {
  ag::Tape tape;
  tape.set_record_graph(false);
  ag::TensorPtr x = Var(1, 1);
  ag::TensorPtr y = ag::Relu(&tape, x);
  (void)y;
  ASSERT_GT(tape.num_ops(), 0u);
  ASSERT_TRUE(tape.nodes().empty());
  const Status status = ValidateTape(tape, TapeLintOptions());
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(),
              ("no recorded graph structure"));
}

// --- Well-formed graphs pass ----------------------------------------------

TEST(GraphLintTest, AcceptsHandBuiltCleanGraph) {
  ag::Tape tape;
  tape.set_record_graph(true);
  ag::TensorPtr a = Var(2, 3);
  ag::TensorPtr b = Var(3, 4);
  ag::TensorPtr prod = ag::MatMul(&tape, a, b);
  ag::TensorPtr act = ag::Relu(&tape, prod);
  ag::TensorPtr loss = ag::SumAll(&tape, act);
  TapeLintOptions options;
  options.root = loss;
  options.parameters = {a.get(), b.get()};
  options.check_unreached_params = true;
  const Status status = ValidateTape(tape, options);
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(tape.nodes().size(), 3u);
}

TEST(GraphLintTest, RealOpsRecordValidatableStructure) {
  // Every recorded op of a mixed real graph passes the independent shape
  // table, including gradient-free ops (Constant inputs).
  ag::Tape tape;
  tape.set_record_graph(true);
  ag::TensorPtr table = Var(5, 4);
  ag::TensorPtr rows = ag::GatherRows(&tape, table, {1, 3, 4}, nullptr);
  ag::TensorPtr normed = ag::SoftmaxRows(&tape, rows);
  ag::TensorPtr pooled = ag::MatMul(&tape, normed, ag::Constant(
                                        tensor::Matrix(4, 1)));
  ag::TensorPtr loss = ag::SumAll(&tape, pooled);
  TapeLintOptions options;
  options.root = loss;
  const Status status = ValidateTape(tape, options);
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(tape.nodes().size(), 4u);
}

// --- Stale gradients on recycled tensors ----------------------------------

TEST(GraphLintTest, RejectsOutputWithStaleGradient) {
  // A pooled tensor handed out without zeroing its previous batch's
  // gradient: backward would silently accumulate on top of it.
  ag::Tape tape;
  tape.set_record_graph(true);
  ag::TensorPtr x = Var(2, 2);
  ag::TensorPtr out = Var(2, 2);
  out->grad().At(1, 1) = 0.5f;  // leftover from a "previous batch"
  tape.RecordNode(Node(ag::OpKind::kRelu, {x}, out));
  const Status status = ValidateTape(tape, TapeLintOptions());
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(), ("[stale-grad]"));
  EXPECT_HAS(status.message(),
             ("output carries a nonzero gradient before backward ran"));
}

TEST(GraphLintTest, AcceptsOutputWithZeroedGradient) {
  // The pool's contract: a recycled tensor re-enters the graph with its
  // gradient zeroed, indistinguishable from a fresh one.
  ag::Tape tape;
  tape.set_record_graph(true);
  ag::TensorPtr x = Var(2, 2);
  ag::TensorPtr out = Var(2, 2);
  out->grad().SetZero();
  tape.RecordNode(Node(ag::OpKind::kRelu, {x}, out));
  const Status status = ValidateTape(tape, TapeLintOptions());
  EXPECT_TRUE(status.ok()) << status.message();
}

// --- Shard-slot registration ----------------------------------------------

TEST(GraphLintTest, ShardSlotsRejectDuplicateTensor) {
  ag::TensorPtr param = Var(2, 2);
  param->set_name("item_emb/table");
  const Status status = ValidateShardSlots(
      {{param.get(), nullptr}, {param.get(), nullptr}});
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(),
              ("tensor 'item_emb/table' registered in shard slots "
                        "0 and 1"));
  EXPECT_HAS(status.message(), ("reduced twice"));
}

TEST(GraphLintTest, ShardSlotsRejectSharedTouchedRows) {
  ag::TensorPtr a = Var(2, 2);
  ag::TensorPtr b = Var(2, 2);
  ag::RowGrad rows(2);
  const Status status = ValidateShardSlots({{a.get(), &rows}, {b.get(), &rows}});
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(),
              ("row gradient shared by shard slots 0 and 1"));
}

TEST(GraphLintTest, ShardSlotsRejectNullTensor) {
  const Status status = ValidateShardSlots({{nullptr, nullptr}});
  ASSERT_FALSE(status.ok());
  EXPECT_HAS(status.message(), ("shard slot 0 has no tensor"));
}

// --- The real GroupSA training graph validates clean ----------------------

core::GroupSaConfig SmallConfig(int threads) {
  core::GroupSaConfig c = core::GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  c.user_epochs = 1;
  c.group_epochs = 1;
  c.threads = threads;
  return c;
}

TEST(GraphLintTest, GroupSaTrainingGraphValidatesAtOneAndFourThreads) {
  for (int threads : {1, 4}) {
    const core::GroupSaConfig config = SmallConfig(threads);
    const TinyFixture f = TinyFixture::Make(config);
    auto model = f.MakeModel(config);
    const Status status = model->ValidateGraph();
    EXPECT_TRUE(status.ok())
        << "threads=" << threads << ": " << status.message();
  }
}

// ValidateGraph leaves a batch's pending gradients alone: after a real
// backward pass, every pending touched row and its gradient values are
// bit-identical once validation has run.
TEST(GraphLintTest, ValidateGraphLeavesTouchedRowsIntact) {
  const core::GroupSaConfig config = SmallConfig(1);
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  {
    Rng rng(3);
    ag::Tape tape;
    auto fwd = model->BuildGroupForward(&tape, 0, /*training=*/true, &rng);
    auto pos = model->ScoreGroupItem(&tape, fwd, 1, true, &rng);
    auto neg = model->ScoreGroupItem(&tape, fwd, 2, true, &rng);
    tape.Backward(ag::BprLoss(&tape, pos.score, neg.score));
  }
  struct Pending {
    std::string name;
    std::vector<int> rows;
    std::vector<float> values;
  };
  std::vector<Pending> before;
  for (const nn::ParamEntry& p : model->Parameters()) {
    if (p.row_grad != nullptr)
      before.push_back({p.name, p.row_grad->rows(), p.row_grad->values()});
  }
  size_t pending_rows = 0;
  for (const Pending& p : before) pending_rows += p.rows.size();
  ASSERT_GT(pending_rows, 0u) << "the backward pass touched no row";

  ASSERT_TRUE(model->ValidateGraph().ok());
  size_t i = 0;
  for (const nn::ParamEntry& p : model->Parameters()) {
    if (p.row_grad == nullptr) continue;
    ASSERT_LT(i, before.size());
    const Pending& want = before[i++];
    EXPECT_EQ(p.name, want.name);
    EXPECT_EQ(p.row_grad->rows(), want.rows) << p.name;
    ASSERT_EQ(p.row_grad->values().size(), want.values.size()) << p.name;
    EXPECT_EQ(std::memcmp(p.row_grad->values().data(), want.values.data(),
                          sizeof(float) * want.values.size()),
              0)
        << p.name;
  }
  EXPECT_EQ(i, before.size());
}

// Shard tapes built on pool threads validate inside the trainer's debug
// hook. Tapes record graph structure by default only without NDEBUG, and
// every CI tree defines it, so this test is where that check runs: force
// recording on and run a real sharded fit at both pool widths. The trainer
// aborts the process on a validation failure, so completing the fit is the
// first assertion; the second is that recording moves no trained bit.
TEST(GraphLintTest, TrainerValidatesRecordedShardTapes) {
  const bool saved = ag::Tape::GraphRecordingDefault();
  for (int threads : {1, 4}) {
    const core::GroupSaConfig config = SmallConfig(threads);
    const TinyFixture f = TinyFixture::Make(config);
    std::string params[2];
    for (bool record : {false, true}) {
      ag::Tape::SetGraphRecordingDefault(record);
      auto model = f.MakeModel(config);
      Rng rng(7);
      core::Trainer trainer(model.get(), f.ui.train, f.gi.train,
                            &f.ui_train, &f.gi_train, &rng);
      const core::Trainer::FitReport report = trainer.Fit(false);
      EXPECT_GE(report.user_epochs.size(), 1u);
      EXPECT_GE(report.group_epochs.size(), 1u);
      params[record] = nn::EncodeParameters(model->Parameters());
    }
    EXPECT_EQ(params[0], params[1]) << threads << " thread(s)";
  }
  ag::Tape::SetGraphRecordingDefault(saved);
}

}  // namespace
}  // namespace groupsa::analysis
