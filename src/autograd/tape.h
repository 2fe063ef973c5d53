#ifndef GROUPSA_AUTOGRAD_TAPE_H_
#define GROUPSA_AUTOGRAD_TAPE_H_

#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/tensor.h"

namespace groupsa::ag {

// Identifies which differentiable operation produced a recorded graph node.
// One entry per public function in autograd/ops.h; MeanAll is composed of
// SumAll + Scale and records those, and the Dropout identity path (inference
// or ratio 0) performs no computation and records nothing.
enum class OpKind : uint8_t {
  kMatMul,
  kAdd,
  kSub,
  kMul,
  kScale,
  kAddBias,
  kBroadcastRow,
  kConcatCols,
  kConcatRows,
  kSliceRows,
  kGatherRows,
  kTranspose,
  kRelu,
  kSigmoid,
  kTanh,
  kLogSigmoid,
  kSoftmaxRows,
  kLayerNorm,
  kDropout,
  kSumAll,
  kBprLoss,
};

// Human-readable op name ("MatMul", "AddBias", ...).
const char* OpKindName(OpKind kind);

// Structural record of one executed op: what it read, what it wrote, and the
// shape-relevant attributes. The static graph validator
// (analysis/graph_lint.h) re-runs shape inference over these records and
// cross-checks them against the tensors, independently of the backward
// closures. Attribute meaning by kind:
//   kMatMul:       flag0/flag1 = transpose_a / transpose_b
//   kScale:        (factor itself is shape-irrelevant)
//   kBroadcastRow: arg0 = n (output row count)
//   kSliceRows:    arg0 = start, arg1 = count
//   kGatherRows:   arg0 = number of gathered ids, arg1 = max id (-1 if none)
//   kSoftmaxRows:  flag0 = additive mask present
// All other kinds use no attributes.
struct OpNode {
  OpKind kind = OpKind::kMatMul;
  std::vector<TensorPtr> inputs;
  TensorPtr output;
  int arg0 = 0;
  int arg1 = 0;
  bool flag0 = false;
  bool flag1 = false;
};

// Records the backward pass of a dynamically built computation graph. Ops in
// autograd/ops.h append one closure per recorded operation; Backward() runs
// them in reverse, which is a valid topological order because the forward
// pass built them in execution order.
//
// Typical step:
//   Tape tape;
//   TensorPtr loss = BuildForward(&tape, ...);
//   tape.Backward(loss);        // parameter .grad() now holds dLoss/dParam
//   optimizer.Step();
//   tape.Clear();               // or let the tape go out of scope
//
// A tape is single-threaded by construction: the sharded trainer gives every
// worker lane its own tape, and each shard's graph is built and walked
// entirely on the thread that runs its lane. Record/Backward assert this
// ownership so a cross-thread use (a data race by definition, since ops_ is
// unsynchronized) fails loudly instead of corrupting silently.
//
// Besides the backward closures, a tape can record the graph *structure*
// (OpNode per op, including ops that need no gradient) for the static
// validator in analysis/graph_lint.h. Structure recording defaults on in
// debug builds and off in release; SetGraphRecordingDefault / per-tape
// set_record_graph override it (core::GroupSaModel::ValidateGraph always
// turns it on for its probe tape).
class Tape {
 public:
  Tape()
      : owner_(std::this_thread::get_id()),
        record_graph_(GraphRecordingDefault()) {}
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Appends a backward closure. Called by op implementations only.
  void Record(std::function<void()> backward) {
    GROUPSA_DCHECK(std::this_thread::get_id() == owner_,
                   "Tape::Record from a thread other than the tape's owner");
    ops_.push_back(std::move(backward));
  }

  // Appends a structural node when graph recording is on. Called by op
  // implementations for every executed op (gradient-free ones included);
  // tests append hand-built — deliberately malformed — nodes directly.
  void RecordNode(OpNode node) {
    if (!record_graph_) return;
    GROUPSA_DCHECK(std::this_thread::get_id() == owner_,
                   "Tape::RecordNode from a thread other than the tape's owner");
    nodes_.push_back(std::move(node));
  }

  // Seeds d(loss)/d(loss) = 1 and back-propagates. `loss` must be scalar
  // (1 x 1) and produced by ops recorded on this tape.
  void Backward(const TensorPtr& loss);

  // Back-propagates from `root` with an explicit upstream gradient `seed`
  // (same shape as root). Useful for Jacobian-vector products in tests.
  void BackwardFrom(const TensorPtr& root, const tensor::Matrix& seed);

  void Clear() {
    ops_.clear();
    nodes_.clear();
  }

  // Clears the tape for reuse by the next batch and re-binds ownership to
  // the calling thread (the pool makes no guarantee about which thread runs
  // a given lane in a given batch). clear() — never a {}-swap — keeps the
  // vectors' capacity, and the recorded-graph vectors are additionally
  // reserve()d to the previous batch's size, so a steady-state batch
  // appends every op without reallocating either vector. Dropping the
  // closures here also releases their captured TensorPtrs, which is what
  // lets TensorPool::EndBatch reclaim the batch's tensors.
  void Reset() {
    const size_t prev_ops = ops_.size();
    const size_t prev_nodes = nodes_.size();
    ops_.clear();
    nodes_.clear();
    ops_.reserve(prev_ops);
    nodes_.reserve(prev_nodes);
    owner_ = std::this_thread::get_id();
  }

  size_t num_ops() const { return ops_.size(); }

  bool records_graph() const { return record_graph_; }
  void set_record_graph(bool on) { record_graph_ = on; }
  const std::vector<OpNode>& nodes() const { return nodes_; }

  // Process-wide default for new tapes: true in debug builds, false in
  // release. Tests (and the CI graph-validation gate) force it on to get
  // validated training tapes out of a release build.
  static bool GraphRecordingDefault();
  static void SetGraphRecordingDefault(bool on);

 private:
  std::vector<std::function<void()>> ops_;
  std::vector<OpNode> nodes_;
  std::thread::id owner_;
  bool record_graph_;
};

}  // namespace groupsa::ag

#endif  // GROUPSA_AUTOGRAD_TAPE_H_
