#include "autograd/tape.h"

#include <atomic>

namespace groupsa::ag {
namespace {

// Structure recording is free when off (one branch per op) but allocates a
// node per op when on, so release builds opt out by default; debug builds
// record so the graph validator (analysis/graph_lint.h) can check every
// training tape before its backward pass runs.
std::atomic<bool> g_record_graph_default{
#ifdef NDEBUG
    false
#else
    true
#endif
};

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kMatMul: return "MatMul";
    case OpKind::kAdd: return "Add";
    case OpKind::kMul: return "Mul";
    case OpKind::kScale: return "Scale";
    case OpKind::kAddBias: return "AddBias";
    case OpKind::kBroadcastRow: return "BroadcastRow";
    case OpKind::kConcatCols: return "ConcatCols";
    case OpKind::kConcatRows: return "ConcatRows";
    case OpKind::kGatherRows: return "GatherRows";
    case OpKind::kTranspose: return "Transpose";
    case OpKind::kRelu: return "Relu";
    case OpKind::kSigmoid: return "Sigmoid";
    case OpKind::kTanh: return "Tanh";
    case OpKind::kSoftmaxRows: return "SoftmaxRows";
    case OpKind::kLayerNorm: return "LayerNorm";
    case OpKind::kDropout: return "Dropout";
    case OpKind::kSumAll: return "SumAll";
    case OpKind::kBprLoss: return "BprLoss";
  }
  return "<unknown>";
}

bool Tape::GraphRecordingDefault() {
  return g_record_graph_default.load(std::memory_order_relaxed);
}

void Tape::SetGraphRecordingDefault(bool on) {
  g_record_graph_default.store(on, std::memory_order_relaxed);
}

void Tape::Backward(const TensorPtr& loss) {
  GROUPSA_CHECK(loss->rows() == 1 && loss->cols() == 1,
                "Backward requires a scalar loss");
  tensor::Matrix seed(1, 1);
  seed.At(0, 0) = 1.0f;
  BackwardFrom(loss, seed);
}

void Tape::BackwardFrom(const TensorPtr& root, const tensor::Matrix& seed) {
  GROUPSA_CHECK(root->value().SameShape(seed),
                "BackwardFrom seed shape mismatch");
  GROUPSA_DCHECK(std::this_thread::get_id() == owner_,
                 "Tape::BackwardFrom from a thread other than the owner");
  root->grad().AddInPlace(seed);
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) (*it)();
}

}  // namespace groupsa::ag
