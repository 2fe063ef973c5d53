#include "analysis/graph_lint.h"

#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace groupsa::analysis {
namespace {

using ag::OpKind;
using ag::OpNode;
using ag::Tensor;

struct Shape {
  int rows = 0;
  int cols = 0;
  bool operator==(const Shape& other) const {
    return rows == other.rows && cols == other.cols;
  }
};

Shape ShapeOf(const ag::TensorPtr& t) { return {t->rows(), t->cols()}; }

std::string ShapeStr(const Shape& s) {
  return StrFormat("%dx%d", s.rows, s.cols);
}

// "op#12 MatMul" or, when the output tensor is named, "op#12 MatMul(bias)".
std::string NodeLabel(const OpNode& node, int index) {
  std::string label = StrFormat("op#%d %s", index, ag::OpKindName(node.kind));
  if (node.output != nullptr && !node.output->name().empty())
    label += StrFormat(" ('%s')", node.output->name().c_str());
  return label;
}

class Linter {
 public:
  Linter(const ag::Tape& tape, const TapeLintOptions& options)
      : tape_(tape), options_(options) {}

  std::vector<GraphIssue> Run() {
    const std::vector<OpNode>& nodes = tape_.nodes();
    for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
      if (!CheckOperandsPresent(nodes[i], i)) continue;
      CheckShapes(nodes[i], i);
      CheckWrites(nodes[i], i);
      CheckStaleGrad(nodes[i], i);
    }
    CheckReachability();
    return std::move(issues_);
  }

 private:
  void Add(GraphIssue::Kind kind, int node, std::string message) {
    issues_.push_back(GraphIssue{kind, node, std::move(message)});
  }

  bool CheckOperandsPresent(const OpNode& node, int i) {
    if (node.output == nullptr) {
      Add(GraphIssue::Kind::kBadOperand, i,
          StrFormat("op#%d %s: missing output tensor", i,
                    ag::OpKindName(node.kind)));
      return false;
    }
    if (node.inputs.empty()) {
      Add(GraphIssue::Kind::kBadOperand, i,
          NodeLabel(node, i) + ": op has no inputs");
      return false;
    }
    for (size_t k = 0; k < node.inputs.size(); ++k) {
      if (node.inputs[k] == nullptr) {
        Add(GraphIssue::Kind::kBadOperand, i,
            NodeLabel(node, i) + StrFormat(": input %zu is null", k));
        return false;
      }
    }
    return true;
  }

  void ExpectOutput(const OpNode& node, int i, const Shape& expected) {
    const Shape actual = ShapeOf(node.output);
    if (actual == expected) return;
    Add(GraphIssue::Kind::kShapeMismatch, i,
        NodeLabel(node, i) +
            StrFormat(": expected output %s, got %s",
                      ShapeStr(expected).c_str(), ShapeStr(actual).c_str()));
  }

  void ExpectInputCount(const OpNode& node, int i, size_t count, bool* ok) {
    if (node.inputs.size() == count) return;
    Add(GraphIssue::Kind::kBadOperand, i,
        NodeLabel(node, i) + StrFormat(": expected %zu inputs, got %zu",
                                       count, node.inputs.size()));
    *ok = false;
  }

  // The shape-inference table: one case per OpKind, mirroring the
  // contracts documented in autograd/ops.h.
  void CheckShapes(const OpNode& node, int i) {
    const std::vector<ag::TensorPtr>& in = node.inputs;
    bool ok = true;
    switch (node.kind) {
      case OpKind::kMatMul: {
        ExpectInputCount(node, i, 2, &ok);
        if (!ok) break;
        const Shape a = ShapeOf(in[0]);
        const Shape b = ShapeOf(in[1]);
        const int a_rows = node.flag0 ? a.cols : a.rows;
        const int a_cols = node.flag0 ? a.rows : a.cols;
        const int b_rows = node.flag1 ? b.cols : b.rows;
        const int b_cols = node.flag1 ? b.rows : b.cols;
        if (a_cols != b_rows) {
          Add(GraphIssue::Kind::kShapeMismatch, i,
              NodeLabel(node, i) +
                  StrFormat(": inner dimensions differ: op(a)=%dx%d vs "
                            "op(b)=%dx%d",
                            a_rows, a_cols, b_rows, b_cols));
          break;
        }
        ExpectOutput(node, i, {a_rows, b_cols});
        break;
      }
      case OpKind::kAdd:
      case OpKind::kMul: {
        ExpectInputCount(node, i, 2, &ok);
        if (!ok) break;
        const Shape a = ShapeOf(in[0]);
        const Shape b = ShapeOf(in[1]);
        if (!(a == b)) {
          Add(GraphIssue::Kind::kShapeMismatch, i,
              NodeLabel(node, i) +
                  StrFormat(": elementwise operands differ: %s vs %s",
                            ShapeStr(a).c_str(), ShapeStr(b).c_str()));
          break;
        }
        ExpectOutput(node, i, a);
        break;
      }
      case OpKind::kScale:
      case OpKind::kRelu:
      case OpKind::kSigmoid:
      case OpKind::kTanh:
      case OpKind::kSoftmaxRows:
      case OpKind::kDropout: {
        ExpectInputCount(node, i, 1, &ok);
        if (!ok) break;
        ExpectOutput(node, i, ShapeOf(in[0]));
        break;
      }
      case OpKind::kAddBias: {
        ExpectInputCount(node, i, 2, &ok);
        if (!ok) break;
        const Shape x = ShapeOf(in[0]);
        const Shape bias = ShapeOf(in[1]);
        if (bias.rows != 1 || bias.cols != x.cols) {
          Add(GraphIssue::Kind::kShapeMismatch, i,
              NodeLabel(node, i) +
                  StrFormat(": bias must be 1x%d to broadcast over %s rows, "
                            "got %s",
                            x.cols, ShapeStr(x).c_str(),
                            ShapeStr(bias).c_str()));
          break;
        }
        ExpectOutput(node, i, x);
        break;
      }
      case OpKind::kBroadcastRow: {
        ExpectInputCount(node, i, 1, &ok);
        if (!ok) break;
        const Shape row = ShapeOf(in[0]);
        if (row.rows != 1) {
          Add(GraphIssue::Kind::kShapeMismatch, i,
              NodeLabel(node, i) +
                  StrFormat(": input must be a single row, got %s",
                            ShapeStr(row).c_str()));
          break;
        }
        ExpectOutput(node, i, {node.arg0, row.cols});
        break;
      }
      case OpKind::kConcatCols:
      case OpKind::kConcatRows: {
        const bool by_cols = node.kind == OpKind::kConcatCols;
        const Shape first = ShapeOf(in[0]);
        int sum = by_cols ? first.cols : first.rows;
        bool uniform = true;
        for (size_t k = 1; k < in.size(); ++k) {
          const Shape part = ShapeOf(in[k]);
          const int shared = by_cols ? part.rows : part.cols;
          const int shared_first = by_cols ? first.rows : first.cols;
          if (shared != shared_first) {
            Add(GraphIssue::Kind::kShapeMismatch, i,
                NodeLabel(node, i) +
                    StrFormat(": part %zu is %s but part 0 is %s (%s must "
                              "match)",
                              k, ShapeStr(part).c_str(),
                              ShapeStr(first).c_str(),
                              by_cols ? "row counts" : "column counts"));
            uniform = false;
            break;
          }
          sum += by_cols ? part.cols : part.rows;
        }
        if (!uniform) break;
        ExpectOutput(node, i,
                     by_cols ? Shape{first.rows, sum} : Shape{sum, first.cols});
        break;
      }
      case OpKind::kGatherRows: {
        ExpectInputCount(node, i, 1, &ok);
        if (!ok) break;
        const Shape table = ShapeOf(in[0]);
        if (node.arg1 >= table.rows) {
          Add(GraphIssue::Kind::kBadOperand, i,
              NodeLabel(node, i) +
                  StrFormat(": gathered id %d out of range for a %d-row "
                            "table",
                            node.arg1, table.rows));
          break;
        }
        ExpectOutput(node, i, {node.arg0, table.cols});
        break;
      }
      case OpKind::kTranspose: {
        ExpectInputCount(node, i, 1, &ok);
        if (!ok) break;
        const Shape x = ShapeOf(in[0]);
        ExpectOutput(node, i, {x.cols, x.rows});
        break;
      }
      case OpKind::kLayerNorm: {
        ExpectInputCount(node, i, 3, &ok);
        if (!ok) break;
        const Shape x = ShapeOf(in[0]);
        for (int k = 1; k <= 2; ++k) {
          const Shape param = ShapeOf(in[k]);
          if (param.rows != 1 || param.cols != x.cols) {
            Add(GraphIssue::Kind::kShapeMismatch, i,
                NodeLabel(node, i) +
                    StrFormat(": %s must be 1x%d, got %s",
                              k == 1 ? "gain" : "bias", x.cols,
                              ShapeStr(param).c_str()));
            ok = false;
          }
        }
        if (!ok) break;
        ExpectOutput(node, i, x);
        break;
      }
      case OpKind::kSumAll: {
        ExpectInputCount(node, i, 1, &ok);
        if (!ok) break;
        ExpectOutput(node, i, {1, 1});
        break;
      }
      case OpKind::kBprLoss: {
        ExpectInputCount(node, i, 2, &ok);
        if (!ok) break;
        const Shape pos = ShapeOf(in[0]);
        const Shape negs = ShapeOf(in[1]);
        if (pos.rows != 1 || pos.cols != 1) {
          Add(GraphIssue::Kind::kShapeMismatch, i,
              NodeLabel(node, i) + StrFormat(": pos must be 1x1, got %s",
                                             ShapeStr(pos).c_str()));
          break;
        }
        if (negs.cols != 1) {
          Add(GraphIssue::Kind::kShapeMismatch, i,
              NodeLabel(node, i) +
                  StrFormat(": negs must be a column (n x 1), got %s",
                            ShapeStr(negs).c_str()));
          break;
        }
        ExpectOutput(node, i, {1, 1});
        break;
      }
    }
  }

  // Buffer-write discipline: every tensor has at most one producing op, and
  // registered parameters (leaves) have none.
  void CheckWrites(const OpNode& node, int i) {
    const Tensor* out = node.output.get();
    auto [it, inserted] = producer_.emplace(out, i);
    if (!inserted) {
      Add(GraphIssue::Kind::kDoubleWrite, i,
          NodeLabel(node, i) +
              StrFormat(": output tensor already written by op#%d %s",
                        it->second,
                        ag::OpKindName(tape_.nodes()[it->second].kind)));
    }
    for (const ag::Tensor* param : options_.parameters) {
      if (param == out) {
        Add(GraphIssue::Kind::kParamOverwrite, i,
            NodeLabel(node, i) +
                ": writes a registered parameter (parameters are leaves)");
      }
    }
  }

  // Pre-backward gradient hygiene: an intermediate that wants gradients
  // must start with an absent or all-zero gradient, or backward would add
  // onto leftovers (the failure mode of recycling a pooled tensor without
  // zeroing). Registered parameters are exempt: they legitimately carry
  // accumulated gradient across a batch (and appearing as an op output at
  // all is already kParamOverwrite).
  void CheckStaleGrad(const OpNode& node, int i) {
    const Tensor* out = node.output.get();
    if (!out->requires_grad() || !out->has_grad()) return;
    for (const ag::Tensor* param : options_.parameters)
      if (param == out) return;
    if (out->grad_view().MaxAbs() == 0.0f) return;
    Add(GraphIssue::Kind::kStaleGrad, i,
        NodeLabel(node, i) +
            ": output carries a nonzero gradient before backward ran "
            "(recycled tensor with an unzeroed gradient?)");
  }

  void CheckReachability() {
    const std::vector<OpNode>& nodes = tape_.nodes();
    if (options_.root == nullptr) return;

    // Which tensors feed some later op (consumers), and which ops are
    // ancestors of the root (reachable).
    std::unordered_set<const Tensor*> consumed;
    for (const OpNode& node : nodes)
      for (const ag::TensorPtr& in : node.inputs) consumed.insert(in.get());

    std::vector<bool> reachable(nodes.size(), false);
    std::unordered_set<const Tensor*> reachable_inputs;
    auto root_it = producer_.find(options_.root.get());
    if (root_it == producer_.end()) {
      Add(GraphIssue::Kind::kMissingRoot, -1,
          "root tensor is not produced by any op on this tape");
      return;
    }
    std::vector<int> stack = {root_it->second};
    while (!stack.empty()) {
      const int i = stack.back();
      stack.pop_back();
      if (reachable[i]) continue;
      reachable[i] = true;
      for (const ag::TensorPtr& in : nodes[i].inputs) {
        reachable_inputs.insert(in.get());
        auto it = producer_.find(in.get());
        if (it != producer_.end() && !reachable[it->second])
          stack.push_back(it->second);
      }
    }

    for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
      if (reachable[i]) continue;
      const OpNode& node = nodes[i];
      if (node.output == nullptr) continue;  // already reported
      if (node.output->requires_grad()) {
        Add(GraphIssue::Kind::kDetachedGrad, i,
            NodeLabel(node, i) +
                ": requests gradients but is not reachable from the backward "
                "root — its gradient will never be computed");
      } else if (!options_.allow_dangling &&
                 consumed.find(node.output.get()) == consumed.end()) {
        Add(GraphIssue::Kind::kDanglingNode, i,
            NodeLabel(node, i) +
                ": output is consumed by no op and is not the backward root "
                "(dead compute)");
      }
    }

    if (options_.check_unreached_params) {
      for (const ag::Tensor* param : options_.parameters) {
        if (param == nullptr || !param->requires_grad()) continue;
        if (reachable_inputs.find(param) == reachable_inputs.end()) {
          const std::string name =
              param->name().empty() ? "<unnamed>" : param->name();
          Add(GraphIssue::Kind::kUnreachedParam, -1,
              StrFormat("parameter '%s' (%dx%d) is read by no op reachable "
                        "from the backward root",
                        name.c_str(), param->rows(), param->cols()));
        }
      }
    }
  }

  const ag::Tape& tape_;
  const TapeLintOptions& options_;
  std::unordered_map<const Tensor*, int> producer_;
  std::vector<GraphIssue> issues_;
};

}  // namespace

const char* GraphIssueKindName(GraphIssue::Kind kind) {
  switch (kind) {
    case GraphIssue::Kind::kShapeMismatch: return "shape-mismatch";
    case GraphIssue::Kind::kBadOperand: return "bad-operand";
    case GraphIssue::Kind::kDoubleWrite: return "double-write";
    case GraphIssue::Kind::kParamOverwrite: return "param-overwrite";
    case GraphIssue::Kind::kDanglingNode: return "dangling-node";
    case GraphIssue::Kind::kDetachedGrad: return "detached-grad";
    case GraphIssue::Kind::kUnreachedParam: return "unreached-param";
    case GraphIssue::Kind::kMissingRoot: return "missing-root";
    case GraphIssue::Kind::kStaleGrad: return "stale-grad";
  }
  return "<unknown>";
}

std::vector<GraphIssue> LintTape(const ag::Tape& tape,
                                 const TapeLintOptions& options) {
  std::vector<GraphIssue> issues;
  if (tape.nodes().empty() && tape.num_ops() > 0) {
    issues.push_back(GraphIssue{
        GraphIssue::Kind::kMissingRoot, -1,
        "tape has backward closures but no recorded graph structure — build "
        "it with graph recording on (Tape::set_record_graph)"});
    return issues;
  }
  return Linter(tape, options).Run();
}

Status ValidateTape(const ag::Tape& tape, const TapeLintOptions& options) {
  const std::vector<GraphIssue> issues = LintTape(tape, options);
  if (issues.empty()) return Status::Ok();
  std::vector<std::string> lines;
  lines.reserve(issues.size());
  for (const GraphIssue& issue : issues)
    lines.push_back(StrFormat("[%s] %s", GraphIssueKindName(issue.kind),
                              issue.message.c_str()));
  return Status::Error(
      StrFormat("graph validation found %zu issue(s):\n  ", issues.size()) +
      StrJoin(lines, "\n  "));
}

Status ValidateShardSlots(
    const std::vector<ag::GradShard::ParamSlot>& slots) {
  std::unordered_map<const ag::Tensor*, size_t> seen_tensor;
  std::unordered_map<const ag::RowGrad*, size_t> seen_rows;
  for (size_t i = 0; i < slots.size(); ++i) {
    const ag::GradShard::ParamSlot& slot = slots[i];
    if (slot.tensor == nullptr)
      return Status::Error(StrFormat("shard slot %zu has no tensor", i));
    auto [it, inserted] = seen_tensor.emplace(slot.tensor, i);
    if (!inserted) {
      const std::string name =
          slot.tensor->name().empty() ? "<unnamed>" : slot.tensor->name();
      return Status::Error(
          StrFormat("tensor '%s' registered in shard slots %zu and %zu — "
                    "its gradient would be reduced twice",
                    name.c_str(), it->second, i));
    }
    if (slot.row_grad != nullptr) {
      auto [rit, rinserted] = seen_rows.emplace(slot.row_grad, i);
      if (!rinserted) {
        return Status::Error(
            StrFormat("row gradient shared by shard slots %zu and %zu — "
                      "sparse reductions would interleave two parameters",
                      rit->second, i));
      }
    }
  }
  return Status::Ok();
}

}  // namespace groupsa::analysis
