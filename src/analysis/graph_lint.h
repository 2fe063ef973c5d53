#ifndef GROUPSA_ANALYSIS_GRAPH_LINT_H_
#define GROUPSA_ANALYSIS_GRAPH_LINT_H_

#include <string>
#include <vector>

#include "autograd/grad_shard.h"
#include "autograd/tape.h"
#include "common/status.h"

namespace groupsa::analysis {

// Static validator for recorded autograd tapes (ag::Tape::nodes()). It
// re-runs shape inference over every node — independently of the forward
// implementations in autograd/ops.cc — and checks graph-level invariants, so
// a malformed graph is rejected *before* its backward pass executes instead
// of corrupting gradients downstream. Debug builds run this automatically on
// the first training tape of every epoch (core/trainer.cc);
// core::GroupSaModel::ValidateGraph() runs it on demand against a
// representative training graph.

// One diagnostic. `node` indexes Tape::nodes() (-1 for graph-level issues);
// `message` names the offending op and, for shape issues, expected vs.
// actual shapes.
struct GraphIssue {
  enum class Kind {
    // Output (or an input constraint) disagrees with the op's shape table.
    kShapeMismatch,
    // An operand violates a structural precondition (null tensor, empty
    // input list, out-of-range gather/slice ids).
    kBadOperand,
    // The same tensor is written by two different ops.
    kDoubleWrite,
    // A registered leaf parameter appears as an op output.
    kParamOverwrite,
    // Dead compute: an op whose output no other op consumes and that is not
    // the backward root.
    kDanglingNode,
    // An op not reachable backward from the root whose output still
    // requests gradients — its gradient would silently never be computed.
    kDetachedGrad,
    // A parameter that no root-reachable op reads — backward can never
    // produce a gradient for it, yet the optimizer would "train" it.
    kUnreachedParam,
    // The requested root was not produced by any op on this tape.
    kMissingRoot,
    // A non-parameter op output that requests gradients already carries a
    // nonzero gradient before backward ran. With tensor pooling this means
    // a recycled tensor was handed out without its stale gradient being
    // zeroed; the backward pass would silently add last batch's gradient on
    // top of this batch's.
    kStaleGrad,
  };

  Kind kind = Kind::kShapeMismatch;
  int node = -1;
  std::string message;
};

const char* GraphIssueKindName(GraphIssue::Kind kind);

struct TapeLintOptions {
  // Backward root (the loss tensor). When set, enables the reachability
  // checks: kDanglingNode, kDetachedGrad, kUnreachedParam, kMissingRoot.
  ag::TensorPtr root;

  // Leaf parameters of the model. They must never appear as an op output
  // (kParamOverwrite) and — with check_unreached_params — must each feed at
  // least one root-reachable op (kUnreachedParam).
  std::vector<const ag::Tensor*> parameters;

  // Off by default because single-task epoch graphs legitimately leave the
  // other task's tower untouched; GroupSaModel::ValidateGraph turns it on
  // for the combined user+group graph, where every parameter must
  // participate.
  bool check_unreached_params = false;

  // Permit gradient-free dead compute. Dead ops are pure waste and usually
  // indicate a builder bug, so the default flags them.
  bool allow_dangling = false;
};

// Walks the tape's recorded nodes and returns every violation found (empty
// means the graph is well-formed). Requires the tape to have been built with
// graph recording on; a tape with ops but no nodes cannot be validated and
// yields a single kMissingRoot-style diagnostic.
std::vector<GraphIssue> LintTape(const ag::Tape& tape,
                                 const TapeLintOptions& options);

// LintTape folded into a Status: Ok when clean, otherwise an error listing
// every issue op-by-op (one line each).
Status ValidateTape(const ag::Tape& tape, const TapeLintOptions& options);

// Validates a GradShard registration: every slot carries a tensor, no
// tensor is registered twice (two shards reducing the same buffer would
// double-count its gradient), and no sparse row gradient is shared by two
// different tensors. Run once per Trainer at construction.
Status ValidateShardSlots(
    const std::vector<ag::GradShard::ParamSlot>& slots);

}  // namespace groupsa::analysis

#endif  // GROUPSA_ANALYSIS_GRAPH_LINT_H_
