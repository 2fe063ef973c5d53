#ifndef GROUPSA_AUTOGRAD_GRAD_CHECK_H_
#define GROUPSA_AUTOGRAD_GRAD_CHECK_H_

#include <functional>
#include <string>
#include <vector>

#include "autograd/row_grad.h"
#include "autograd/tape.h"
#include "autograd/tensor.h"

namespace groupsa::ag {

// Result of a finite-difference gradient check.
struct GradCheckResult {
  bool ok = true;
  // Worst absolute and relative mismatch over all checked entries.
  float max_abs_error = 0.0f;
  float max_rel_error = 0.0f;
  // Location of the worst mismatch, for diagnostics.
  std::string worst_entry;
};

// Verifies analytic gradients of `build` against central finite differences.
//
// `build` must construct the forward graph on the given tape and return a
// scalar loss; it is called repeatedly, so it must be a pure function of the
// current parameter values. `params` are the tensors whose gradients are
// checked (each must have requires_grad()). `step` is the finite-difference
// step; mismatches larger than both `abs_tolerance` and `rel_tolerance` fail.
// `row_grads`, when non-empty, runs parallel to `params`: a non-null entry
// is that parameter's sparse gradient (an embedding module's RowGrad, which
// its lookups' backward fills instead of grad()).
GradCheckResult CheckGradients(
    const std::function<TensorPtr(Tape*)>& build,
    const std::vector<TensorPtr>& params, float step = 1e-3f,
    float abs_tolerance = 2e-3f, float rel_tolerance = 2e-2f,
    const std::vector<RowGrad*>& row_grads = {});

}  // namespace groupsa::ag

#endif  // GROUPSA_AUTOGRAD_GRAD_CHECK_H_
