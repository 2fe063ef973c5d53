#include "autograd/grad_check.h"

#include <cmath>

#include "common/string_util.h"

namespace groupsa::ag {

GradCheckResult CheckGradients(const std::function<TensorPtr(Tape*)>& build,
                               const std::vector<TensorPtr>& params,
                               float step, float abs_tolerance,
                               float rel_tolerance,
                               const std::vector<RowGrad*>& row_grads) {
  GROUPSA_CHECK(row_grads.empty() || row_grads.size() == params.size(),
                "row_grads must run parallel to params");
  auto row_grad = [&](size_t pi) {
    return row_grads.empty() ? nullptr : row_grads[pi];
  };
  GradCheckResult result;

  // One analytic pass; a sparse gradient is scattered into a dense matrix.
  for (size_t pi = 0; pi < params.size(); ++pi) {
    params[pi]->ZeroGrad();
    if (RowGrad* rows = row_grad(pi)) rows->Clear();
  }
  std::vector<tensor::Matrix> analytic;
  {
    Tape tape;
    TensorPtr loss = build(&tape);
    tape.Backward(loss);
    for (size_t pi = 0; pi < params.size(); ++pi) {
      RowGrad* rows = row_grad(pi);
      if (rows == nullptr) {
        analytic.push_back(params[pi]->grad());
        continue;
      }
      tensor::Matrix& dense =
          analytic.emplace_back(params[pi]->rows(), params[pi]->cols());
      for (size_t slot = 0; slot < rows->num_rows(); ++slot)
        dense.SetRow(rows->rows()[slot], rows->slot(slot));
      rows->Clear();
    }
  }

  // Numeric central differences, element by element.
  for (size_t pi = 0; pi < params.size(); ++pi) {
    const TensorPtr& p = params[pi];
    GROUPSA_CHECK(p->requires_grad(), "grad check param must require grad");
    tensor::Matrix& value = p->mutable_value();
    for (int i = 0; i < value.size(); ++i) {
      const float original = value.data()[i];
      value.data()[i] = original + step;
      float loss_plus;
      {
        Tape tape;
        loss_plus = build(&tape)->scalar();
      }
      value.data()[i] = original - step;
      float loss_minus;
      {
        Tape tape;
        loss_minus = build(&tape)->scalar();
      }
      value.data()[i] = original;

      const float numeric = (loss_plus - loss_minus) / (2.0f * step);
      const float got = analytic[pi].data()[i];
      const float abs_err = std::fabs(numeric - got);
      const float denom = std::max(std::fabs(numeric), std::fabs(got));
      const float rel_err = denom > 1e-8f ? abs_err / denom : 0.0f;
      if (abs_err > result.max_abs_error) {
        result.max_abs_error = abs_err;
        result.worst_entry = StrFormat(
            "param %zu entry %d: analytic=%.6f numeric=%.6f", pi, i,
            static_cast<double>(got), static_cast<double>(numeric));
      }
      result.max_rel_error = std::max(result.max_rel_error, rel_err);
      if (abs_err > abs_tolerance && rel_err > rel_tolerance)
        result.ok = false;
    }
  }
  return result;
}

}  // namespace groupsa::ag
