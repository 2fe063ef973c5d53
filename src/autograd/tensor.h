#ifndef GROUPSA_AUTOGRAD_TENSOR_H_
#define GROUPSA_AUTOGRAD_TENSOR_H_

#include <memory>
#include <string>
#include <utility>

#include "tensor/matrix.h"

namespace groupsa::ag {

// A node in the autodiff graph: a value matrix plus (lazily allocated)
// gradient storage. Tensors are shared between the tape that created them and
// any module that owns them as a parameter; hence shared_ptr.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(tensor::Matrix value, bool requires_grad = false)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  const tensor::Matrix& value() const { return value_; }
  // Mutable access bumps `value_version()`. Every code path that rewrites a
  // parameter's values — optimizer steps, (re-)initialization, checkpoint
  // restore, finite-difference perturbation — goes through here, which is
  // what lets representation caches (e.g. core::InferenceEngine) detect
  // staleness without hooks at every call site. Forward ops never take
  // mutable access to their inputs.
  tensor::Matrix& mutable_value() {
    ++value_version_;
    return value_;
  }

  // Monotone counter of mutable value accesses; see mutable_value().
  uint64_t value_version() const { return value_version_; }

  bool requires_grad() const { return requires_grad_; }
  void set_requires_grad(bool requires_grad) {
    requires_grad_ = requires_grad;
  }

  int rows() const { return value_.rows(); }
  int cols() const { return value_.cols(); }

  // Scalar accessor; CHECKs the tensor is 1 x 1.
  float scalar() const {
    GROUPSA_CHECK(value_.rows() == 1 && value_.cols() == 1,
                  "scalar() on non-scalar tensor");
    return value_.At(0, 0);
  }

  // Dense gradient storage, allocated (zeroed, same shape as value) on first
  // use. When a GradShard (autograd/grad_shard.h) is active on the calling
  // thread and this dense tensor is registered with it, resolves to the
  // shard-local buffer instead — the hook behind lock-free sharded minibatch
  // training. A registered sparse tensor dies here. An embedding table's
  // gradient lives in its module's ag::RowGrad (row_grad.h), never here, so
  // a trained table has no dense gradient (has_grad() stays false).
  tensor::Matrix& grad();
  const tensor::Matrix& grad_view() const { return grad_; }
  bool has_grad() const { return grad_.SameShape(value_); }
  void ZeroGrad() {
    if (has_grad()) grad_.SetZero();
  }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  tensor::Matrix value_;
  tensor::Matrix grad_;
  uint64_t value_version_ = 0;
  bool requires_grad_ = false;
  std::string name_;
};

using TensorPtr = std::shared_ptr<Tensor>;

// Creates a constant (no-grad) tensor.
TensorPtr Constant(tensor::Matrix value);

// Creates a tensor that participates in gradient computation (a parameter or
// differentiable intermediate).
TensorPtr Variable(tensor::Matrix value);

// Creates a zero-initialized parameter of the given shape.
TensorPtr Parameter(int rows, int cols);

}  // namespace groupsa::ag

#endif  // GROUPSA_AUTOGRAD_TENSOR_H_
