#ifndef GROUPSA_NN_MODULE_H_
#define GROUPSA_NN_MODULE_H_

#include <string>
#include <vector>

#include "autograd/row_grad.h"
#include "autograd/tensor.h"

namespace groupsa::nn {

// One learnable parameter as seen by optimizers and checkpoints.
struct ParamEntry {
  std::string name;
  ag::TensorPtr tensor;
  // Non-null for embedding-style parameters: the module-owned gradient of
  // the rows touched since the last optimizer step (autograd/row_grad.h).
  // Optimizers update only these rows and then clear it; such a parameter
  // never holds a dense grad().
  ag::RowGrad* row_grad = nullptr;
};

// Base class for neural network building blocks. A module owns parameters
// and/or submodules; `parameters()` flattens the whole tree with
// slash-separated names, which is what optimizers and checkpoints consume.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All parameters of this module and (recursively) its registered
  // submodules.
  std::vector<ParamEntry> Parameters() const;

  // Zeroes the dense gradient of every parameter and drops every sparse
  // parameter's touched rows.
  void ZeroGrad() const;

  // Total number of scalar parameters (for reporting).
  int64_t NumParameterScalars() const;

 protected:
  // Creates and registers a parameter of the given shape (zero-initialized;
  // call an initializer from nn/init.h afterwards).
  ag::TensorPtr RegisterParameter(const std::string& name, int rows, int cols);

  // Marks `tensor` (already registered) as sparsely updated: its gradient
  // is `row_grad`, owned by the caller module.
  void MarkSparse(const ag::TensorPtr& tensor, ag::RowGrad* row_grad);

  // Registers a child module; its parameters appear as "<prefix>/<name>".
  // The child must outlive this module (typically it is a data member).
  void RegisterSubmodule(const std::string& prefix, const Module* child);

 private:
  std::vector<ParamEntry> own_params_;
  std::vector<std::pair<std::string, const Module*>> children_;
};

}  // namespace groupsa::nn

#endif  // GROUPSA_NN_MODULE_H_
