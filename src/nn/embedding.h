#ifndef GROUPSA_NN_EMBEDDING_H_
#define GROUPSA_NN_EMBEDDING_H_

#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"

namespace groupsa::nn {

// Embedding table (count x dim), Glorot-initialized per the paper. The
// backward pass of a lookup adds into the module's RowGrad, which holds the
// touched rows only, so optimizers update only those rows and the table
// never carries a dense gradient.
class Embedding : public Module {
 public:
  Embedding(const std::string& name, int count, int dim, Rng* rng);

  // Gathers rows for `ids`; output is |ids| x dim.
  ag::TensorPtr Forward(ag::Tape* tape, const std::vector<int>& ids);

  // Single-row lookup; output is 1 x dim.
  ag::TensorPtr Lookup(ag::Tape* tape, int id);

  // Direct (no-grad) read of a row, for inference-only scoring paths.
  // Returns a borrowed view — no allocation, no copy; valid until the table
  // is mutated or resized.
  tensor::RowView Row(int id) const { return table_->value().RowAt(id); }

  int count() const { return table_->rows(); }
  int dim() const { return table_->cols(); }
  const ag::TensorPtr& table() const { return table_; }
  // The table's gradient: the rows touched since the last optimizer step.
  const ag::RowGrad& row_grad() const { return row_grad_; }

  // Overwrites the table values (used by the joint-training hand-off that
  // initializes the group task from stage-1 embeddings, Sec. II-E).
  void SetTable(const tensor::Matrix& values);

 private:
  ag::TensorPtr table_;
  ag::RowGrad row_grad_;
};

}  // namespace groupsa::nn

#endif  // GROUPSA_NN_EMBEDDING_H_
