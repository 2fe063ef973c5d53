#include "nn/embedding.h"

#include "nn/init.h"

namespace groupsa::nn {

Embedding::Embedding(const std::string& name, int count, int dim, Rng* rng)
    : row_grad_(dim) {
  table_ = RegisterParameter(name + ".table", count, dim);
  GlorotUniform(&table_->mutable_value(), count, dim, rng);
  MarkSparse(table_, &row_grad_);
}

ag::TensorPtr Embedding::Forward(ag::Tape* tape, const std::vector<int>& ids) {
  return ag::GatherRows(tape, table_, ids, &row_grad_);
}

ag::TensorPtr Embedding::Lookup(ag::Tape* tape, int id) {
  return Forward(tape, {id});
}

}  // namespace groupsa::nn
