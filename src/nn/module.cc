#include "nn/module.h"

namespace groupsa::nn {

std::vector<ParamEntry> Module::Parameters() const {
  std::vector<ParamEntry> all = own_params_;
  for (const auto& [prefix, child] : children_) {
    for (ParamEntry entry : child->Parameters()) {
      entry.name = prefix + "/" + entry.name;
      all.push_back(std::move(entry));
    }
  }
  return all;
}

void Module::ZeroGrad() const {
  for (const ParamEntry& entry : Parameters()) {
    entry.tensor->ZeroGrad();
    if (entry.row_grad != nullptr) entry.row_grad->Clear();
  }
}

int64_t Module::NumParameterScalars() const {
  int64_t total = 0;
  for (const ParamEntry& entry : Parameters())
    total += entry.tensor->value().size();
  return total;
}

ag::TensorPtr Module::RegisterParameter(const std::string& name, int rows,
                                        int cols) {
  ag::TensorPtr t = ag::Parameter(rows, cols);
  t->set_name(name);
  own_params_.push_back(ParamEntry{name, t, nullptr});
  return t;
}

void Module::MarkSparse(const ag::TensorPtr& tensor, ag::RowGrad* row_grad) {
  for (ParamEntry& entry : own_params_) {
    if (entry.tensor == tensor) {
      entry.row_grad = row_grad;
      return;
    }
  }
  GROUPSA_CHECK(false, "MarkSparse: tensor is not a registered parameter");
}

void Module::RegisterSubmodule(const std::string& prefix, const Module* child) {
  GROUPSA_CHECK(child != nullptr, "RegisterSubmodule: null child");
  children_.emplace_back(prefix, child);
}

}  // namespace groupsa::nn
