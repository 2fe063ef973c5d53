#include "nn/optimizer.h"

#include <cmath>

#include "common/serialize.h"
#include "common/string_util.h"

namespace groupsa::nn {

Optimizer::Optimizer(std::vector<ParamEntry> params, float learning_rate,
                     float weight_decay)
    : params_(std::move(params)),
      learning_rate_(learning_rate),
      weight_decay_(weight_decay) {}

Sgd::Sgd(std::vector<ParamEntry> params, float learning_rate,
         float weight_decay, float momentum)
    : Optimizer(std::move(params), learning_rate, weight_decay),
      momentum_(momentum) {
  if (momentum_ != 0.0f) {
    velocity_.reserve(params_.size());
    for (const ParamEntry& p : params_)
      velocity_.emplace_back(p.tensor->rows(), p.tensor->cols());
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    ParamEntry& p = params_[i];
    tensor::Matrix& value = p.tensor->mutable_value();
    tensor::Matrix& grad = p.tensor->grad();
    auto update_row = [&](int r) {
      float* v = value.RowPtr(r);
      float* g = grad.RowPtr(r);
      float* vel = momentum_ != 0.0f ? velocity_[i].RowPtr(r) : nullptr;
      for (int c = 0; c < value.cols(); ++c) {
        float gc = g[c] + weight_decay_ * v[c];
        if (vel != nullptr) {
          vel[c] = momentum_ * vel[c] + gc;
          gc = vel[c];
        }
        v[c] -= learning_rate_ * gc;
        g[c] = 0.0f;
      }
    };
    if (p.touched_rows != nullptr) {
      for (int r : *p.touched_rows) update_row(r);
      p.touched_rows->clear();
    } else {
      if (grad.MaxAbs() == 0.0f) continue;  // see header: lazy decay
      for (int r = 0; r < value.rows(); ++r) update_row(r);
    }
  }
}

Adam::Adam(std::vector<ParamEntry> params, float learning_rate,
           float weight_decay, float beta1, float beta2, float epsilon)
    : Optimizer(std::move(params), learning_rate, weight_decay),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  step_.assign(params_.size(), 0);
  row_step_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    const ParamEntry& p = params_[i];
    m_.emplace_back(p.tensor->rows(), p.tensor->cols());
    v_.emplace_back(p.tensor->rows(), p.tensor->cols());
    if (p.touched_rows != nullptr)
      row_step_[i].assign(p.tensor->rows(), 0);
  }
}

void Adam::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    ParamEntry& p = params_[i];
    tensor::Matrix& value = p.tensor->mutable_value();
    tensor::Matrix& grad = p.tensor->grad();
    auto update_row = [&](int r, int64_t t) {
      const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t));
      float* val = value.RowPtr(r);
      float* g = grad.RowPtr(r);
      float* mr = m_[i].RowPtr(r);
      float* vr = v_[i].RowPtr(r);
      for (int c = 0; c < value.cols(); ++c) {
        const float gc = g[c] + weight_decay_ * val[c];
        mr[c] = beta1_ * mr[c] + (1.0f - beta1_) * gc;
        vr[c] = beta2_ * vr[c] + (1.0f - beta2_) * gc * gc;
        const float m_hat = mr[c] / bc1;
        const float v_hat = vr[c] / bc2;
        val[c] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
        g[c] = 0.0f;
      }
    };
    if (p.touched_rows != nullptr) {
      for (int r : *p.touched_rows) update_row(r, ++row_step_[i][r]);
      p.touched_rows->clear();
    } else {
      if (grad.MaxAbs() == 0.0f) continue;  // see header: lazy decay
      const int64_t t = ++step_[i];
      for (int r = 0; r < value.rows(); ++r) update_row(r, t);
    }
  }
}

std::string Adam::SerializeState() const {
  size_t total = sizeof(uint32_t);
  for (size_t i = 0; i < params_.size(); ++i) {
    total += sizeof(uint32_t) + params_[i].name.size() +
             2 * sizeof(uint32_t) +
             2 * sizeof(float) * static_cast<size_t>(m_[i].size()) +
             sizeof(int64_t) + sizeof(uint32_t) +
             sizeof(int64_t) * row_step_[i].size();
  }
  ByteWriter out;
  out.Reserve(total);
  out.WriteU32(static_cast<uint32_t>(params_.size()));
  for (size_t i = 0; i < params_.size(); ++i) {
    out.WriteString(params_[i].name);
    out.WriteU32(static_cast<uint32_t>(m_[i].rows()));
    out.WriteU32(static_cast<uint32_t>(m_[i].cols()));
    out.WriteFloats(m_[i].data(), static_cast<size_t>(m_[i].size()));
    out.WriteFloats(v_[i].data(), static_cast<size_t>(v_[i].size()));
    out.WriteI64(step_[i]);
    out.WriteU32(static_cast<uint32_t>(row_step_[i].size()));
    for (int64_t t : row_step_[i]) out.WriteI64(t);
  }
  return out.Release();
}

Status Adam::RestoreState(std::string_view payload) {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.ReadU32(&count))
    return Status::Error("truncated adam section");
  if (count != params_.size()) {
    return Status::Error(StrFormat(
        "adam state holds %u parameters, optimizer has %zu", count,
        params_.size()));
  }
  // Stage everything before touching live moments (all-or-nothing, matching
  // the DecodeParameters contract).
  std::vector<tensor::Matrix> m(count), v(count);
  std::vector<int64_t> step(count, 0);
  std::vector<std::vector<int64_t>> row_step(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint32_t rows = 0;
    uint32_t cols = 0;
    if (!reader.ReadString(&name) || !reader.ReadU32(&rows) ||
        !reader.ReadU32(&cols)) {
      return Status::Error(StrFormat("truncated adam record %u", i));
    }
    if (name != params_[i].name) {
      return Status::Error(StrFormat(
          "adam state parameter %u is '%s', optimizer expects '%s'", i,
          name.c_str(), params_[i].name.c_str()));
    }
    if (static_cast<int>(rows) != m_[i].rows() ||
        static_cast<int>(cols) != m_[i].cols()) {
      return Status::Error(StrFormat(
          "adam state shape mismatch for %s: file %ux%u vs %dx%d",
          name.c_str(), rows, cols, m_[i].rows(), m_[i].cols()));
    }
    m[i].Resize(static_cast<int>(rows), static_cast<int>(cols));
    v[i].Resize(static_cast<int>(rows), static_cast<int>(cols));
    uint32_t num_row_steps = 0;
    if (!reader.ReadFloats(m[i].data(), static_cast<size_t>(m[i].size())) ||
        !reader.ReadFloats(v[i].data(), static_cast<size_t>(v[i].size())) ||
        !reader.ReadI64(&step[i]) || !reader.ReadU32(&num_row_steps)) {
      return Status::Error(StrFormat("truncated adam record %u", i));
    }
    const size_t expected =
        params_[i].touched_rows != nullptr ? static_cast<size_t>(rows) : 0;
    if (num_row_steps != expected) {
      return Status::Error(StrFormat(
          "adam state row-step count mismatch for %s", name.c_str()));
    }
    row_step[i].resize(num_row_steps);
    for (uint32_t r = 0; r < num_row_steps; ++r) {
      if (!reader.ReadI64(&row_step[i][r]))
        return Status::Error(StrFormat("truncated adam record %u", i));
    }
  }
  if (!reader.AtEnd())
    return Status::Error("trailing bytes in adam section");
  m_ = std::move(m);
  v_ = std::move(v);
  step_ = std::move(step);
  row_step_ = std::move(row_step);
  return Status::Ok();
}

}  // namespace groupsa::nn
