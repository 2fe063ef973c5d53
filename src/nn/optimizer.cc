#include "nn/optimizer.h"

#include <cmath>
#include <cstring>

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
    auto update_row = [&](int r, const float* g) {
      float* v = value.RowPtr(r);
      float* vel = momentum_ != 0.0f ? velocity_[i].RowPtr(r) : nullptr;
      for (int c = 0; c < value.cols(); ++c) {
        float gc = g[c] + weight_decay_ * v[c];
        if (vel != nullptr) {
          vel[c] = momentum_ * vel[c] + gc;
          gc = vel[c];
        }
        v[c] -= learning_rate_ * gc;
      }
    };
    if (p.row_grad != nullptr) {
      for (size_t k = 0; k < p.row_grad->num_rows(); ++k)
        update_row(p.row_grad->rows()[k], p.row_grad->slot(k));
      p.row_grad->Clear();
      continue;
    }
    tensor::Matrix& grad = p.tensor->grad();
    if (grad.MaxAbs() == 0.0f) continue;  // see header: lazy decay
    for (int r = 0; r < value.rows(); ++r) update_row(r, grad.RowPtr(r));
    grad.SetZero();
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
    if (p.row_grad != nullptr) row_step_[i].assign(p.tensor->rows(), 0);
  }
}

void Adam::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    ParamEntry& p = params_[i];
    tensor::Matrix& value = p.tensor->mutable_value();
    auto update_row = [&](int r, const float* g, int64_t t) {
      const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t));
      float* val = value.RowPtr(r);
      float* mr = m_[i].RowPtr(r);
      float* vr = v_[i].RowPtr(r);
      for (int c = 0; c < value.cols(); ++c) {
        const float gc = g[c] + weight_decay_ * val[c];
        mr[c] = beta1_ * mr[c] + (1.0f - beta1_) * gc;
        vr[c] = beta2_ * vr[c] + (1.0f - beta2_) * gc * gc;
        const float m_hat = mr[c] / bc1;
        const float v_hat = vr[c] / bc2;
        val[c] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
      }
    };
    if (p.row_grad != nullptr) {
      // Rows are independent (each has its own step counter), so visiting
      // them in first-touch order gives the bits of any other order.
      for (size_t k = 0; k < p.row_grad->num_rows(); ++k) {
        const int r = p.row_grad->rows()[k];
        update_row(r, p.row_grad->slot(k), ++row_step_[i][r]);
      }
      p.row_grad->Clear();
      continue;
    }
    tensor::Matrix& grad = p.tensor->grad();
    if (grad.MaxAbs() == 0.0f) continue;  // see header: lazy decay
    const int64_t t = ++step_[i];
    for (int r = 0; r < value.rows(); ++r) update_row(r, grad.RowPtr(r), t);
    grad.SetZero();
  }
}

void Adam::WriteState(ByteSink* sink) const {
  sink->WriteU32(static_cast<uint32_t>(params_.size()));
  for (size_t i = 0; i < params_.size(); ++i) {
    sink->WriteString(params_[i].name);
    sink->WriteU32(static_cast<uint32_t>(m_[i].rows()));
    sink->WriteU32(static_cast<uint32_t>(m_[i].cols()));
    sink->WriteFloats(m_[i].data(), static_cast<size_t>(m_[i].size()));
    sink->WriteFloats(v_[i].data(), static_cast<size_t>(v_[i].size()));
    sink->WriteI64(step_[i]);
    sink->WriteU32(static_cast<uint32_t>(row_step_[i].size()));
    sink->WriteI64s(row_step_[i].data(), row_step_[i].size());
  }
}

Status Adam::ReadState(std::string_view payload, Adam* into) const {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.ReadU32(&count))
    return Status::Error("truncated adam section");
  if (count != params_.size()) {
    return Status::Error(StrFormat(
        "adam state holds %u parameters, optimizer has %zu", count,
        params_.size()));
  }
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
    const size_t moment_bytes =
        sizeof(float) * static_cast<size_t>(m_[i].size());
    const size_t moments_at = reader.Position();
    int64_t step = 0;
    uint32_t num_row_steps = 0;
    if (!reader.Skip(2 * moment_bytes) || !reader.ReadI64(&step) ||
        !reader.ReadU32(&num_row_steps)) {
      return Status::Error(StrFormat("truncated adam record %u", i));
    }
    if (num_row_steps != row_step_[i].size()) {
      return Status::Error(StrFormat(
          "adam state row-step count mismatch for %s", name.c_str()));
    }
    const size_t row_steps_at = reader.Position();
    if (!reader.Skip(sizeof(int64_t) * num_row_steps))
      return Status::Error(StrFormat("truncated adam record %u", i));
    if (into != nullptr) {
      const char* moments = payload.data() + moments_at;
      std::memcpy(into->m_[i].data(), moments, moment_bytes);
      std::memcpy(into->v_[i].data(), moments + moment_bytes, moment_bytes);
      into->step_[i] = step;
      if (num_row_steps > 0)  // dense parameters keep no row steps
        std::memcpy(into->row_step_[i].data(), payload.data() + row_steps_at,
                    sizeof(int64_t) * num_row_steps);
    }
  }
  if (!reader.AtEnd())
    return Status::Error("trailing bytes in adam section");
  return Status::Ok();
}

Status Adam::RestoreState(std::string_view payload) {
  GROUPSA_RETURN_IF_ERROR(ReadState(payload, nullptr));
  // The payload checked out, so the copying run cannot fail part-way.
  return ReadState(payload, this);
}

}  // namespace groupsa::nn
