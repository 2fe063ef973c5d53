#ifndef GROUPSA_NN_OPTIMIZER_H_
#define GROUPSA_NN_OPTIMIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "nn/module.h"

namespace groupsa::nn {

// Base optimizer over a flat parameter list. The training loop is:
//
//   loss = model.Forward(&tape, batch);
//   tape.Backward(loss);
//   optimizer.Step();   // applies updates AND re-zeroes the gradients
//
// Step() zeroes consumed gradients itself: dense parameters are fully
// re-zeroed, sparse (embedding) parameters only on their touched rows, whose
// set is then cleared. λ‖Θ‖² regularization (Eq. 21/24) is applied as
// coupled L2 weight decay: grad += weight_decay * value.
//
// Lazy decay: parameters whose gradient is identically zero for a step are
// skipped entirely (no decay either). This matters for two-stage training:
// with Adam, a decay-only signal normalizes to a ±learning_rate update per
// step, which would crush the group-task towers to zero (dead ReLUs) while
// stage 1 trains the user task. Skipping keeps untouched modules intact,
// mirroring the per-row lazy handling of embeddings.
class Optimizer {
 public:
  Optimizer(std::vector<ParamEntry> params, float learning_rate,
            float weight_decay);
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  virtual void Step() = 0;

  void set_learning_rate(float learning_rate) {
    learning_rate_ = learning_rate;
  }
  float learning_rate() const { return learning_rate_; }
  const std::vector<ParamEntry>& params() const { return params_; }

 protected:
  std::vector<ParamEntry> params_;
  float learning_rate_;
  float weight_decay_;
};

// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<ParamEntry> params, float learning_rate,
      float weight_decay = 0.0f, float momentum = 0.0f);

  void Step() override;

 private:
  float momentum_;
  std::vector<tensor::Matrix> velocity_;
};

// Adam (Kingma & Ba) with lazy sparse updates: for embedding tables only the
// touched rows advance, each with its own step counter for correct bias
// correction.
class Adam : public Optimizer {
 public:
  Adam(std::vector<ParamEntry> params, float learning_rate,
       float weight_decay = 0.0f, float beta1 = 0.9f, float beta2 = 0.999f,
       float epsilon = 1e-8f);

  void Step() override;

  // Streams the full optimizer state — first/second moments and the dense
  // and per-row step counters — straight from the live tables, for
  // crash-safe training snapshots (core/trainer.h). Per parameter: name,
  // u32 rows, u32 cols, m and v floats, i64 step, u32 row-step count and the
  // i64 row steps. Restoring into an Adam built over the same parameter
  // list resumes updates bit-identically to an uninterrupted run.
  void WriteState(ByteSink* sink) const;

  // All-or-nothing, with nothing staged: validates the payload in place
  // (parameter count, names, shapes, row-step counts, truncation, trailing
  // bytes) before it copies the moments and step counters into the live
  // tables.
  Status RestoreState(std::string_view payload);

 private:
  // The one adam-payload parser: validates, and copies into `into`'s state
  // when it is non-null.
  Status ReadState(std::string_view payload, Adam* into) const;

  float beta1_;
  float beta2_;
  float epsilon_;
  std::vector<tensor::Matrix> m_;
  std::vector<tensor::Matrix> v_;
  // Per-parameter dense step counter; for sparse parameters a per-row
  // counter.
  std::vector<int64_t> step_;
  std::vector<std::vector<int64_t>> row_step_;
};

}  // namespace groupsa::nn

#endif  // GROUPSA_NN_OPTIMIZER_H_
