#ifndef GROUPSA_BASELINES_BPR_H_
#define GROUPSA_BASELINES_BPR_H_

#include <functional>
#include <vector>

#include "autograd/ops.h"
#include "data/interaction_matrix.h"
#include "data/negative_sampler.h"
#include "nn/optimizer.h"

namespace groupsa::baselines {

// Shared mini-batch BPR fitting loop used by the baseline models. The model
// supplies a per-triple loss builder so it can share expensive row-side
// computation between the positive and its negatives.
struct BprFitOptions {
  int epochs = 10;
  float learning_rate = 0.005f;
  float weight_decay = 1e-6f;
  int num_negatives = 1;
  int batch_size = 64;
};

// Builds the scalar BPR loss for one (row, positive, negatives) triple on
// `tape`.
using TripleLossFn = std::function<ag::TensorPtr(
    ag::Tape* tape, int row, data::ItemId positive,
    const std::vector<data::ItemId>& negatives, Rng* rng)>;

// Runs `options.epochs` shuffled passes over `train`, sampling negatives
// from the complement of `observed`, optimizing `params` with Adam. Returns
// the average loss of the final epoch.
double FitBpr(const TripleLossFn& triple_loss,
              const std::vector<nn::ParamEntry>& params,
              const data::EdgeList& train,
              const data::InteractionMatrix* observed,
              const BprFitOptions& options, Rng* rng);

// One shuffled epoch with a caller-owned optimizer (used by models that
// interleave several tasks and must keep Adam state across passes). Returns
// the average loss over the epoch.
double FitBprEpoch(const TripleLossFn& triple_loss, nn::Adam* optimizer,
                   const data::EdgeList& train,
                   const data::NegativeSampler& sampler,
                   const BprFitOptions& options, Rng* rng);

}  // namespace groupsa::baselines

#endif  // GROUPSA_BASELINES_BPR_H_
