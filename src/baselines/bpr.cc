#include "baselines/bpr.h"

#include <algorithm>

namespace groupsa::baselines {

double FitBprEpoch(const TripleLossFn& triple_loss, nn::Adam* optimizer,
                   const data::EdgeList& train,
                   const data::NegativeSampler& sampler,
                   const BprFitOptions& options, Rng* rng) {
  std::vector<data::Edge> order(train);
  rng->Shuffle(&order);
  double total_loss = 0.0;
  size_t next = 0;
  while (next < order.size()) {
    ag::Tape tape;
    std::vector<ag::TensorPtr> losses;
    const size_t batch_end = std::min(
        order.size(), next + static_cast<size_t>(options.batch_size));
    for (; next < batch_end; ++next) {
      const data::Edge& edge = order[next];
      losses.push_back(triple_loss(
          &tape, edge.row, edge.item,
          sampler.SampleMany(edge.row, options.num_negatives, rng), rng));
    }
    ag::TensorPtr stacked = ag::ConcatRows(&tape, losses);
    ag::TensorPtr loss = ag::Scale(&tape, ag::SumAll(&tape, stacked),
                                   1.0f / static_cast<float>(losses.size()));
    total_loss += loss->scalar() * static_cast<double>(losses.size());
    tape.Backward(loss);
    optimizer->Step();
  }
  return train.empty() ? 0.0
                       : total_loss / static_cast<double>(train.size());
}

double FitBpr(const TripleLossFn& triple_loss,
              const std::vector<nn::ParamEntry>& params,
              const data::EdgeList& train,
              const data::InteractionMatrix* observed,
              const BprFitOptions& options, Rng* rng) {
  nn::Adam optimizer(params, options.learning_rate, options.weight_decay);
  data::NegativeSampler sampler(observed);
  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    last_epoch_loss =
        FitBprEpoch(triple_loss, &optimizer, train, sampler, options, rng);
  }
  return last_epoch_loss;
}

}  // namespace groupsa::baselines
