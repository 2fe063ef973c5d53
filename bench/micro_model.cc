// Model-level micro-benchmarks: forward/score/training-step costs and the
// Sec. II-F fast-recommendation trade-off (full voting path vs averaged
// member scores) as a function of group size.

#include <benchmark/benchmark.h>

#include "baselines/static_agg.h"
#include "core/inference_engine.h"
#include "core/trainer.h"
#include "pipeline/experiment.h"

namespace {

using namespace groupsa;

struct BenchWorld {
  pipeline::ExperimentData data;
  core::GroupSaConfig config;
  core::ModelData model_data;
  std::unique_ptr<core::GroupSaModel> model;

  BenchWorld() {
    pipeline::RunOptions options;
    options.seed = 13;
    data = pipeline::PrepareData(data::SyntheticWorldConfig::Tiny(), options);
    config = core::GroupSaConfig::Default();
    model_data = pipeline::BuildModelData(data, config);
    Rng rng(7);
    model = std::make_unique<core::GroupSaModel>(
        config, data.num_users(), data.num_items(), model_data, &rng);
  }
};

BenchWorld& World() {
  static BenchWorld* world = new BenchWorld();
  return *world;
}

std::vector<data::UserId> MembersOfSize(int l) {
  std::vector<data::UserId> members;
  for (int i = 0; i < l; ++i)
    members.push_back((i * 13) % World().data.num_users());
  return members;
}

void BM_UserForward(benchmark::State& state) {
  auto& w = World();
  for (auto _ : state) {
    auto fwd = w.model->BuildUserForward(nullptr, 3, false, nullptr);
    benchmark::DoNotOptimize(fwd.embedding->value().data());
  }
}
BENCHMARK(BM_UserForward);

void BM_GroupForward(benchmark::State& state) {
  auto& w = World();
  const auto members = MembersOfSize(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto fwd =
        w.model->BuildGroupForwardFromMembers(nullptr, members, false,
                                              nullptr);
    benchmark::DoNotOptimize(fwd.reps.reps->value().data());
  }
}
BENCHMARK(BM_GroupForward)->Arg(3)->Arg(6)->Arg(12);

// The Sec. II-F comparison: scoring 100 candidates through the full voting
// path vs the fast average-of-member-scores path (Group+avg).
void BM_FullGroupScoring100(benchmark::State& state) {
  auto& w = World();
  const auto members = MembersOfSize(static_cast<int>(state.range(0)));
  std::vector<data::ItemId> items(100);
  for (int i = 0; i < 100; ++i) items[i] = i % w.data.num_items();
  for (auto _ : state) {
    auto scores = w.model->inference().ScoreItemsForMembers(members, items);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_FullGroupScoring100)->Arg(3)->Arg(6)->Arg(12);

void BM_FastGroupScoring100(benchmark::State& state) {
  auto& w = World();
  const baselines::StaticAggRecommender fast(
      w.model.get(), baselines::ScoreAggregation::kAverage);
  const auto members = MembersOfSize(static_cast<int>(state.range(0)));
  std::vector<data::ItemId> items(100);
  for (int i = 0; i < 100; ++i) items[i] = i % w.data.num_items();
  for (auto _ : state) {
    auto scores = fast.ScoreItemsForMembers(members, items);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_FastGroupScoring100)->Arg(3)->Arg(6)->Arg(12);

void BM_GroupTrainingStep(benchmark::State& state) {
  auto& w = World();
  Rng rng(11);
  nn::Adam optimizer(w.model->Parameters(), 0.005f);
  data::NegativeSampler sampler(&w.data.gi_train);
  const auto& edges = w.data.gi.train;
  size_t idx = 0;
  for (auto _ : state) {
    const data::Edge& edge = edges[idx++ % edges.size()];
    ag::Tape tape;
    auto fwd = w.model->BuildGroupForward(&tape, edge.row, true, &rng);
    auto pos = w.model->ScoreGroupItem(&tape, fwd, edge.item, true, &rng);
    auto neg = w.model->ScoreGroupItem(&tape, fwd,
                                       sampler.Sample(edge.row, &rng), true,
                                       &rng);
    ag::TensorPtr loss = ag::BprLoss(&tape, pos.score, neg.score);
    tape.Backward(loss);
    optimizer.Step();
  }
}
BENCHMARK(BM_GroupTrainingStep);

}  // namespace
