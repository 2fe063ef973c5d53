#ifndef GROUPSA_COMMON_RNG_H_
#define GROUPSA_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace groupsa {

// Deterministic, fast pseudo-random number generator (xoshiro256** seeded via
// splitmix64). Every stochastic component in the library draws from an Rng
// passed in explicitly, so experiments are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Next raw 64-bit value.
  uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound). `bound` must be positive.
  int NextInt(int bound);

  // Uniform in [lo, hi).
  double NextUniform(double lo, double hi);

  // Standard normal via Box-Muller.
  double NextGaussian();
  // Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  // Bernoulli draw with success probability p.
  bool NextBernoulli(double p);

  // Samples an index in [0, weights.size()) with probability proportional to
  // weights[i]. Weights must be non-negative with a positive sum.
  int NextWeighted(const std::vector<double>& weights);
  // The same draw with the sum precomputed, for weights sampled many times:
  // `total` must be the weights summed in index order, exactly as the
  // one-argument form sums them, so both forms draw the same index.
  int NextWeighted(const std::vector<double>& weights, double total);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (int i = static_cast<int>(values->size()) - 1; i > 0; --i) {
      int j = NextInt(i + 1);
      std::swap((*values)[i], (*values)[j]);
    }
  }

  // Samples `k` distinct indices from [0, n) uniformly (k <= n).
  std::vector<int> SampleWithoutReplacement(int n, int k);

  // Complete generator state, for crash-safe training snapshots: restoring a
  // saved state resumes the exact draw sequence, including a cached
  // Box-Muller half if one was pending.
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached_gaussian = false;
    double cached_gaussian = 0.0;
  };
  State SaveState() const;
  void RestoreState(const State& state);

  // Mixes (seed, stream) into a decorrelated seed via splitmix64, so that
  // stream i of a given seed is a fixed, reproducible function of the two.
  // The parallel trainer keys each minibatch shard's generator off
  // (batch_seed, shard_index), which is what makes stochastic training
  // invariant to thread count: the draws depend on the shard structure, not
  // on which thread runs the shard.
  static uint64_t StreamSeed(uint64_t seed, uint64_t stream);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

// The reference weighted draw, shared by NextWeighted and WeightedTable:
// subtracts weights[0], weights[1], ... from `r` in turn and returns the
// first index at which what is left of r reaches 0 or below, or the last
// index if rounding never takes it there. NextWeighted passes r = one
// NextDouble times the weights' total.
int WeightedScan(const std::vector<double>& weights, double r);

// A weight vector that is drawn from many times. Draw returns exactly the
// index NextWeighted(weights) returns from the same generator state, and
// consumes the same single NextDouble, but binary-searches prefix sums in
// O(log n) instead of scanning. The prefix sums round differently from the
// scan's running remainder, so a draw that lands within a rounding guard of
// a prefix sum falls back to WeightedScan (DESIGN.md §16 has the bound).
class WeightedTable {
 public:
  // Weights must be non-negative with a positive, finite sum.
  explicit WeightedTable(std::vector<double> weights);

  int Draw(Rng* rng) { return Find(rng->NextDouble() * total()); }
  // The index WeightedScan(weights, r) returns, for r in [0, total()].
  int Find(double r);

  // The weights summed in index order, as NextWeighted sums them.
  double total() const { return prefix_.back(); }
  // Finds that fell back to the scan.
  int64_t fallbacks() const { return fallbacks_; }

 private:
  std::vector<double> weights_;
  std::vector<double> prefix_;  // prefix_[i] = weights_[0] + ... + weights_[i]
  double guard_ = 0.0;
  int64_t fallbacks_ = 0;
};

}  // namespace groupsa

#endif  // GROUPSA_COMMON_RNG_H_
