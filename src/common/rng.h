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
  float NextFloat();

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

  // Derives an independent generator; useful for giving each experiment
  // repetition its own stream.
  Rng Fork();

  // Mixes (seed, stream) into a decorrelated seed via splitmix64, so that
  // stream i of a given seed is a fixed, reproducible function of the two.
  // The parallel trainer keys each minibatch shard's generator off
  // (batch_seed, shard_index), which is what makes stochastic training
  // invariant to thread count: the draws depend on the shard structure, not
  // on which thread runs the shard.
  static uint64_t StreamSeed(uint64_t seed, uint64_t stream);

  // Splits `seed` into `n` independent generators, stream i seeded with
  // StreamSeed(seed, i). Streams are reproducible (same seed and n give the
  // same generators) and, by xoshiro's full-period state mixing, do not
  // collide in practice.
  static std::vector<Rng> Split(uint64_t seed, int n);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace groupsa

#endif  // GROUPSA_COMMON_RNG_H_
