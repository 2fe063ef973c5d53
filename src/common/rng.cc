#include "common/rng.h"

#include <cmath>

#include "common/macros.h"

namespace groupsa {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

float Rng::NextFloat() { return static_cast<float>(NextDouble()); }

int Rng::NextInt(int bound) {
  GROUPSA_CHECK(bound > 0, "NextInt bound must be positive");
  return static_cast<int>(NextU64() % static_cast<uint64_t>(bound));
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

int Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    GROUPSA_DCHECK(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  return NextWeighted(weights, total);
}

int Rng::NextWeighted(const std::vector<double>& weights, double total) {
  GROUPSA_CHECK(!weights.empty(), "NextWeighted requires weights");
  GROUPSA_CHECK(total > 0.0, "weights must have positive sum");
  double r = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  GROUPSA_CHECK(k >= 0 && k <= n, "SampleWithoutReplacement requires k <= n");
  // Partial Fisher-Yates over an index array; O(n) setup, fine at our scales.
  std::vector<int> indices(n);
  for (int i = 0; i < n; ++i) indices[i] = i;
  for (int i = 0; i < k; ++i) {
    int j = i + NextInt(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

Rng Rng::Fork() { return Rng(NextU64()); }

Rng::State Rng::SaveState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.has_cached_gaussian = has_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::RestoreState(const State& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  has_cached_gaussian_ = state.has_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

uint64_t Rng::StreamSeed(uint64_t seed, uint64_t stream) {
  // One splitmix64 mix of the stream index offset by the golden-ratio
  // increment, xor-folded into the seed: distinct streams land in distinct,
  // well-separated splitmix sequences.
  uint64_t state = seed + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  return SplitMix64(&state);
}

std::vector<Rng> Rng::Split(uint64_t seed, int n) {
  GROUPSA_CHECK(n >= 0, "Split requires a non-negative stream count");
  std::vector<Rng> streams;
  streams.reserve(n);
  for (int i = 0; i < n; ++i)
    streams.emplace_back(StreamSeed(seed, static_cast<uint64_t>(i)));
  return streams;
}

}  // namespace groupsa
