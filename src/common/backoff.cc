#include "common/backoff.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace groupsa {

uint64_t BackoffDelayTicks(const BackoffPolicy& policy, uint64_t key,
                           int attempt) {
  if (attempt < 0) attempt = 0;
  const uint64_t base = std::max<uint64_t>(1, policy.base_ticks);
  const uint64_t cap = std::max<uint64_t>(base, policy.max_ticks);
  // Saturating base << attempt: past 63 shifts (or once the shifted value
  // clears the cap) the exponential phase is over and the cap holds.
  uint64_t delay = cap;
  if (attempt < 63) {
    const uint64_t shifted = base << attempt;
    // Overflow check: an overflowing shift loses its high bits, so undo it.
    delay = (shifted >> attempt) == base ? std::min(shifted, cap) : cap;
  }
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  if (jitter > 0.0 && delay > 1) {
    // One decorrelated stream per (key, attempt): the draw is the first
    // double of a generator seeded by mixing the two through StreamSeed
    // twice, so neighbouring keys and attempts share no structure.
    Rng rng(Rng::StreamSeed(Rng::StreamSeed(policy.seed, key),
                            static_cast<uint64_t>(attempt)));
    const double scale = 1.0 - jitter * rng.NextDouble();
    const double jittered =
        std::ceil(static_cast<double>(delay) * scale);
    delay = std::max<uint64_t>(1, static_cast<uint64_t>(jittered));
  }
  return delay;
}

}  // namespace groupsa
