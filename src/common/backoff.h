#ifndef GROUPSA_COMMON_BACKOFF_H_
#define GROUPSA_COMMON_BACKOFF_H_

#include <cstdint>

namespace groupsa {

// Retry with exponential backoff and *deterministic* jitter.
//
// Backoff delays here are measured in VirtualClock ticks, not wall time:
// a retry does not sleep, it spends ticks of the request's deadline budget
// (so a request that retries is strictly closer to expiry than one that
// succeeded first try — backoff has teeth without a wall clock). Jitter
// exists for the usual reason — decorrelating retry storms — but is drawn
// from the library's seeded Rng streams (`Rng::StreamSeed`), never from
// ad-hoc randomness: the delay for (policy, key, attempt) is a pure
// function of those three values, identical at any thread count, which is
// what the race-labelled determinism tests pin.
struct BackoffPolicy {
  // Retries allowed after the first attempt; 0 disables retrying.
  int max_retries = 0;
  // Delay for attempt a (0-based retry index) before jitter:
  //   min(max_ticks, base_ticks << a)
  uint64_t base_ticks = 1;
  uint64_t max_ticks = 64;
  // Fraction of the delay that jitter may remove: the jittered delay lies
  // in [ceil(delay * (1 - jitter)), delay]. 0 disables jitter; values are
  // clamped to [0, 1]. Delays never jitter below 1 tick.
  double jitter = 0.5;
  // Seed of the jitter stream; mixed with (key, attempt) via
  // Rng::StreamSeed so every request draws from its own decorrelated
  // stream.
  uint64_t seed = 0x5eed0fbac0ffULL;
};

// The jittered delay, in ticks, before retry `attempt` (0-based) of the
// work identified by `key` (the serve daemon keys by request ticket).
// Pure function of its arguments. `attempt` values beyond 62 saturate the
// shift rather than overflow.
uint64_t BackoffDelayTicks(const BackoffPolicy& policy, uint64_t key,
                           int attempt);

}  // namespace groupsa

#endif  // GROUPSA_COMMON_BACKOFF_H_
