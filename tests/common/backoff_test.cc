#include "common/backoff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace groupsa {
namespace {

BackoffPolicy NoJitter() {
  BackoffPolicy p;
  p.base_ticks = 2;
  p.max_ticks = 64;
  p.jitter = 0.0;
  return p;
}

TEST(BackoffTest, ExponentialWithoutJitterUpToTheCap) {
  const BackoffPolicy p = NoJitter();
  EXPECT_EQ(BackoffDelayTicks(p, /*key=*/1, /*attempt=*/0), 2u);
  EXPECT_EQ(BackoffDelayTicks(p, 1, 1), 4u);
  EXPECT_EQ(BackoffDelayTicks(p, 1, 2), 8u);
  EXPECT_EQ(BackoffDelayTicks(p, 1, 4), 32u);
  EXPECT_EQ(BackoffDelayTicks(p, 1, 5), 64u);   // hits the cap exactly
  EXPECT_EQ(BackoffDelayTicks(p, 1, 6), 64u);   // capped
  EXPECT_EQ(BackoffDelayTicks(p, 1, 20), 64u);  // still capped
}

TEST(BackoffTest, HugeAttemptSaturatesInsteadOfOverflowing) {
  const BackoffPolicy p = NoJitter();
  // A shift of >= 63 would be UB / wraparound on the raw expression; the
  // implementation must saturate to max_ticks instead.
  EXPECT_EQ(BackoffDelayTicks(p, 1, 62), 64u);
  EXPECT_EQ(BackoffDelayTicks(p, 1, 63), 64u);
  EXPECT_EQ(BackoffDelayTicks(p, 1, 1000), 64u);
}

TEST(BackoffTest, JitterStaysInsideItsBand) {
  BackoffPolicy p;
  p.base_ticks = 4;
  p.max_ticks = 256;
  p.jitter = 0.5;
  for (uint64_t key = 0; key < 50; ++key) {
    for (int attempt = 0; attempt < 7; ++attempt) {
      const uint64_t raw =
          std::min(p.max_ticks, p.base_ticks << attempt);
      const uint64_t lo = static_cast<uint64_t>(
          std::ceil(static_cast<double>(raw) * (1.0 - p.jitter)));
      const uint64_t d = BackoffDelayTicks(p, key, attempt);
      EXPECT_GE(d, std::max<uint64_t>(1, lo)) << key << "/" << attempt;
      EXPECT_LE(d, raw) << key << "/" << attempt;
    }
  }
}

TEST(BackoffTest, DelayNeverJittersBelowOneTick) {
  BackoffPolicy p;
  p.base_ticks = 1;
  p.jitter = 1.0;  // jitter may remove the whole delay...
  for (uint64_t key = 0; key < 200; ++key)
    EXPECT_GE(BackoffDelayTicks(p, key, 0), 1u);  // ...but never below 1
}

TEST(BackoffTest, PureFunctionOfPolicyKeyAndAttempt) {
  BackoffPolicy p;
  p.jitter = 0.5;
  for (uint64_t key = 0; key < 20; ++key) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      const uint64_t first = BackoffDelayTicks(p, key, attempt);
      // Recomputing (any number of times, in any order) yields the same
      // delay: there is no hidden stream state.
      EXPECT_EQ(BackoffDelayTicks(p, key, attempt), first);
      EXPECT_EQ(BackoffDelayTicks(p, key, attempt), first);
    }
  }
}

TEST(BackoffTest, KeysDrawFromDecorrelatedStreams) {
  BackoffPolicy p;
  p.base_ticks = 16;
  p.max_ticks = 1024;
  p.jitter = 0.5;
  // Different keys must not all draw the same jitter (else synchronized
  // retry storms stay synchronized). With a /2-wide band over 64 keys,
  // identical draws across the board would be astronomically unlikely.
  bool any_different = false;
  const uint64_t first = BackoffDelayTicks(p, 0, 3);
  for (uint64_t key = 1; key < 64 && !any_different; ++key)
    any_different = BackoffDelayTicks(p, key, 3) != first;
  EXPECT_TRUE(any_different);
}

TEST(BackoffTest, DifferentSeedsReshuffleTheJitter) {
  BackoffPolicy a;
  a.base_ticks = 16;
  a.max_ticks = 1024;
  a.jitter = 0.5;
  BackoffPolicy b = a;
  b.seed = a.seed + 1;
  bool any_different = false;
  for (uint64_t key = 0; key < 64 && !any_different; ++key)
    any_different =
        BackoffDelayTicks(a, key, 2) != BackoffDelayTicks(b, key, 2);
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace groupsa
