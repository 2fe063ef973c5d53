// CRC-32 (slice-by-8): the standard check value, empty input, incremental
// updates split at every offset, and random buffers at every start offset
// within an 8-byte word against a byte-at-a-time reference.

#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace groupsa {
namespace {

// The textbook bitwise CRC-32, one byte at a time: the reference the table
// implementation must reproduce.
uint32_t ReferenceCrc32(const unsigned char* bytes, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(len);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.NextInt(256));
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  const char kInput[] = "123456789";
  EXPECT_EQ(Crc32Of(kInput, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) {
  EXPECT_EQ(Crc32Of(nullptr, 0), 0u);
  EXPECT_EQ(Crc32::Update(Crc32::kInit, nullptr, 0), Crc32::kInit);
}

TEST(Crc32Test, UpdateSplitAtEveryOffsetMatchesOneShot) {
  const std::vector<unsigned char> bytes = RandomBytes(300, /*seed=*/7);
  const uint32_t one_shot = Crc32Of(bytes.data(), bytes.size());
  EXPECT_EQ(one_shot, ReferenceCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    uint32_t crc = Crc32::Update(Crc32::kInit, bytes.data(), split);
    crc = Crc32::Update(crc, bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(Crc32::Finalize(crc), one_shot) << "split at " << split;
  }
}

TEST(Crc32Test, RandomBuffersAtEveryAlignmentMatchReference) {
  const std::vector<unsigned char> bytes = RandomBytes(108, /*seed=*/11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 100; ++len) {
      const unsigned char* start = bytes.data() + offset;
      EXPECT_EQ(Crc32Of(start, len), ReferenceCrc32(start, len))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace groupsa
