#include "common/crc32.h"

namespace groupsa {
namespace {

// Slice-by-8 lookup tables for the reflected polynomial, built once on first
// use. entry[0] is the classic byte-at-a-time table; entry[t][b] is the CRC
// contribution of byte b followed by t zero bytes, so eight table lookups
// fold eight input bytes at once. The checkpoint path runs the CRC three
// times over every byte (record, section and file tiers), so its throughput
// bounds how fast a checkpoint saves and loads.
struct Crc32Tables {
  uint32_t entry[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      entry[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int t = 1; t < 8; ++t) {
        const uint32_t prev = entry[t - 1][i];
        entry[t][i] = entry[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

// Little-endian load assembled from bytes, so the result does not depend on
// the host's byte order or on the pointer's alignment.
uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32::Update(uint32_t crc, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = Tables().entry;
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t lo = crc ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len)
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  return crc;
}

uint32_t Crc32Of(const void* data, size_t len) {
  return Crc32::Finalize(Crc32::Update(Crc32::kInit, data, len));
}

}  // namespace groupsa
