#ifndef GROUPSA_COMMON_SERIALIZE_H_
#define GROUPSA_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace groupsa {

// Little-endian append-only byte buffer used to build checkpoint sections in
// memory before they hit disk. Keeping serialization off the FILE* means a
// section is either fully present (with a matching CRC) or absent — there is
// no half-written in-memory state to reason about. A writer that knows its
// final size reserves it up front, so the payload is one allocation.
class ByteWriter {
 public:
  void Reserve(size_t n) { bytes_.reserve(n); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  void WriteFloats(const float* data, size_t count) {
    Append(data, count * sizeof(float));
  }
  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    Append(s.data(), s.size());
  }
  // Overwrites the u32 at byte `offset`, written earlier as a placeholder
  // (e.g. a CRC over bytes that follow it).
  void PatchU32(size_t offset, uint32_t v) {
    std::memcpy(bytes_.data() + offset, &v, sizeof(v));
  }

  size_t size() const { return bytes_.size(); }
  const std::string& bytes() const { return bytes_; }
  std::string Release() { return std::move(bytes_); }

 private:
  void Append(const void* data, size_t len) {
    bytes_.append(static_cast<const char*>(data), len);
  }
  std::string bytes_;
};

// Bounds-checked reader over a serialized section. Every accessor returns
// false on overrun instead of reading past the end, so truncated files fail
// loudly with a Status instead of feeding garbage downstream.
class ByteReader {
 public:
  ByteReader(const void* data, size_t len)
      : data_(static_cast<const char*>(data)), len_(len) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ReadU32(uint32_t* v) { return Copy(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return Copy(v, sizeof(*v)); }
  bool ReadI64(int64_t* v) { return Copy(v, sizeof(*v)); }
  bool ReadDouble(double* v) { return Copy(v, sizeof(*v)); }
  bool ReadFloats(float* data, size_t count) {
    return Copy(data, count * sizeof(float));
  }
  bool ReadString(std::string* s) {
    uint32_t n = 0;
    if (!ReadU32(&n) || n > Remaining()) return false;
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  // Advances past `n` bytes without copying.
  bool Skip(size_t n) {
    if (n > Remaining()) return false;
    pos_ += n;
    return true;
  }

  size_t Remaining() const { return len_ - pos_; }
  size_t Position() const { return pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  bool Copy(void* out, size_t n) {
    if (n > Remaining()) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const char* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace groupsa

#endif  // GROUPSA_COMMON_SERIALIZE_H_
