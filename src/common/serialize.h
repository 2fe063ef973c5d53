#ifndef GROUPSA_COMMON_SERIALIZE_H_
#define GROUPSA_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace groupsa {

// Destination of a little-endian encoding. The Write* helpers all funnel
// into Append, which each sink implements: ByteWriter keeps the bytes in a
// string, and the checkpoint writer's sinks (nn/checkpoint.cc) fold them
// into a CRC and a length, or stream them to disk in 64 KiB chunks. An
// encoder written against ByteSink therefore serves every destination with
// one byte layout.
class ByteSink {
 public:
  virtual void Append(const void* data, size_t len) = 0;

  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  void WriteFloats(const float* data, size_t count) {
    Append(data, count * sizeof(float));
  }
  void WriteI64s(const int64_t* data, size_t count) {
    Append(data, count * sizeof(int64_t));
  }
  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    Append(s.data(), s.size());
  }

 protected:
  ~ByteSink() = default;
};

// A ByteSink that keeps the bytes in memory, for small fixed-layout payloads
// (a snapshot's trainer section, a config fingerprint) and for callers that
// want a whole encoding as a string (EncodeParameters). Checkpoint saves do
// not build their large sections here: they stream them (nn/checkpoint.h).
// A writer that knows its final size reserves it up front, so the string is
// one allocation.
class ByteWriter final : public ByteSink {
 public:
  void Reserve(size_t n) { bytes_.reserve(n); }
  void Append(const void* data, size_t len) override {
    bytes_.append(static_cast<const char*>(data), len);
  }

  size_t size() const { return bytes_.size(); }
  const std::string& bytes() const { return bytes_; }
  std::string Release() { return std::move(bytes_); }

 private:
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
