#include "nn/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "tensor/matrix.h"

namespace groupsa::nn {
namespace {

constexpr uint32_t kMagicV2 = 0x32505347;  // "GSP2" little-endian
constexpr uint32_t kMagicV1 = 0x41505347;  // "GSPA" — the legacy format
constexpr uint32_t kVersion = 2;
constexpr size_t kWriteChunk = 64 * 1024;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Folds bytes into a CRC32 and a length: what a section's directory entry
// and a parameter record's header hold about the bytes that follow them.
class CrcCounter final : public ByteSink {
 public:
  void Append(const void* data, size_t len) override {
    crc_ = Crc32::Update(crc_, data, len);
    size_ += len;
  }
  uint32_t crc() const { return Crc32::Finalize(crc_); }
  uint64_t size() const { return size_; }

 private:
  uint32_t crc_ = Crc32::kInit;
  uint64_t size_ = 0;
};

// Streams a file through one kWriteChunk buffer while folding every byte
// into the running file CRC. Each full buffer, and the final partial one,
// is written as one chunk that consults the "checkpoint.write" failpoint,
// so fault-injection tests can produce genuinely partial files and chunks
// fall at every kWriteChunk offset of the file. The first failure sticks:
// later appends are dropped and status() reports it.
class ChunkWriter final : public ByteSink {
 public:
  ChunkWriter(std::FILE* f, const std::string& path) : f_(f), path_(path) {
    buffer_.reserve(kWriteChunk);
  }

  void Append(const void* data, size_t len) override {
    const char* bytes = static_cast<const char*>(data);
    while (len > 0 && status_.ok()) {
      const size_t n = std::min(kWriteChunk - buffer_.size(), len);
      crc_ = Crc32::Update(crc_, bytes, n);
      buffer_.append(bytes, n);
      bytes += n;
      len -= n;
      if (buffer_.size() == kWriteChunk) Flush();
    }
  }

  // CRC of every byte appended so far.
  uint32_t crc() const { return Crc32::Finalize(crc_); }
  const Status& status() const { return status_; }

  // Writes the buffered bytes as one chunk.
  Status Flush() {
    if (buffer_.empty() || !status_.ok()) return status_;
    const failpoint::Action action = GROUPSA_FAILPOINT("checkpoint.write");
    if (action == failpoint::Action::kError) {
      status_ = Status::Error("injected write failure: " + path_);
      return status_;
    }
    // Flip one bit of this chunk: the CRC tiers must catch it at load.
    if (action == failpoint::Action::kCorrupt)
      buffer_[buffer_.size() / 2] ^= 0x10;
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), f_) != buffer_.size())
      status_ = Status::Error("write failed: " + path_);
    buffer_.clear();
    return status_;
  }

 private:
  std::FILE* f_;
  std::string path_;
  std::string buffer_;
  uint32_t crc_ = Crc32::kInit;
  Status status_;
};

// A parameter record's body, the bytes its CRC covers: name, shape, data.
void WriteRecordBody(const ParamEntry& p, ByteSink* sink) {
  const tensor::Matrix& m = p.tensor->value();
  sink->WriteString(p.name);
  sink->WriteU32(static_cast<uint32_t>(m.rows()));
  sink->WriteU32(static_cast<uint32_t>(m.cols()));
  sink->WriteFloats(m.data(), static_cast<size_t>(m.size()));
}

// Sequential reads of checkpoint bytes: from a view in memory, or from the
// next `len` bytes of a file through one kWriteChunk buffer, so a streamed
// load holds a chunk of the file and never the file.
class ByteStream {
 public:
  explicit ByteStream(std::string_view bytes)
      : view_(bytes), left_(bytes.size()) {}
  ByteStream(std::FILE* f, size_t len) : file_(f), left_(len) {}

  size_t Remaining() const { return left_; }
  // A file read came up short (I/O error, or a file cut under the handle).
  bool failed() const { return failed_; }

  // Hands the next `n` bytes to `fn` in pieces; false when fewer remain or
  // a read fails.
  template <typename Fn>
  bool Stream(size_t n, Fn&& fn) {
    if (n > left_) return false;
    while (n > 0) {
      const std::string_view piece = Next(n);
      if (piece.empty()) return false;
      fn(piece.data(), piece.size());
      n -= piece.size();
    }
    return true;
  }
  bool Read(void* out, size_t n) {
    char* dst = static_cast<char*>(out);
    return Stream(n, [&](const char* data, size_t len) {
      std::memcpy(dst, data, len);
      dst += len;
    });
  }
  bool ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  bool ReadString(std::string* s) {
    uint32_t n = 0;
    if (!ReadU32(&n) || n > left_) return false;
    s->resize(n);
    return Read(s->data(), n);
  }

 private:
  // The next 1 to `max` bytes, or none when none remain or a read fails.
  std::string_view Next(size_t max) {
    max = std::min(max, left_);
    std::string_view piece;
    if (file_ == nullptr) {
      piece = view_.substr(0, max);
      view_.remove_prefix(piece.size());
    } else {
      if (buffer_pos_ == buffer_.size()) {
        buffer_.resize(std::min(kWriteChunk, left_));
        buffer_pos_ = 0;
        if (std::fread(buffer_.data(), 1, buffer_.size(), file_) !=
            buffer_.size()) {
          failed_ = true;
          left_ = 0;
          buffer_.clear();
          return {};
        }
      }
      piece = std::string_view(buffer_).substr(buffer_pos_, max);
      buffer_pos_ += piece.size();
    }
    left_ -= piece.size();
    return piece;
  }

  std::string_view view_;      // memory: the bytes not yet handed out
  std::FILE* file_ = nullptr;  // file: read from its current position
  std::string buffer_;         // file: one chunk, handed out from buffer_pos_
  size_t buffer_pos_ = 0;
  size_t left_;
  bool failed_ = false;
};

// A parameter record's body, read within the record's length and folded
// into the record CRC as it goes (unless `crc` is false).
class RecordStream {
 public:
  RecordStream(ByteStream* in, uint64_t len, bool crc)
      : in_(in), left_(len), fold_(crc) {}

  uint64_t left() const { return left_; }
  uint32_t crc() const { return Crc32::Finalize(crc_); }

  bool Read(void* out, size_t n) {
    if (n > left_ || !in_->Read(out, n)) return false;
    if (fold_) crc_ = Crc32::Update(crc_, out, n);
    left_ -= n;
    return true;
  }
  bool ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  bool ReadString(std::string* s) {
    uint32_t n = 0;
    if (!ReadU32(&n) || n > left_) return false;
    s->resize(n);
    return Read(s->data(), n);
  }
  // Reads the rest of the record, folding it into the CRC.
  bool Finish() {
    const bool ok = in_->Stream(left_, [&](const char* data, size_t len) {
      if (fold_) crc_ = Crc32::Update(crc_, data, len);
    });
    left_ = 0;
    return ok;
  }

 private:
  ByteStream* in_;
  uint64_t left_;
  bool fold_;
  uint32_t crc_ = Crc32::kInit;
};

// The one params-payload parser, over bytes in memory or streamed from a
// file. With `apply` false it runs every check of CheckParameters and
// copies nothing: a record's CRC is checked first, and anything else wrong
// with the record is reported only once its bytes are known to be the ones
// written. With `apply` true it reads each record's data straight into its
// tensor and skips the CRC and value checks, which the check run already
// passed.
Status ReadParameters(const std::vector<ParamEntry>& params, ByteStream* in,
                      bool apply) {
  uint32_t count = 0;
  if (!in->ReadU32(&count))
    return Status::Error("truncated params section");
  std::unordered_map<std::string, const ParamEntry*> by_name;
  for (const ParamEntry& p : params) by_name[p.name] = &p;

  // The count comes from the file, so nothing is sized by it. A count above
  // the model's fails at the first record past the model's parameters,
  // which cannot be a new known name (duplicate, unknown or truncated); a
  // smaller one fails below, naming the missing parameters.
  std::unordered_map<std::string, bool> seen;
  // Check runs stage values here, one block at a time.
  constexpr size_t kValueBlock = kWriteChunk / sizeof(float);
  std::vector<float> block;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t record_crc = 0;
    uint64_t record_len = 0;
    if (!in->ReadU32(&record_crc) || !in->ReadU64(&record_len) ||
        record_len > in->Remaining()) {
      return Status::Error(
          StrFormat("truncated parameter record %u of %u", i, count));
    }
    RecordStream record(in, record_len, /*crc=*/!apply);
    std::string name;
    uint32_t rows = 0;
    uint32_t cols = 0;
    Status problem;
    ag::Tensor* tensor = nullptr;
    if (!record.ReadString(&name) || !record.ReadU32(&rows) ||
        !record.ReadU32(&cols)) {
      problem = Status::Error(
          StrFormat("malformed parameter record %u of %u", i, count));
    } else if (auto it = by_name.find(name); it == by_name.end()) {
      problem = Status::Error("unknown parameter in checkpoint: " + name);
    } else if (seen[name]) {
      problem = Status::Error("duplicate parameter in checkpoint: " + name);
    } else {
      seen[name] = true;
      const ag::TensorPtr& live = it->second->tensor;
      if (live->rows() != static_cast<int>(rows) ||
          live->cols() != static_cast<int>(cols)) {
        problem = Status::Error(StrFormat(
            "shape mismatch for %s: file %ux%u vs model %dx%d", name.c_str(),
            rows, cols, live->rows(), live->cols()));
      } else if (sizeof(float) * static_cast<size_t>(live->value().size()) >
                 record.left()) {
        problem = Status::Error("truncated parameter data for " + name);
      } else {
        tensor = live.get();
      }
    }
    const size_t n =
        tensor != nullptr ? static_cast<size_t>(tensor->value().size()) : 0;
    if (apply) {
      GROUPSA_CHECK(problem.ok(), problem.message().c_str());
      if (!record.Read(tensor->mutable_value().data(), sizeof(float) * n) ||
          !record.Finish())
        return Status::Error("read failed in parameter data for " + name);
      continue;
    }
    // A NaN or Inf passes every CRC tier, yet served scores built from it
    // break the strict weak ordering top-K selection sorts by.
    size_t first_bad = n;
    for (size_t done = 0; done < n;) {
      const size_t m = std::min(kValueBlock, n - done);
      block.resize(m);
      if (!record.Read(block.data(), sizeof(float) * m))
        return Status::Error("read failed in parameter data for " + name);
      for (size_t e = 0; e < m && first_bad == n; ++e)
        if (!std::isfinite(block[e])) first_bad = done + e;
      done += m;
    }
    if (!record.Finish())
      return Status::Error(
          StrFormat("read failed in parameter record %u of %u", i, count));
    if (record.crc() != record_crc)
      return Status::Error(
          StrFormat("parameter record %u CRC mismatch", i));
    GROUPSA_RETURN_IF_ERROR(problem);
    if (first_bad < n) {
      const size_t width = static_cast<size_t>(tensor->cols());
      return Status::Error(StrFormat(
          "non-finite value in parameter %s at row %zu, col %zu",
          name.c_str(), first_bad / width, first_bad % width));
    }
  }
  if (in->Remaining() != 0)
    return Status::Error("trailing bytes in params section");
  if (seen.size() != params.size()) {
    std::vector<std::string> missing;
    for (const ParamEntry& p : params)
      if (!seen[p.name]) missing.push_back(p.name);
    return Status::Error(StrFormat(
        "checkpoint holds %zu of %zu parameters (missing: %s)", seen.size(),
        params.size(), StrJoin(missing, ", ").c_str()));
  }
  return Status::Ok();
}

// Checks the trailer CRC of a `size`-byte file read from `in` against every
// byte before it. It runs first: a file whose every byte is accounted for
// cannot be a torn prefix, so all further parsing works on verified data.
Status CheckFileCrc(ByteStream* in, size_t size, const std::string& path) {
  if (size < 4 * sizeof(uint32_t))
    return Status::Error("truncated checkpoint (too small): " + path);
  uint32_t crc = Crc32::kInit;
  uint32_t stored = 0;
  if (!in->Stream(size - sizeof(uint32_t),
                  [&](const char* data, size_t len) {
                    crc = Crc32::Update(crc, data, len);
                  }) ||
      !in->ReadU32(&stored))
    return Status::Error("read failed: " + path);
  if (Crc32::Finalize(crc) != stored)
    return Status::Error("checkpoint file CRC mismatch (torn write or bit "
                         "rot): " + path);
  return Status::Ok();
}

// Walks the header and section directory of a file whose CRC checked out,
// streaming each payload through its section CRC. `body` holds the file
// minus its trailer; section offsets count from the start of the file.
Status ReadDirectory(ByteStream* body, const std::string& path,
                     std::vector<CheckpointReader::Section>* out) {
  const size_t body_len = body->Remaining();
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t num_sections = 0;
  if (!body->ReadU32(&magic))
    return Status::Error("truncated checkpoint header: " + path);
  if (magic == kMagicV1)
    return Status::Error(
        "legacy v1 checkpoint (magic GSPA) is no longer supported; re-save "
        "with this build: " + path);
  if (magic != kMagicV2)
    return Status::Error("bad checkpoint magic: " + path);
  if (!body->ReadU32(&version) || version != kVersion)
    return Status::Error(
        StrFormat("unsupported checkpoint version %u (expected %u): %s",
                  version, kVersion, path.c_str()));
  if (!body->ReadU32(&num_sections))
    return Status::Error("truncated checkpoint header: " + path);

  std::vector<CheckpointReader::Section> sections;
  for (uint32_t i = 0; i < num_sections; ++i) {
    CheckpointReader::Section section;
    uint64_t payload_len = 0;
    uint32_t payload_crc = 0;
    if (!body->ReadString(&section.name) || !body->ReadU64(&payload_len) ||
        !body->ReadU32(&payload_crc) || payload_len > body->Remaining()) {
      return Status::Error(
          StrFormat("truncated section directory (section %u): %s", i,
                    path.c_str()));
    }
    section.offset = body_len - body->Remaining();
    section.size = static_cast<size_t>(payload_len);
    uint32_t crc = Crc32::kInit;
    if (!body->Stream(section.size, [&](const char* data, size_t len) {
          crc = Crc32::Update(crc, data, len);
        }))
      return Status::Error("read failed: " + path);
    if (Crc32::Finalize(crc) != payload_crc)
      return Status::Error(
          StrFormat("section '%s' CRC mismatch: %s", section.name.c_str(),
                    path.c_str()));
    sections.push_back(std::move(section));
  }
  *out = std::move(sections);
  return Status::Ok();
}

}  // namespace

void CheckpointWriter::AddSection(std::string name, Producer producer) {
  sections_.emplace_back(std::move(name), std::move(producer));
}

void CheckpointWriter::AddSection(std::string name, std::string payload) {
  AddSection(std::move(name),
             [payload = std::move(payload)](ByteSink* sink) {
               sink->Append(payload.data(), payload.size());
             });
}

Status CheckpointWriter::Commit(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (f == nullptr)
      return Status::Error("cannot open for write: " + tmp);
    ChunkWriter out(f.get(), tmp);
    // Header, then each section's directory entry and payload, then the
    // trailer CRC over every preceding byte. A section's producer runs
    // twice: into a counter for its entry, then into the file.
    auto write_file = [&]() -> Status {
      out.WriteU32(kMagicV2);
      out.WriteU32(kVersion);
      out.WriteU32(static_cast<uint32_t>(sections_.size()));
      for (const auto& [name, produce] : sections_) {
        CrcCounter counter;
        produce(&counter);
        out.WriteString(name);
        out.WriteU64(counter.size());
        out.WriteU32(counter.crc());
        produce(&out);
        GROUPSA_RETURN_IF_ERROR(out.status());
      }
      out.WriteU32(out.crc());
      return out.Flush();
    };
    if (Status s = write_file(); !s.ok()) {
      std::remove(tmp.c_str());
      return s;
    }
    if (std::fflush(f.get()) != 0) {
      std::remove(tmp.c_str());
      return Status::Error("flush failed: " + tmp);
    }
    if (GROUPSA_FAILPOINT("checkpoint.fsync") == failpoint::Action::kError) {
      std::remove(tmp.c_str());
      return Status::Error("injected fsync failure: " + tmp);
    }
    if (fsync(fileno(f.get())) != 0) {
      std::remove(tmp.c_str());
      return Status::Error("fsync failed: " + tmp);
    }
  }
  if (GROUPSA_FAILPOINT("checkpoint.rename") == failpoint::Action::kError) {
    std::remove(tmp.c_str());
    return Status::Error("injected rename failure: " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("rename failed: " + tmp + " -> " + path);
  }
  return Status::Ok();
}

Status CheckpointReader::Read(const std::string& path, CheckpointReader* out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::Error("cannot open for read: " + path);
  struct stat st {};
  if (fstat(fileno(f.get()), &st) != 0)
    return Status::Error("cannot stat: " + path);
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  if (std::fread(bytes.data(), 1, bytes.size(), f.get()) != bytes.size())
    return Status::Error("read failed: " + path);
  ByteStream whole(bytes);
  GROUPSA_RETURN_IF_ERROR(CheckFileCrc(&whole, bytes.size(), path));
  ByteStream body(std::string_view(bytes).substr(0, bytes.size() -
                                                     sizeof(uint32_t)));
  std::vector<Section> sections;
  GROUPSA_RETURN_IF_ERROR(ReadDirectory(&body, path, &sections));
  out->bytes_ = std::move(bytes);
  out->sections_ = std::move(sections);
  return Status::Ok();
}

bool CheckpointReader::Has(const std::string& name) const {
  return Find(name).has_value();
}

std::optional<std::string_view> CheckpointReader::Find(
    const std::string& name) const {
  for (const Section& section : sections_)
    if (section.name == name)
      return std::string_view(bytes_).substr(section.offset, section.size);
  return std::nullopt;
}

ParamsSection::ParamsSection(std::vector<ParamEntry> params)
    : params_(std::move(params)) {
  records_.reserve(params_.size());
  for (const ParamEntry& p : params_) {
    CrcCounter body;
    WriteRecordBody(p, &body);
    records_.push_back({body.crc(), body.size()});
  }
}

size_t ParamsSection::size() const {
  size_t total = sizeof(uint32_t);
  for (const Record& r : records_)
    total += sizeof(uint32_t) + sizeof(uint64_t) + static_cast<size_t>(r.len);
  return total;
}

void ParamsSection::operator()(ByteSink* sink) const {
  sink->WriteU32(static_cast<uint32_t>(params_.size()));
  for (size_t i = 0; i < params_.size(); ++i) {
    sink->WriteU32(records_[i].crc);
    sink->WriteU64(records_[i].len);
    WriteRecordBody(params_[i], sink);
  }
}

std::string EncodeParameters(const std::vector<ParamEntry>& params) {
  const ParamsSection section(params);
  ByteWriter out;
  out.Reserve(section.size());
  section(&out);
  return out.Release();
}

Status CheckParameters(const std::vector<ParamEntry>& params,
                       std::string_view payload) {
  ByteStream in(payload);
  return ReadParameters(params, &in, /*apply=*/false);
}

void ApplyParameters(const std::vector<ParamEntry>& params,
                     std::string_view payload) {
  ByteStream in(payload);
  const Status s = ReadParameters(params, &in, /*apply=*/true);
  GROUPSA_CHECK(s.ok(), s.message().c_str());
}

Status DecodeParameters(const std::vector<ParamEntry>& params,
                        std::string_view payload) {
  GROUPSA_RETURN_IF_ERROR(CheckParameters(params, payload));
  ApplyParameters(params, payload);
  return Status::Ok();
}

Status SaveParameters(const std::vector<ParamEntry>& params,
                      const std::string& path) {
  CheckpointWriter writer;
  writer.AddSection("params", ParamsSection(params));
  return writer.Commit(path).WithContext("save checkpoint " + path);
}

Status LoadParameters(const std::vector<ParamEntry>& params,
                      const std::string& path) {
  const std::string context = "load checkpoint " + path;
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr)
    return Status::Error("cannot open for read: " + path).WithContext(context);
  struct stat st {};
  if (fstat(fileno(f.get()), &st) != 0)
    return Status::Error("cannot stat: " + path).WithContext(context);
  const size_t size = static_cast<size_t>(st.st_size);
  // Four streamed passes over the open file, each through one chunk: the
  // trailer CRC, the section directory and its CRCs, the params check, then
  // the copy into the live tensors. A load thus holds a chunk of the file,
  // never the file, and a served model's reload costs the new model only.
  auto read_from = [&](size_t offset) {
    return std::fseek(f.get(), static_cast<long>(offset), SEEK_SET) == 0;
  };
  {
    ByteStream whole(f.get(), size);
    GROUPSA_RETURN_IF_ERROR_CTX(CheckFileCrc(&whole, size, path), context);
  }
  std::vector<CheckpointReader::Section> sections;
  if (!read_from(0)) return Status::Error("seek failed: " + path);
  {
    ByteStream body(f.get(), size - sizeof(uint32_t));
    GROUPSA_RETURN_IF_ERROR_CTX(ReadDirectory(&body, path, &sections),
                                context);
  }
  const CheckpointReader::Section* params_section = nullptr;
  for (const CheckpointReader::Section& section : sections)
    if (section.name == "params") params_section = &section;
  if (params_section == nullptr)
    return Status::Error("checkpoint has no params section: " + path);
  if (!read_from(params_section->offset))
    return Status::Error("seek failed: " + path);
  {
    ByteStream check(f.get(), params_section->size);
    const Status s = ReadParameters(params, &check, /*apply=*/false);
    if (check.failed()) return Status::Error("read failed: " + path);
    GROUPSA_RETURN_IF_ERROR_CTX(s, context);
  }
  // The copy re-reads bytes the passes above verified through this same
  // handle. Writers replace a checkpoint by rename, never in place, so only
  // a file cut under the handle can fail here, and a half-copied model must
  // not be served: that dies.
  GROUPSA_CHECK(read_from(params_section->offset), path.c_str());
  ByteStream apply(f.get(), params_section->size);
  const Status s = ReadParameters(params, &apply, /*apply=*/true);
  GROUPSA_CHECK(s.ok(), s.message().c_str());
  return Status::Ok();
}

}  // namespace groupsa::nn
