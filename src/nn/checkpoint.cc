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

// The one params-payload parser. With `apply` false it runs every check of
// CheckParameters and copies nothing. With `apply` true it copies each
// record's data into its tensor and skips the CRC and value checks, which
// the check run already passed.
Status ReadParameters(const std::vector<ParamEntry>& params,
                      std::string_view payload, bool apply) {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.ReadU32(&count))
    return Status::Error("truncated params section");
  std::unordered_map<std::string, const ParamEntry*> by_name;
  for (const ParamEntry& p : params) by_name[p.name] = &p;

  // The count comes from the file, so nothing is sized by it. A count above
  // the model's fails at the first record past the model's parameters,
  // which cannot be a new known name (duplicate, unknown or truncated); a
  // smaller one fails below, naming the missing parameters.
  std::unordered_map<std::string, bool> seen;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t record_crc = 0;
    uint64_t record_len = 0;
    if (!reader.ReadU32(&record_crc) || !reader.ReadU64(&record_len) ||
        record_len > reader.Remaining()) {
      return Status::Error(
          StrFormat("truncated parameter record %u of %u", i, count));
    }
    const char* record_at = payload.data() + reader.Position();
    if (!apply && Crc32Of(record_at, record_len) != record_crc)
      return Status::Error(
          StrFormat("parameter record %u CRC mismatch", i));
    ByteReader record(record_at, record_len);
    reader.Skip(record_len);  // bounds already checked above

    std::string name;
    uint32_t rows = 0;
    uint32_t cols = 0;
    if (!record.ReadString(&name) || !record.ReadU32(&rows) ||
        !record.ReadU32(&cols)) {
      return Status::Error(
          StrFormat("malformed parameter record %u of %u", i, count));
    }
    auto it = by_name.find(name);
    if (it == by_name.end())
      return Status::Error("unknown parameter in checkpoint: " + name);
    if (seen[name])
      return Status::Error("duplicate parameter in checkpoint: " + name);
    seen[name] = true;
    const ag::TensorPtr& tensor = it->second->tensor;
    const int live_rows = tensor->rows();
    const int live_cols = tensor->cols();
    if (live_rows != static_cast<int>(rows) ||
        live_cols != static_cast<int>(cols)) {
      return Status::Error(StrFormat(
          "shape mismatch for %s: file %ux%u vs model %dx%d", name.c_str(),
          rows, cols, live_rows, live_cols));
    }
    const size_t n = static_cast<size_t>(tensor->value().size());
    const char* data = record_at + record.Position();
    if (!record.Skip(sizeof(float) * n))
      return Status::Error("truncated parameter data for " + name);
    if (apply) {
      std::memcpy(tensor->mutable_value().data(), data, sizeof(float) * n);
      continue;
    }
    // A NaN or Inf passes every CRC tier, yet served scores built from it
    // break the strict weak ordering top-K selection sorts by.
    for (size_t e = 0; e < n; ++e) {
      float value = 0.0f;
      std::memcpy(&value, data + sizeof(float) * e, sizeof(float));
      if (!std::isfinite(value)) {
        const size_t width = static_cast<size_t>(live_cols);
        return Status::Error(StrFormat(
            "non-finite value in parameter %s at row %zu, col %zu",
            name.c_str(), e / width, e % width));
      }
    }
  }
  if (!reader.AtEnd())
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
  // Trailer CRC first: a file whose every byte is accounted for cannot be a
  // torn prefix, so all further parsing works on verified data.
  if (bytes.size() < 4 * sizeof(uint32_t))
    return Status::Error("truncated checkpoint (too small): " + path);
  const size_t body_len = bytes.size() - sizeof(uint32_t);
  uint32_t stored_file_crc = 0;
  {
    ByteReader trailer(bytes.data() + body_len, sizeof(uint32_t));
    trailer.ReadU32(&stored_file_crc);
  }
  if (Crc32Of(bytes.data(), body_len) != stored_file_crc)
    return Status::Error("checkpoint file CRC mismatch (torn write or bit "
                         "rot): " + path);

  ByteReader reader(bytes.data(), body_len);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t num_sections = 0;
  if (!reader.ReadU32(&magic))
    return Status::Error("truncated checkpoint header: " + path);
  if (magic == kMagicV1)
    return Status::Error(
        "legacy v1 checkpoint (magic GSPA) is no longer supported; re-save "
        "with this build: " + path);
  if (magic != kMagicV2)
    return Status::Error("bad checkpoint magic: " + path);
  if (!reader.ReadU32(&version) || version != kVersion)
    return Status::Error(
        StrFormat("unsupported checkpoint version %u (expected %u): %s",
                  version, kVersion, path.c_str()));
  if (!reader.ReadU32(&num_sections))
    return Status::Error("truncated checkpoint header: " + path);

  std::vector<Section> sections;
  for (uint32_t i = 0; i < num_sections; ++i) {
    Section section;
    uint64_t payload_len = 0;
    uint32_t payload_crc = 0;
    if (!reader.ReadString(&section.name) || !reader.ReadU64(&payload_len) ||
        !reader.ReadU32(&payload_crc) || payload_len > reader.Remaining()) {
      return Status::Error(
          StrFormat("truncated section directory (section %u): %s", i,
                    path.c_str()));
    }
    section.offset = reader.Position();
    section.size = static_cast<size_t>(payload_len);
    reader.Skip(section.size);  // bounds already checked above
    if (Crc32Of(bytes.data() + section.offset, section.size) != payload_crc)
      return Status::Error(
          StrFormat("section '%s' CRC mismatch: %s", section.name.c_str(),
                    path.c_str()));
    sections.push_back(std::move(section));
  }
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
  return ReadParameters(params, payload, /*apply=*/false);
}

void ApplyParameters(const std::vector<ParamEntry>& params,
                     std::string_view payload) {
  const Status s = ReadParameters(params, payload, /*apply=*/true);
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
  CheckpointReader reader;
  GROUPSA_RETURN_IF_ERROR_CTX(CheckpointReader::Read(path, &reader),
                              "load checkpoint " + path);
  const std::optional<std::string_view> payload = reader.Find("params");
  if (!payload.has_value())
    return Status::Error("checkpoint has no params section: " + path);
  return DecodeParameters(params, *payload)
      .WithContext("load checkpoint " + path);
}

}  // namespace groupsa::nn
