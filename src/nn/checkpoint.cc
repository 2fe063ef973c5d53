#include "nn/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
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

// Streams a file through one kWriteChunk buffer while folding every byte
// into the running file CRC. Each full buffer, and the final partial one,
// is written as one chunk that consults the "checkpoint.write" failpoint,
// so fault-injection tests can produce genuinely partial files and chunks
// fall at every kWriteChunk offset of the file.
class ChunkWriter {
 public:
  ChunkWriter(std::FILE* f, const std::string& path) : f_(f), path_(path) {
    buffer_.reserve(kWriteChunk);
  }

  Status Append(std::string_view bytes) {
    crc_ = Crc32::Update(crc_, bytes.data(), bytes.size());
    while (!bytes.empty()) {
      const size_t n = std::min(kWriteChunk - buffer_.size(), bytes.size());
      buffer_.append(bytes.data(), n);
      bytes.remove_prefix(n);
      if (buffer_.size() == kWriteChunk) GROUPSA_RETURN_IF_ERROR(Flush());
    }
    return Status::Ok();
  }

  // CRC of every byte appended so far.
  uint32_t crc() const { return Crc32::Finalize(crc_); }

  // Writes the buffered bytes as one chunk.
  Status Flush() {
    if (buffer_.empty()) return Status::Ok();
    const failpoint::Action action = GROUPSA_FAILPOINT("checkpoint.write");
    if (action == failpoint::Action::kError)
      return Status::Error("injected write failure: " + path_);
    // Flip one bit of this chunk: the CRC tiers must catch it at load.
    if (action == failpoint::Action::kCorrupt)
      buffer_[buffer_.size() / 2] ^= 0x10;
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), f_) != buffer_.size())
      return Status::Error("write failed: " + path_);
    buffer_.clear();
    return Status::Ok();
  }

 private:
  std::FILE* f_;
  std::string path_;
  std::string buffer_;
  uint32_t crc_ = Crc32::kInit;
};

}  // namespace

void CheckpointWriter::AddSection(const std::string& name,
                                  std::string payload) {
  sections_.emplace_back(name, std::move(payload));
}

Status CheckpointWriter::Commit(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (f == nullptr)
      return Status::Error("cannot open for write: " + tmp);
    ChunkWriter out(f.get(), tmp);
    // Header, then each section's directory entry and payload, then the
    // trailer CRC over every preceding byte.
    auto write_file = [&]() -> Status {
      ByteWriter header;
      header.WriteU32(kMagicV2);
      header.WriteU32(kVersion);
      header.WriteU32(static_cast<uint32_t>(sections_.size()));
      GROUPSA_RETURN_IF_ERROR(out.Append(header.bytes()));
      for (const auto& [name, payload] : sections_) {
        ByteWriter entry;
        entry.WriteString(name);
        entry.WriteU64(payload.size());
        entry.WriteU32(Crc32Of(payload.data(), payload.size()));
        GROUPSA_RETURN_IF_ERROR(out.Append(entry.bytes()));
        GROUPSA_RETURN_IF_ERROR(out.Append(payload));
      }
      ByteWriter trailer;
      trailer.WriteU32(out.crc());
      GROUPSA_RETURN_IF_ERROR(out.Append(trailer.bytes()));
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

std::string EncodeParameters(const std::vector<ParamEntry>& params) {
  // Record: u32 crc, u64 len, then len bytes of name, shape and data.
  auto record_len = [](const ParamEntry& p) {
    return sizeof(uint32_t) + p.name.size() + 2 * sizeof(uint32_t) +
           sizeof(float) * static_cast<size_t>(p.tensor->value().size());
  };
  size_t total = sizeof(uint32_t);
  for (const ParamEntry& p : params)
    total += sizeof(uint32_t) + sizeof(uint64_t) + record_len(p);

  ByteWriter out;
  out.Reserve(total);
  out.WriteU32(static_cast<uint32_t>(params.size()));
  for (const ParamEntry& p : params) {
    const tensor::Matrix& m = p.tensor->value();
    const size_t crc_at = out.size();
    out.WriteU32(0);  // patched below, once the record is written
    out.WriteU64(record_len(p));
    const size_t record_at = out.size();
    out.WriteString(p.name);
    out.WriteU32(static_cast<uint32_t>(m.rows()));
    out.WriteU32(static_cast<uint32_t>(m.cols()));
    out.WriteFloats(m.data(), static_cast<size_t>(m.size()));
    out.PatchU32(crc_at, Crc32Of(out.bytes().data() + record_at,
                                 out.size() - record_at));
  }
  return out.Release();
}

Status DecodeParameters(const std::vector<ParamEntry>& params,
                        std::string_view payload) {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.ReadU32(&count))
    return Status::Error("truncated params section");
  std::unordered_map<std::string, const ParamEntry*> by_name;
  for (const ParamEntry& p : params) by_name[p.name] = &p;

  // Stage 1: parse and validate every record into local storage. The live
  // model is not touched until every record checked out.
  struct Staged {
    const ParamEntry* entry;
    tensor::Matrix value;
  };
  // The count comes from the file, so nothing is sized by it. A count above
  // the model's fails at the first record past the model's parameters,
  // which cannot be a new known name (duplicate, unknown or truncated); a
  // smaller one fails below, naming the missing parameters.
  std::vector<Staged> staged;
  staged.reserve(params.size());
  std::unordered_map<std::string, bool> seen;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t record_crc = 0;
    uint64_t record_len = 0;
    if (!reader.ReadU32(&record_crc) || !reader.ReadU64(&record_len) ||
        record_len > reader.Remaining()) {
      return Status::Error(
          StrFormat("truncated parameter record %u of %u", i, count));
    }
    const size_t pos = reader.Position();
    if (Crc32Of(payload.data() + pos, record_len) != record_crc)
      return Status::Error(
          StrFormat("parameter record %u CRC mismatch", i));
    ByteReader record(payload.data() + pos, record_len);
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
    const tensor::Matrix& live = it->second->tensor->value();
    if (live.rows() != static_cast<int>(rows) ||
        live.cols() != static_cast<int>(cols)) {
      return Status::Error(StrFormat(
          "shape mismatch for %s: file %ux%u vs model %dx%d", name.c_str(),
          rows, cols, live.rows(), live.cols()));
    }
    tensor::Matrix value(static_cast<int>(rows), static_cast<int>(cols));
    if (!record.ReadFloats(value.data(), static_cast<size_t>(value.size())))
      return Status::Error("truncated parameter data for " + name);
    // A NaN or Inf passes every CRC tier, yet served scores built from it
    // break the strict weak ordering top-K selection sorts by.
    for (int e = 0; e < value.size(); ++e) {
      if (!std::isfinite(value.data()[e])) {
        return Status::Error(StrFormat(
            "non-finite value in parameter %s at row %d, col %d",
            name.c_str(), e / value.cols(), e % value.cols()));
      }
    }
    staged.push_back({it->second, std::move(value)});
  }
  if (!reader.AtEnd())
    return Status::Error("trailing bytes in params section");
  if (staged.size() != params.size()) {
    std::vector<std::string> missing;
    for (const ParamEntry& p : params)
      if (!seen[p.name]) missing.push_back(p.name);
    return Status::Error(StrFormat(
        "checkpoint holds %zu of %zu parameters (missing: %s)", staged.size(),
        params.size(), StrJoin(missing, ", ").c_str()));
  }

  // Stage 2: commit. Nothing below can fail.
  for (Staged& s : staged)
    s.entry->tensor->mutable_value() = std::move(s.value);
  return Status::Ok();
}

Status SaveParameters(const std::vector<ParamEntry>& params,
                      const std::string& path) {
  CheckpointWriter writer;
  writer.AddSection("params", EncodeParameters(params));
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
