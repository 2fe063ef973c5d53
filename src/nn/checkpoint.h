#ifndef GROUPSA_NN_CHECKPOINT_H_
#define GROUPSA_NN_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "nn/module.h"

namespace groupsa::nn {

// Checkpoint format v2 — the crash-safe container every training artifact
// lives in.
//
// Layout (all integers little-endian):
//
//   u32 magic "GSP2"   u32 version=2   u32 num_sections
//   per section:  name (u32 len + bytes)   u64 payload_len
//                 u32 payload_crc32        payload bytes
//   trailer:      u32 file_crc32 over every preceding byte
//
// Sections are opaque named payloads: "params" holds the parameter tensors
// (per-record CRC32 inside, see ParamsSection), and the trainer adds
// "adam" / "trainer" sections for full training-state snapshots
// (core/trainer.h). Three CRC tiers — record, section, file — mean a torn
// write, a truncation or a flipped bit anywhere is detected at load time and
// reported as a Status, never silently served.
//
// Durability: Commit() writes to `path + ".tmp"`, flushes, fsync()s, then
// rename()s over `path`. POSIX rename is atomic, so a reader (or a process
// killed mid-write) sees either the complete previous checkpoint or the
// complete new one — never a mix. Stale ".tmp" files from a killed writer
// are overwritten by the next Commit.
//
// Memory: one copy of each table. A save streams every section from the
// live tensors: Commit runs a section's producer twice, once into a CRC and
// length counter for the section's directory entry and once into one 64 KiB
// write buffer, so no section and no file is ever assembled in memory. The
// data is read once per CRC tier: ParamsSection's record CRCs, the counter
// run's section CRC and the write run's file CRC. LoadParameters streams:
// it reads the open file four times through one 64 KiB buffer (trailer CRC,
// section directory and CRCs, params check, then the copy straight into the
// live tensors), so a load holds a chunk of the file, never the file. A
// training snapshot's resume holds the file once (CheckpointReader) and
// stages nothing: its payloads are checked in place, then copied into the
// live tensors (CheckParameters / ApplyParameters below).
//
// Failpoints (common/failpoint.h) for fault-injection tests and CI:
//   "checkpoint.write"   hit once per 64 KiB chunk written; error = the
//                        write fails (ENOSPC mid-file), corrupt = one bit
//                        of the chunk is flipped before it hits the disk,
//                        kill = the process dies with a partial tmp file.
//   "checkpoint.fsync"   hit before fsync; kill here models power loss
//                        after the data was handed to the page cache.
//   "checkpoint.rename"  hit before the atomic rename; error = the rename
//                        fails (checkpoint keeps its previous content).
class CheckpointWriter {
 public:
  // Writes one section's payload into `sink`. Commit runs it twice and both
  // runs must write the same bytes, so whatever it reads must not change
  // until Commit returns.
  using Producer = std::function<void(ByteSink* sink)>;

  // Adds a named section. Section names must be unique per file.
  void AddSection(std::string name, Producer producer);
  // Adds a section whose payload is already in memory.
  void AddSection(std::string name, std::string payload);

  // Atomically writes the file to `path` (tmp -> fsync -> rename), streaming
  // header, sections and trailer through one 64 KiB buffer: each full
  // buffer is one "checkpoint.write" chunk. On any failure the previous
  // file at `path` is untouched.
  Status Commit(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, Producer>> sections_;
};

// Reads and fully verifies a v2 checkpoint: file CRC, header, section
// directory, per-section CRCs. A v1 file (magic "GSPA") or any corruption is
// rejected with a descriptive Status and nothing is exposed. The file is
// read once, at its fstat size, into one buffer the sections are views of;
// LoadParameters runs the same checks streamed, without the buffer.
class CheckpointReader {
 public:
  static Status Read(const std::string& path, CheckpointReader* out);

  bool Has(const std::string& name) const;
  // The section's payload, a view into this reader's buffer (valid while
  // the reader lives and is not re-read); empty when the section is absent.
  std::optional<std::string_view> Find(const std::string& name) const;

  // Where a section's payload sits in the file. Offsets, not pointers:
  // moving the reader moves the buffer and leaves nothing dangling.
  struct Section {
    std::string name;
    size_t offset = 0;
    size_t size = 0;
  };

 private:
  std::string bytes_;
  std::vector<Section> sections_;
};

// The "params" section: a u32 record count, then one record per parameter
// — u32 crc, u64 len, then len bytes of name, shape (u32 rows, u32 cols) and
// float data, the crc covering those len bytes.
//
// ParamsSection is its one record writer, behind SaveParameters, training
// snapshots and EncodeParameters alike. Building it computes every record's
// CRC and length, the record tier's one pass over the data; each run then
// writes the same bytes straight from the tensors, which must not change
// while it is in use. It is a CheckpointWriter::Producer.
class ParamsSection {
 public:
  explicit ParamsSection(std::vector<ParamEntry> params);

  // Payload length in bytes.
  size_t size() const;
  void operator()(ByteSink* sink) const;

 private:
  struct Record {
    uint32_t crc = 0;
    uint64_t len = 0;
  };
  std::vector<ParamEntry> params_;
  std::vector<Record> records_;
};

// ParamsSection run into one exact-size string: the bytes SaveParameters
// writes as the "params" section.
std::string EncodeParameters(const std::vector<ParamEntry>& params);

// Loading is check, then apply, with nothing staged. CheckParameters reads
// a params payload in place and runs every test — a record count above the
// model's, each record's CRC, an unknown or repeated name, a shape mismatch,
// a truncated record, a NaN or Inf value, missing parameters, trailing
// bytes — without touching `params`. ApplyParameters then copies each
// record's data into its tensor's own storage through mutable_value(), so
// data pointers stay put and value versions move; called on a payload
// CheckParameters passed, it cannot fail (on any other it CHECK-fails).
// DecodeParameters does both: on any error the live model is left
// bit-for-bit untouched.
Status CheckParameters(const std::vector<ParamEntry>& params,
                       std::string_view payload);
void ApplyParameters(const std::vector<ParamEntry>& params,
                     std::string_view payload);
Status DecodeParameters(const std::vector<ParamEntry>& params,
                        std::string_view payload);

// Whole-model convenience wrappers over a v2 file's "params" section.
// LoadParameters runs every check above before it copies anything, so on
// any error the model is untouched; a read that fails during the copy (the
// file cut in place under the open handle) CHECK-fails rather than leave a
// half-copied model.
Status SaveParameters(const std::vector<ParamEntry>& params,
                      const std::string& path);
Status LoadParameters(const std::vector<ParamEntry>& params,
                      const std::string& path);

}  // namespace groupsa::nn

#endif  // GROUPSA_NN_CHECKPOINT_H_
