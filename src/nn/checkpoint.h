#ifndef GROUPSA_NN_CHECKPOINT_H_
#define GROUPSA_NN_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

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
// (per-record CRC32 inside, see EncodeParameters), and the trainer adds
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
  // Adds a named section. Section names must be unique per file.
  void AddSection(const std::string& name, std::string payload);

  // Atomically writes the assembled file to `path` (tmp -> fsync -> rename).
  // On any failure the previous file at `path` is untouched.
  Status Commit(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

// Reads and fully verifies a v2 checkpoint: file CRC, header, section
// directory, per-section CRCs. A v1 file (magic "GSPA") or any corruption is
// rejected with a descriptive Status and nothing is exposed.
class CheckpointReader {
 public:
  static Status Read(const std::string& path, CheckpointReader* out);

  bool Has(const std::string& name) const;
  // Null when the section is absent.
  const std::string* Find(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

// Parameter-section codec. EncodeParameters lays out count + per-parameter
// records (name, shape, float data, record CRC32). DecodeParameters stages
// every tensor first and commits all-or-nothing: on any error — unknown
// name, shape mismatch, truncated record, CRC failure, a NaN or Inf value,
// missing parameters — the live model is left bit-for-bit untouched.
std::string EncodeParameters(const std::vector<ParamEntry>& params);
Status DecodeParameters(const std::vector<ParamEntry>& params,
                        const std::string& payload);

// Whole-model convenience wrappers over a single-"params"-section v2 file.
Status SaveParameters(const std::vector<ParamEntry>& params,
                      const std::string& path);
Status LoadParameters(const std::vector<ParamEntry>& params,
                      const std::string& path);

}  // namespace groupsa::nn

#endif  // GROUPSA_NN_CHECKPOINT_H_
