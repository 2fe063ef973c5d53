#include "nn/checkpoint.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/serialize.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace groupsa::nn {
namespace {

using tensor::Matrix;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Deep copy of current parameter values, for model-untouched assertions.
std::vector<Matrix> SnapshotValues(const std::vector<ParamEntry>& params) {
  std::vector<Matrix> values;
  for (const ParamEntry& p : params) values.push_back(p.tensor->value());
  return values;
}

bool ValuesEqual(const std::vector<ParamEntry>& params,
                 const std::vector<Matrix>& values) {
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& live = params[i].tensor->value();
    if (live.rows() != values[i].rows() || live.cols() != values[i].cols())
      return false;
    for (int r = 0; r < live.rows(); ++r)
      for (int c = 0; c < live.cols(); ++c)
        if (live.At(r, c) != values[i].At(r, c)) return false;
  }
  return true;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  Rng rng(1);
  Mlp source("m", {3, 4, 2}, &rng);
  const std::string path = TempPath("ckpt_roundtrip.bin");
  ASSERT_TRUE(SaveParameters(source.Parameters(), path).ok());

  Rng rng2(99);
  Mlp dest("m", {3, 4, 2}, &rng2);
  ASSERT_TRUE(LoadParameters(dest.Parameters(), path).ok());

  const auto src_params = source.Parameters();
  const auto dst_params = dest.Parameters();
  ASSERT_EQ(src_params.size(), dst_params.size());
  for (size_t i = 0; i < src_params.size(); ++i) {
    EXPECT_TRUE(tensor::AllClose(src_params[i].tensor->value(),
                                 dst_params[i].tensor->value()));
  }
}

TEST(CheckpointTest, ResaveIsByteIdentical) {
  Rng rng(7);
  Mlp source("m", {3, 4, 2}, &rng);
  const std::string path_a = TempPath("ckpt_resave_a.bin");
  const std::string path_b = TempPath("ckpt_resave_b.bin");
  ASSERT_TRUE(SaveParameters(source.Parameters(), path_a).ok());

  Rng rng2(8);
  Mlp dest("m", {3, 4, 2}, &rng2);
  ASSERT_TRUE(LoadParameters(dest.Parameters(), path_a).ok());
  ASSERT_TRUE(SaveParameters(dest.Parameters(), path_b).ok());
  EXPECT_EQ(ReadFile(path_a), ReadFile(path_b));
}

TEST(CheckpointTest, NoTmpFileLeftBehind) {
  Rng rng(9);
  Linear layer("l", 2, 2, &rng);
  const std::string path = TempPath("ckpt_tmp_gone.bin");
  ASSERT_TRUE(SaveParameters(layer.Parameters(), path).ok());
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

TEST(CheckpointTest, LoadRejectsMissingFile) {
  Rng rng(2);
  Linear layer("l", 2, 2, &rng);
  EXPECT_FALSE(LoadParameters(layer.Parameters(),
                              TempPath("does_not_exist.bin"))
                   .ok());
}

TEST(CheckpointTest, LoadRejectsShapeMismatch) {
  Rng rng(3);
  Linear small("l", 2, 2, &rng);
  const std::string path = TempPath("ckpt_shape.bin");
  ASSERT_TRUE(SaveParameters(small.Parameters(), path).ok());
  Linear big("l", 3, 3, &rng);  // same names, different shapes
  const auto before = SnapshotValues(big.Parameters());
  const Status s = LoadParameters(big.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("shape mismatch"), std::string::npos);
  EXPECT_TRUE(ValuesEqual(big.Parameters(), before));
}

TEST(CheckpointTest, LoadRejectsUnknownParameter) {
  Rng rng(4);
  Linear a("a", 2, 2, &rng);
  const std::string path = TempPath("ckpt_unknown.bin");
  ASSERT_TRUE(SaveParameters(a.Parameters(), path).ok());
  Linear b("b", 2, 2, &rng);  // different names
  const Status s = LoadParameters(b.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown parameter"), std::string::npos);
}

TEST(CheckpointTest, LoadRejectsDuplicateParameter) {
  Rng rng(14);
  Linear layer("l", 2, 2, &rng);
  CheckpointWriter writer;
  std::vector<ParamEntry> doubled = layer.Parameters();
  const auto params = layer.Parameters();
  doubled.insert(doubled.end(), params.begin(), params.end());
  writer.AddSection("params", EncodeParameters(doubled));
  const std::string path = TempPath("ckpt_duplicate.bin");
  ASSERT_TRUE(writer.Commit(path).ok());
  const Status s = LoadParameters(layer.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate parameter"), std::string::npos);
}

TEST(CheckpointTest, PartialParameterSetLeavesModelUntouched) {
  Rng rng(6);
  Linear one("l", 2, 2, &rng);
  const std::string path = TempPath("ckpt_partial.bin");
  // Save only the weight entry, then try to load weight+bias.
  ASSERT_TRUE(SaveParameters({one.Parameters()[0]}, path).ok());
  const auto before = SnapshotValues(one.Parameters());
  const Status s = LoadParameters(one.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("missing"), std::string::npos);
  // All-or-nothing: even the parameter that WAS in the file is unchanged.
  EXPECT_TRUE(ValuesEqual(one.Parameters(), before));
}

// A NaN or Inf passes every CRC tier (the writer does not check values), so
// the decoder must reject it by name. It sits in the last record, after
// records that decode cleanly, so an eager commit would show.
TEST(CheckpointTest, NonFiniteValueRejectedAndModelUntouched) {
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  for (const float bad : kBad) {
    SCOPED_TRACE(::testing::Message() << "value " << bad);
    Rng rng(16);
    Mlp source("m", {3, 4, 2}, &rng);
    const ParamEntry last = source.Parameters().back();
    last.tensor->mutable_value().At(0, 1) = bad;
    const std::string path = TempPath("ckpt_nonfinite.bin");
    ASSERT_TRUE(SaveParameters(source.Parameters(), path).ok());

    Rng rng2(17);
    Mlp dest("m", {3, 4, 2}, &rng2);
    const std::vector<ParamEntry> params = dest.Parameters();
    const auto before = SnapshotValues(params);
    const Status s = LoadParameters(params, path);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("non-finite value in parameter " + last.name),
              std::string::npos)
        << s.message();
    for (size_t i = 0; i < params.size(); ++i) {
      const Matrix& live = params[i].tensor->value();
      EXPECT_EQ(std::memcmp(live.data(), before[i].data(),
                            sizeof(float) * static_cast<size_t>(live.size())),
                0)
          << params[i].name << " changed";
    }
  }
}

// The record count comes from the file: a CRC-valid params section of just
// ff ff ff ff claims 2^32 - 1 records and must fail with a Status, not size
// anything by that count.
TEST(CheckpointTest, RecordCountBeyondModelRejected) {
  Rng rng(24);
  Mlp layer("m", {3, 4, 2}, &rng);
  CheckpointWriter writer;
  writer.AddSection("params", std::string(4, '\xff'));
  const std::string path = TempPath("ckpt_huge_count.bin");
  ASSERT_TRUE(writer.Commit(path).ok());
  const auto before = SnapshotValues(layer.Parameters());
  const Status s = LoadParameters(layer.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("parameter record 0 of 4294967295"),
            std::string::npos)
      << s.message();
  EXPECT_TRUE(ValuesEqual(layer.Parameters(), before));
}

// Bytes after the last record are not silently ignored (the adam section
// already rejects them).
TEST(CheckpointTest, TrailingBytesAfterLastRecordRejected) {
  Rng rng(25);
  Mlp source("m", {3, 4, 2}, &rng);
  CheckpointWriter writer;
  writer.AddSection("params", EncodeParameters(source.Parameters()) + "tail");
  const std::string path = TempPath("ckpt_trailing.bin");
  ASSERT_TRUE(writer.Commit(path).ok());
  Rng rng2(26);
  Mlp dest("m", {3, 4, 2}, &rng2);
  const auto before = SnapshotValues(dest.Parameters());
  const Status s = LoadParameters(dest.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("trailing bytes"), std::string::npos)
      << s.message();
  EXPECT_TRUE(ValuesEqual(dest.Parameters(), before));
}

TEST(CheckpointTest, GarbageFileRejectedByFileCrc) {
  const std::string path = TempPath("ckpt_garbage.bin");
  WriteFile(path, "this is definitely not a checkpoint file at all");
  Rng rng(5);
  Linear layer("l", 2, 2, &rng);
  const Status s = LoadParameters(layer.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos);
}

// A file with a valid trailer CRC but the wrong magic exercises the header
// check behind the CRC tier.
TEST(CheckpointTest, BadMagicRejected) {
  ByteWriter w;
  w.WriteU32(0x58585858);  // "XXXX"
  w.WriteU32(2);
  w.WriteU32(0);
  const uint32_t crc = Crc32Of(w.bytes().data(), w.bytes().size());
  w.WriteU32(crc);
  const std::string path = TempPath("ckpt_bad_magic.bin");
  WriteFile(path, w.bytes());
  Rng rng(5);
  Linear layer("l", 2, 2, &rng);
  const Status s = LoadParameters(layer.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("magic"), std::string::npos);
}

TEST(CheckpointTest, LegacyV1MagicRejectedWithExplanation) {
  ByteWriter w;
  w.WriteU32(0x41505347);  // "GSPA", the v1 magic
  w.WriteU32(1);
  w.WriteU32(0);
  const uint32_t crc = Crc32Of(w.bytes().data(), w.bytes().size());
  w.WriteU32(crc);
  const std::string path = TempPath("ckpt_v1_magic.bin");
  WriteFile(path, w.bytes());
  Rng rng(5);
  Linear layer("l", 2, 2, &rng);
  const Status s = LoadParameters(layer.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("legacy v1"), std::string::npos);
}

// Crash-safety core: every possible torn prefix of a checkpoint must be
// rejected, and a failed load must leave the in-memory model untouched.
TEST(CheckpointTest, EveryTruncationRejectedAndModelUntouched) {
  Rng rng(10);
  Mlp source("m", {3, 4, 2}, &rng);
  const std::string path = TempPath("ckpt_trunc_src.bin");
  ASSERT_TRUE(SaveParameters(source.Parameters(), path).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 16u);

  Rng rng2(11);
  Mlp dest("m", {3, 4, 2}, &rng2);
  const auto before = SnapshotValues(dest.Parameters());
  const std::string trunc_path = TempPath("ckpt_trunc.bin");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(trunc_path, bytes.substr(0, len));
    const Status s = LoadParameters(dest.Parameters(), trunc_path);
    EXPECT_FALSE(s.ok()) << "prefix of " << len << " bytes was accepted";
    ASSERT_TRUE(ValuesEqual(dest.Parameters(), before))
        << "model mutated by a " << len << "-byte torn file";
  }
  // Sanity: the full file loads.
  EXPECT_TRUE(LoadParameters(dest.Parameters(), path).ok());
}

TEST(CheckpointTest, EverySingleBitFlipCaughtByCrc) {
  Rng rng(12);
  Linear layer("l", 3, 2, &rng);
  const std::string path = TempPath("ckpt_flip_src.bin");
  ASSERT_TRUE(SaveParameters(layer.Parameters(), path).ok());
  const std::string bytes = ReadFile(path);

  Rng rng2(13);
  Linear dest("l", 3, 2, &rng2);
  const auto before = SnapshotValues(dest.Parameters());
  const std::string flip_path = TempPath("ckpt_flip.bin");
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {  // 3 bits per byte: cheap + dense
      std::string corrupted = bytes;
      corrupted[i] = static_cast<char>(corrupted[i] ^ (1 << bit));
      WriteFile(flip_path, corrupted);
      const Status s = LoadParameters(dest.Parameters(), flip_path);
      EXPECT_FALSE(s.ok()) << "bit " << bit << " of byte " << i;
      ASSERT_TRUE(ValuesEqual(dest.Parameters(), before));
    }
  }
}

TEST(CheckpointTest, InjectedWriteErrorReturnsStatusAndKeepsOldFile) {
  Rng rng(15);
  Linear layer("l", 2, 2, &rng);
  const std::string path = TempPath("ckpt_inject_err.bin");
  ASSERT_TRUE(SaveParameters(layer.Parameters(), path).ok());
  const std::string old_bytes = ReadFile(path);

  failpoint::Arm("checkpoint.write=error");
  const Status s = SaveParameters(layer.Parameters(), path);
  failpoint::DisarmAll();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("injected"), std::string::npos);
  // The previous checkpoint is still there, byte for byte, and no tmp file
  // litters the directory.
  EXPECT_EQ(ReadFile(path), old_bytes);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

TEST(CheckpointTest, InjectedFsyncAndRenameFailuresKeepOldFile) {
  Rng rng(16);
  Linear layer("l", 2, 2, &rng);
  const std::string path = TempPath("ckpt_inject_fsync.bin");
  ASSERT_TRUE(SaveParameters(layer.Parameters(), path).ok());
  const std::string old_bytes = ReadFile(path);
  for (const char* spec :
       {"checkpoint.fsync=error", "checkpoint.rename=error"}) {
    failpoint::Arm(spec);
    EXPECT_FALSE(SaveParameters(layer.Parameters(), path).ok()) << spec;
    failpoint::DisarmAll();
    EXPECT_EQ(ReadFile(path), old_bytes) << spec;
  }
}

TEST(CheckpointTest, InjectedBitCorruptionCaughtAtLoad) {
  Rng rng(17);
  Linear layer("l", 4, 4, &rng);
  const std::string path = TempPath("ckpt_inject_corrupt.bin");
  failpoint::Arm("checkpoint.write=corrupt");
  ASSERT_TRUE(SaveParameters(layer.Parameters(), path).ok());
  failpoint::DisarmAll();
  const Status s = LoadParameters(layer.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos);
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr size_t kChunk = 64 * 1024;

// An embedding table plus a small MLP: a params section of ~220 KiB, so the
// file spans four 64 KiB write chunks.
struct MultiChunkModel {
  explicit MultiChunkModel(uint64_t seed) : rng(seed) {}
  Rng rng;
  Embedding emb{"emb", /*count=*/700, /*dim=*/80, &rng};
  Mlp mlp{"m", {3, 4, 2}, &rng};

  std::vector<ParamEntry> Parameters() const {
    std::vector<ParamEntry> all = emb.Parameters();
    for (const ParamEntry& p : mlp.Parameters()) all.push_back(p);
    return all;
  }
};

// The on-disk format is a contract with every checkpoint already written:
// the bytes of both writer entry points are pinned. A deliberate format
// change re-pins from the printed values.
TEST(CheckpointTest, FileBytesArePinned) {
  const MultiChunkModel model(23);
  const std::string saved = TempPath("ckpt_pinned_save.bin");
  ASSERT_TRUE(SaveParameters(model.Parameters(), saved).ok());
  const std::string save_bytes = ReadFile(saved);
  EXPECT_EQ(save_bytes.size(), 224351u);
  EXPECT_EQ(Fnv1a(save_bytes), 0x890b2c421c213ba8ULL) << std::hex << "0x" << Fnv1a(save_bytes);

  CheckpointWriter writer;
  writer.AddSection("params", EncodeParameters(model.mlp.Parameters()));
  ByteWriter notes;
  notes.WriteString("two-section file");
  notes.WriteU64(0x0123456789abcdefULL);
  writer.AddSection("notes", notes.Release());
  const std::string two = TempPath("ckpt_pinned_two.bin");
  ASSERT_TRUE(writer.Commit(two).ok());
  const std::string two_bytes = ReadFile(two);
  EXPECT_EQ(two_bytes.size(), 367u);
  EXPECT_EQ(Fnv1a(two_bytes), 0x58503c0ecef3f65eULL) << std::hex << "0x" << Fnv1a(two_bytes);

  CheckpointReader reader;
  ASSERT_TRUE(CheckpointReader::Read(two, &reader).ok());
  ASSERT_TRUE(reader.Has("notes"));
  EXPECT_FALSE(reader.Has("adam"));
}

// The streamed save and EncodeParameters share one record writer: the
// params section on disk is EncodeParameters' bytes.
TEST(CheckpointTest, EncodeParametersEqualsSavedParamsSection) {
  const MultiChunkModel model(23);
  const std::string path = TempPath("ckpt_encode_equals_save.bin");
  ASSERT_TRUE(SaveParameters(model.Parameters(), path).ok());
  CheckpointReader reader;
  ASSERT_TRUE(CheckpointReader::Read(path, &reader).ok());
  const std::optional<std::string_view> section = reader.Find("params");
  ASSERT_TRUE(section.has_value());
  EXPECT_TRUE(*section == EncodeParameters(model.Parameters()));
}

// A load copies into each tensor's own storage: no data pointer moves, and
// every value_version is bumped, so caches keyed on it rebuild.
TEST(CheckpointTest, LoadWritesIntoLiveStorage) {
  const MultiChunkModel source(23);
  const std::string path = TempPath("ckpt_in_place.bin");
  ASSERT_TRUE(SaveParameters(source.Parameters(), path).ok());

  const MultiChunkModel dest(24);
  const std::vector<ParamEntry> params = dest.Parameters();
  std::vector<const float*> data;
  std::vector<uint64_t> versions;
  for (const ParamEntry& p : params) {
    data.push_back(p.tensor->value().data());
    versions.push_back(p.tensor->value_version());
  }
  ASSERT_TRUE(LoadParameters(params, path).ok());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i].tensor->value().data(), data[i]) << params[i].name;
    EXPECT_GT(params[i].tensor->value_version(), versions[i])
        << params[i].name;
  }
  EXPECT_EQ(EncodeParameters(params), EncodeParameters(source.Parameters()));
}

// "checkpoint.write" is hit once per 64 KiB chunk: a write error on the
// last chunk fails the save, one hit later there is none left to fail.
TEST(CheckpointTest, WriteFailpointHitsOncePerChunk) {
  const MultiChunkModel model(23);
  const std::string path = TempPath("ckpt_chunks.bin");
  ASSERT_TRUE(SaveParameters(model.Parameters(), path).ok());
  const std::string good = ReadFile(path);
  const size_t chunks = (good.size() + kChunk - 1) / kChunk;
  ASSERT_GE(chunks, 3u);

  failpoint::Arm("checkpoint.write=error@" + std::to_string(chunks));
  const Status last = SaveParameters(model.Parameters(), path);
  failpoint::DisarmAll();
  EXPECT_FALSE(last.ok());
  EXPECT_NE(last.message().find("injected"), std::string::npos);
  EXPECT_EQ(ReadFile(path), good);

  failpoint::Arm("checkpoint.write=error@" + std::to_string(chunks + 1));
  const Status past = SaveParameters(model.Parameters(), path);
  failpoint::DisarmAll();
  EXPECT_TRUE(past.ok()) << past.message();
  EXPECT_EQ(ReadFile(path), good);

  // A flipped bit in the middle of chunk 2 (payload bytes) reaches the disk
  // and is caught by a CRC at load, leaving the model untouched.
  failpoint::Arm("checkpoint.write=corrupt@2");
  ASSERT_TRUE(SaveParameters(model.Parameters(), path).ok());
  failpoint::DisarmAll();
  const std::string corrupted = ReadFile(path);
  ASSERT_EQ(corrupted.size(), good.size());
  EXPECT_NE(corrupted, good);
  const MultiChunkModel dest(24);
  const auto before = SnapshotValues(dest.Parameters());
  const Status s = LoadParameters(dest.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.message();
  EXPECT_TRUE(ValuesEqual(dest.Parameters(), before));
}

// Real process death in the middle of the on-disk write: the atomic
// tmp-then-rename protocol must leave the previous checkpoint intact. The
// payload is sized past one 64 KiB write chunk so the kill (armed on chunk
// 2) fires genuinely mid-file.
TEST(CheckpointCrashDeathTest, SigkillMidWriteLeavesOldCheckpointIntact) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(18);
  Embedding big("emb", /*count=*/300, /*dim=*/80, &rng);  // ~96 KiB payload
  const std::string path = TempPath("ckpt_sigkill.bin");
  ASSERT_TRUE(SaveParameters(big.Parameters(), path).ok());
  const std::string old_bytes = ReadFile(path);

  Rng rng2(19);
  Embedding changed("emb", 300, 80, &rng2);
  EXPECT_EXIT(
      {
        failpoint::Arm("checkpoint.write=kill@2");
        SaveParameters(changed.Parameters(), path).ok();
        std::exit(0);  // not reached: the failpoint SIGKILLs the child
      },
      ::testing::KilledBySignal(SIGKILL), "");

  // Old checkpoint untouched; loading it yields the ORIGINAL values.
  EXPECT_EQ(ReadFile(path), old_bytes);
  Rng rng3(20);
  Embedding loaded("emb", 300, 80, &rng3);
  ASSERT_TRUE(LoadParameters(loaded.Parameters(), path).ok());
  EXPECT_TRUE(tensor::AllClose(loaded.Parameters()[0].tensor->value(),
                               big.Parameters()[0].tensor->value()));
}

}  // namespace
}  // namespace groupsa::nn
