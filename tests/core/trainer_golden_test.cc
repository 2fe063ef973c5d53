#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/test_fixtures.h"
#include "core/trainer.h"
#include "nn/checkpoint.h"

namespace groupsa::core {
namespace {

using core::testing::TinyFixture;

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  size_t n = 0;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    bytes.append(buf, n);
  if (f != nullptr) std::fclose(f);
  return bytes;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

GroupSaConfig GoldenConfig(int threads) {
  GroupSaConfig c = GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  c.threads = threads;
  return c;
}

// One social, one user and one group epoch, then the digest of the encoded
// parameters.
uint64_t TrainedDigest(const data::SyntheticWorldConfig& world, int threads) {
  const GroupSaConfig config = GoldenConfig(threads);
  const TinyFixture f = TinyFixture::Make(config, /*seed=*/5, world);
  auto model = f.MakeModel(config);
  Rng rng(29);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  trainer.RunSocialEpoch();
  trainer.RunUserEpoch();
  trainer.RunGroupEpoch();
  return Fnv1a(nn::EncodeParameters(model->Parameters()));
}

// Every other training-bits gate compares two runs of the same build
// (thread counts, pooling, crash-resume, kernel backends), so a rewrite
// that moved the bits the same way in both runs would pass all of them.
// These digests are absolute: a change to gradient accumulation, reduction
// order or the optimizer shows here. The 5,000-item world makes the item
// table far larger than the rows any batch touches. A deliberate change
// re-pins from the printed values.
TEST(TrainerGoldenTest, TrainedParametersArePinned) {
  data::SyntheticWorldConfig wide;
  wide.name = "wide";
  wide.num_items = 5000;
  wide.num_users = 200;
  wide.num_groups = 80;
  struct Pin {
    const char* name;
    data::SyntheticWorldConfig world;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"Tiny", data::SyntheticWorldConfig::Tiny(), 0x93c31a27fe1c6535ULL},
      {"5000 items", wide, 0x5a759f1a6a16ec43ULL},
  };
  for (const Pin& pin : pins) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << pin.name << " at " << threads << " thread(s)");
      const uint64_t digest = TrainedDigest(pin.world, threads);
      EXPECT_EQ(digest, pin.digest) << std::hex << "0x" << digest;
    }
  }
}

// A training snapshot's file bytes — the params, adam and trainer sections a
// Fit writes after its last unit — are pinned too: they cover the Adam
// moments and step counters and the RNG cursor, which the parameter digests
// above do not. A deliberate change re-pins from the printed values.
TEST(TrainerGoldenTest, SnapshotFileIsPinned) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " thread(s)");
    GroupSaConfig config = GoldenConfig(threads);
    config.user_epochs = 1;
    config.group_epochs = 1;
    const TinyFixture f = TinyFixture::Make(config);
    auto model = f.MakeModel(config);
    Rng rng(29);
    Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                    &f.gi_train, &rng);
    Trainer::FitOptions options;
    options.snapshot_path = std::string(::testing::TempDir()) +
                            "/golden_snapshot_" + std::to_string(threads) +
                            ".snap";
    Trainer::FitReport report;
    ASSERT_TRUE(trainer.Fit(options, &report).ok());
    const std::string bytes = ReadFile(options.snapshot_path);
    EXPECT_EQ(bytes.size(), 46467u);
    EXPECT_EQ(Fnv1a(bytes), 0x50d347be6efe2460ULL)
        << std::hex << "0x" << Fnv1a(bytes);
  }
}

}  // namespace
}  // namespace groupsa::core
