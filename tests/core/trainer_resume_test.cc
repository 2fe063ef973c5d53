#include <cmath>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/test_fixtures.h"
#include "core/trainer.h"
#include "nn/checkpoint.h"

namespace groupsa::core {
namespace {

using core::testing::TinyFixture;

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
  if (f != nullptr) std::fclose(f);
  return bytes;
}

// Group-only schedule over the tiny world: a handful of multi-batch epochs,
// fast enough to train to completion several times per test.
GroupSaConfig GroupOnlyConfig(int epochs = 3) {
  GroupSaConfig c = GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  c.use_user_task = false;
  c.user_epochs = 0;
  c.group_epochs = epochs;
  c.batch_size = 16;  // several batches per epoch -> mid-epoch cursors exist
  return c;
}

// A full two-stage schedule (social + user + interleaved + group units) so
// resume is exercised across every ScheduleUnit kind.
GroupSaConfig FullScheduleConfig() {
  GroupSaConfig c = GroupOnlyConfig();
  c.use_user_task = true;
  c.user_epochs = 1;
  c.group_epochs = 1;
  c.batch_size = 64;
  return c;
}

// Everything needed for one training run, built deterministically from the
// config alone — two Runs over the same config are bit-identical worlds.
struct TrainRun {
  TinyFixture f;
  std::unique_ptr<GroupSaModel> model;
  Rng rng{7};
  std::unique_ptr<Trainer> trainer;

  explicit TrainRun(const GroupSaConfig& config)
      : f(TinyFixture::Make(config)), model(f.MakeModel(config)) {
    trainer = std::make_unique<Trainer>(model.get(), f.ui.train, f.gi.train,
                                        &f.ui_train, &f.gi_train, &rng);
  }

  std::string Params() const {
    return nn::EncodeParameters(model->Parameters());
  }
};

// Trains `config` to completion with snapshotting; returns the final
// parameter encoding and leaves the last snapshot at `snapshot_path`.
std::string TrainUninterrupted(const GroupSaConfig& config,
                               const std::string& snapshot_path) {
  TrainRun run(config);
  Trainer::FitOptions options;
  options.snapshot_path = snapshot_path;
  options.snapshot_every = 1;
  Trainer::FitReport report;
  EXPECT_TRUE(run.trainer->Fit(options, &report).ok());
  EXPECT_FALSE(report.resumed);
  return run.Params();
}

// Kills a fresh run at trainer-batch hit `kill_at` (real SIGKILL in a death-
// test child), resumes from the surviving snapshot in this process and
// trains to completion. Returns the resumed run's final parameter encoding.
std::string KillAndResume(const GroupSaConfig& config,
                          const std::string& snapshot_path, int kill_at) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        failpoint::Arm("trainer.batch=kill@" + std::to_string(kill_at));
        TrainRun run(config);
        Trainer::FitOptions options;
        options.snapshot_path = snapshot_path;
        options.snapshot_every = 1;
        Trainer::FitReport report;
        run.trainer->Fit(options, &report).ok();
        std::exit(0);  // not reached: the failpoint SIGKILLs mid-schedule
      },
      ::testing::KilledBySignal(SIGKILL), "");

  TrainRun resumed(config);
  EXPECT_TRUE(resumed.trainer->ResumeFrom(snapshot_path).ok());
  Trainer::FitOptions options;
  options.snapshot_path = snapshot_path;
  options.snapshot_every = 1;
  Trainer::FitReport report;
  EXPECT_TRUE(resumed.trainer->Fit(options, &report).ok());
  EXPECT_TRUE(report.resumed);
  return resumed.Params();
}

class TrainerResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(TrainerResumeTest, KillMidEpochResumesByteIdentical) {
  const GroupSaConfig config = GroupOnlyConfig();
  const std::string path_a = TempPath("resume_mid_a.snap");
  const std::string path_b = TempPath("resume_mid_b.snap");
  const std::string uninterrupted = TrainUninterrupted(config, path_a);
  // Hit 2 is the second batch of the first epoch: the only snapshot on disk
  // is a mid-epoch cursor (next_batch > 0).
  const std::string resumed = KillAndResume(config, path_b, 2);
  EXPECT_EQ(uninterrupted, resumed);
  // The final snapshot files agree byte for byte: parameters, Adam moments,
  // schedule cursor and RNG stream all converged to the same state.
  EXPECT_EQ(ReadFile(path_a), ReadFile(path_b));
}

TEST_F(TrainerResumeTest, KillAcrossEpochBoundaryResumesByteIdentical) {
  const GroupSaConfig config = GroupOnlyConfig();
  const std::string path_a = TempPath("resume_unit_a.snap");
  const std::string path_b = TempPath("resume_unit_b.snap");
  const std::string uninterrupted = TrainUninterrupted(config, path_a);
  // A later hit lands past the first end-of-unit snapshot, exercising the
  // whole-unit replay path as well.
  const std::string resumed = KillAndResume(config, path_b, 6);
  EXPECT_EQ(uninterrupted, resumed);
  EXPECT_EQ(ReadFile(path_a), ReadFile(path_b));
}

TEST_F(TrainerResumeTest, ResumeAtDifferentThreadCountIsByteIdentical) {
  GroupSaConfig serial = GroupOnlyConfig();
  serial.threads = 1;
  const std::string path_a = TempPath("resume_threads_a.snap");
  const std::string uninterrupted = TrainUninterrupted(serial, path_a);

  GroupSaConfig pooled = GroupOnlyConfig();
  pooled.threads = 4;
  const std::string path_b = TempPath("resume_threads_b.snap");
  const std::string resumed = KillAndResume(pooled, path_b, 3);
  EXPECT_EQ(uninterrupted, resumed);
  EXPECT_EQ(ReadFile(path_a), ReadFile(path_b));
}

TEST_F(TrainerResumeTest, KillInFullTwoStageScheduleResumesByteIdentical) {
  const GroupSaConfig config = FullScheduleConfig();
  const std::string path_a = TempPath("resume_full_a.snap");
  const std::string path_b = TempPath("resume_full_b.snap");
  const std::string uninterrupted = TrainUninterrupted(config, path_a);
  // Hit 8 lands inside the stage-1 user epoch (after the social unit), so
  // the resumed schedule still has social, user and group work left.
  const std::string resumed = KillAndResume(config, path_b, 8);
  EXPECT_EQ(uninterrupted, resumed);
  EXPECT_EQ(ReadFile(path_a), ReadFile(path_b));
}

TEST_F(TrainerResumeTest, DivergentBatchIsSkippedAndRunCompletes) {
  TrainRun run(GroupOnlyConfig(2));
  failpoint::Arm("trainer.batch=corrupt@2");  // poison one batch loss
  Trainer::FitOptions options;
  Trainer::FitReport report;
  ASSERT_TRUE(run.trainer->Fit(options, &report).ok());
  EXPECT_EQ(report.skipped_batches, 1);
  EXPECT_EQ(report.rollbacks, 0);
  EXPECT_EQ(report.group_epochs.size(), 2u);
}

TEST_F(TrainerResumeTest, GuardDisabledLetsNonFiniteLossThrough) {
  TrainRun run(GroupOnlyConfig(1));
  failpoint::Arm("trainer.batch=corrupt@1");
  Trainer::FitOptions options;
  options.divergence_guard = false;
  Trainer::FitReport report;
  ASSERT_TRUE(run.trainer->Fit(options, &report).ok());
  EXPECT_EQ(report.skipped_batches, 0);
  EXPECT_TRUE(std::isnan(report.group_epochs[0].avg_loss));
}

TEST_F(TrainerResumeTest, PersistentDivergenceWithoutSnapshotFails) {
  TrainRun run(GroupOnlyConfig(2));
  failpoint::Arm("trainer.batch=corrupt");  // every batch goes bad
  Trainer::FitOptions options;
  options.max_consecutive_bad = 1;
  Trainer::FitReport report;
  const Status s = run.trainer->Fit(options, &report);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no snapshot"), std::string::npos);
}

TEST_F(TrainerResumeTest, RollbackRecoversAndMatchesCleanRun) {
  const GroupSaConfig config = GroupOnlyConfig();
  const std::string clean_path = TempPath("rollback_clean.snap");
  const std::string uninterrupted = TrainUninterrupted(config, clean_path);

  TrainRun run(config);
  // One transient poisoned batch; zero tolerance forces an immediate
  // rollback to the latest per-batch snapshot. The replay of the same batch
  // is clean (the failpoint is one-shot), so training completes and — since
  // rollback rewinds parameters, moments and the RNG stream together — the
  // result is bit-identical to a run that never saw the fault.
  failpoint::Arm("trainer.batch=corrupt@3");
  Trainer::FitOptions options;
  options.snapshot_path = TempPath("rollback_run.snap");
  options.snapshot_every = 1;
  options.max_consecutive_bad = 0;
  Trainer::FitReport report;
  ASSERT_TRUE(run.trainer->Fit(options, &report).ok());
  EXPECT_EQ(report.rollbacks, 1);
  EXPECT_EQ(report.skipped_batches, 0);  // counted per recorded epoch stats
  EXPECT_EQ(run.Params(), uninterrupted);
}

TEST_F(TrainerResumeTest, PersistentDivergenceExhaustsRollbacksAndFails) {
  TrainRun run(GroupOnlyConfig());
  failpoint::Arm("trainer.batch=corrupt@3+");  // re-poisons every replay
  Trainer::FitOptions options;
  options.snapshot_path = TempPath("rollback_exhaust.snap");
  options.snapshot_every = 1;
  options.max_consecutive_bad = 0;
  options.max_rollbacks = 2;
  Trainer::FitReport report;
  const Status s = run.trainer->Fit(options, &report);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("still non-finite"), std::string::npos);
}

TEST_F(TrainerResumeTest, ResumeRejectsFingerprintMismatch) {
  const GroupSaConfig config = GroupOnlyConfig(1);
  const std::string path = TempPath("resume_fingerprint.snap");
  TrainUninterrupted(config, path);

  GroupSaConfig other = config;
  other.learning_rate *= 2.0;  // same shapes, different training dynamics
  TrainRun run(other);
  const Status s = run.trainer->ResumeFrom(path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("fingerprint mismatch"), std::string::npos);
}

TEST_F(TrainerResumeTest, ResumeRejectsPlainParameterCheckpoint) {
  const GroupSaConfig config = GroupOnlyConfig(1);
  TrainRun run(config);
  const std::string path = TempPath("resume_plain_params.bin");
  ASSERT_TRUE(nn::SaveParameters(run.model->Parameters(), path).ok());
  const Status s = run.trainer->ResumeFrom(path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not a training snapshot"), std::string::npos);
}

// ResumeFrom checks every section before it writes any: a CRC-valid
// snapshot whose adam section does not parse leaves the parameters, the
// optimizer and the RNG stream as they were, so the next epoch trains
// exactly as an untouched trainer's does.
TEST_F(TrainerResumeTest, MalformedAdamSectionLeavesTrainerUntouched) {
  const GroupSaConfig config = GroupOnlyConfig(1);
  const std::string path = TempPath("resume_bad_adam_src.snap");
  TrainUninterrupted(config, path);

  nn::CheckpointReader reader;
  ASSERT_TRUE(nn::CheckpointReader::Read(path, &reader).ok());
  const std::string_view adam = *reader.Find("adam");
  nn::CheckpointWriter writer;
  writer.AddSection("params", std::string(*reader.Find("params")));
  writer.AddSection("adam", std::string(adam.substr(0, adam.size() - 4)));
  writer.AddSection("trainer", std::string(*reader.Find("trainer")));
  const std::string bad = TempPath("resume_bad_adam.snap");
  ASSERT_TRUE(writer.Commit(bad).ok());

  TrainRun untouched(config);
  TrainRun run(config);
  const Status s = run.trainer->ResumeFrom(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("adam"), std::string::npos) << s.message();
  EXPECT_TRUE(run.Params() == untouched.Params());

  untouched.trainer->RunGroupEpoch();
  run.trainer->RunGroupEpoch();
  EXPECT_TRUE(run.Params() == untouched.Params());
}

TEST_F(TrainerResumeTest, ResumeRejectsMissingFile) {
  TrainRun run(GroupOnlyConfig(1));
  EXPECT_FALSE(
      run.trainer->ResumeFrom(TempPath("no_such_snapshot.snap")).ok());
}

TEST_F(TrainerResumeTest, FingerprintIgnoresThreadsOnly) {
  const GroupSaConfig base = GroupOnlyConfig();
  TrainRun a(base);

  GroupSaConfig threaded = base;
  threaded.threads = 4;
  TrainRun b(threaded);
  EXPECT_EQ(a.trainer->ConfigFingerprint(), b.trainer->ConfigFingerprint());

  GroupSaConfig deeper = base;
  deeper.num_voting_layers += 1;
  TrainRun c(deeper);
  EXPECT_NE(a.trainer->ConfigFingerprint(), c.trainer->ConfigFingerprint());
}

}  // namespace
}  // namespace groupsa::core
