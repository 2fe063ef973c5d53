#include "core/trainer.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>

#include "analysis/graph_lint.h"
#include "autograd/ops.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/serialize.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "nn/checkpoint.h"

namespace groupsa::core {
namespace {

// Samples per shard of the sharded minibatch path. A fixed grain (rather
// than one derived from the pool width) is what keeps the shard structure —
// and with it RNG streams, loss sums and gradient reduction order —
// identical at every thread count.
constexpr int kShardGrain = 8;

}  // namespace

Trainer::Trainer(GroupSaModel* model, const data::EdgeList& user_train,
                 const data::EdgeList& group_train,
                 const data::InteractionMatrix* ui_observed,
                 const data::InteractionMatrix* gi_observed, Rng* rng)
    : model_(model),
      user_train_(user_train),
      group_train_(group_train),
      user_negatives_(ui_observed),
      group_negatives_(gi_observed),
      rng_(rng) {
  const GroupSaConfig& config = model->config();
  if (config.threads > 0) parallel::SetGlobalThreads(config.threads);
  optimizer_ = std::make_unique<nn::Adam>(
      model->Parameters(), config.learning_rate, config.weight_decay);
  for (const nn::ParamEntry& p : model->Parameters())
    grad_slots_.push_back({p.tensor.get(), p.row_grad});
  // A malformed registration (duplicate tensor, shared row gradient)
  // would double-count gradients on every batch; fail construction instead.
  if (Status s = analysis::ValidateShardSlots(grad_slots_); !s.ok())
    GROUPSA_CHECK(false, s.message().c_str());
}

ag::TensorPool::Stats Trainer::PoolStats() const {
  ag::TensorPool::Stats total;
  for (const std::unique_ptr<LaneContext>& lane : lanes_) {
    const ag::TensorPool::Stats& s = lane->pool.stats();
    total.tensors_created += s.tensors_created;
    total.tensors_reused += s.tensors_reused;
    total.workspaces_created += s.workspaces_created;
    total.workspaces_reused += s.workspaces_reused;
    total.escaped += s.escaped;
    total.bytes += s.bytes;
    total.batches += s.batches;
  }
  return total;
}

bool Trainer::GradientsFinite() const {
  auto all_finite = [](const float* g, size_t n) {
    for (size_t i = 0; i < n; ++i)
      if (!std::isfinite(g[i])) return false;
    return true;
  };
  for (const ag::GradShard::ParamSlot& slot : grad_slots_) {
    if (slot.row_grad != nullptr) {
      const std::vector<float>& rows = slot.row_grad->values();
      if (!all_finite(rows.data(), rows.size())) return false;
    } else if (slot.tensor->has_grad()) {
      const tensor::Matrix& grad = slot.tensor->grad_view();
      if (!all_finite(grad.data(), static_cast<size_t>(grad.size())))
        return false;
    }
  }
  return true;
}

void Trainer::DropBatchGradients() {
  for (const ag::GradShard::ParamSlot& slot : grad_slots_) {
    slot.tensor->ZeroGrad();
    if (slot.row_grad != nullptr) slot.row_grad->Clear();
  }
}

Trainer::EpochStats Trainer::RunShardedEpoch(int num_samples,
                                             int losses_per_sample,
                                             const SampleLossFn& fn) {
  const GroupSaConfig& config = model_->config();
  Stopwatch timer;
  // Consume the per-Fit resume context; direct Run*Epoch calls see zeros.
  const int start_batch = start_batch_;
  double total_loss = start_loss_;
  int total_losses = start_losses_;
  start_batch_ = 0;
  start_loss_ = 0.0;
  start_losses_ = 0;

  const FitOptions* opts = fit_options_;
  const bool guard = opts != nullptr && opts->divergence_guard;
  int consecutive_bad = 0;
  int skipped = 0;

  const int batch_size = config.batch_size;
  const int num_batches = (num_samples + batch_size - 1) / batch_size;
  for (int b = 0; b < num_batches; ++b) {
    // One sequential draw per batch on the calling thread; each shard's
    // stream is a pure function of it and the shard index. Drawn before the
    // resume fast-forward check so a resumed epoch consumes the exact RNG
    // stream an uninterrupted one would.
    const uint64_t batch_seed = rng_->NextU64();
    if (b < start_batch) continue;  // resume: batch already applied

    const int start = b * batch_size;
    const int end = std::min(num_samples, start + batch_size);
    const int batch_losses = (end - start) * losses_per_sample;
    const int num_shards = (end - start + kShardGrain - 1) / kShardGrain;

    // Persistent contexts: shard s reuses the same gradient sink every
    // batch, and lane l the same tape and tensor pool for shards l, l + L,
    // ..., so the steady state allocates nothing here. The lanes change
    // only where buffers live: each shard still has its own sink, Rng
    // stream and place in the reduction, so no bit depends on L.
    const int num_lanes = std::min(parallel::GlobalThreads(), num_shards);
    while (shard_sinks_.size() < static_cast<size_t>(num_shards))
      shard_sinks_.push_back(std::make_unique<ag::GradShard>(grad_slots_));
    while (lanes_.size() < static_cast<size_t>(num_lanes))
      lanes_.push_back(std::make_unique<LaneContext>());
    shard_loss_.assign(static_cast<size_t>(num_shards), 0.0f);
    // Seeding with 1/batch_losses makes each sample's gradient carry the
    // batch-mean weight, exactly as the historical mean-loss graph did.
    tensor::Matrix seed(1, 1);
    seed.At(0, 0) = 1.0f / static_cast<float>(batch_losses);
    parallel::ParallelFor(0, num_lanes, 1, [&](int64_t lb, int64_t le) {
      for (int64_t l = lb; l < le; ++l) {
        LaneContext& lane = *lanes_[static_cast<size_t>(l)];
        for (int64_t s = l; s < num_shards; s += num_lanes) {
          Rng shard_rng(
              Rng::StreamSeed(batch_seed, static_cast<uint64_t>(s)));
          lane.tape.Reset();
          {
            ag::GradShard::ActiveScope scope(
                shard_sinks_[static_cast<size_t>(s)].get());
            ag::TensorPool::ActiveScope pool_scope(
                pooling_enabled_ ? &lane.pool : nullptr);
            const int shard_begin = start + static_cast<int>(s) * kShardGrain;
            const int shard_end = std::min(end, shard_begin + kShardGrain);
            for (int i = shard_begin; i < shard_end; ++i)
              fn(&lane.tape, i, &shard_rng, &lane.losses);
            ag::TensorPtr sum = ag::SumAll(
                &lane.tape, ag::ConcatRows(&lane.tape, lane.losses));
            // When the tape carries graph structure (debug builds; see
            // Tape::GraphRecordingDefault), validate the first shard of the
            // first executed batch before its backward pass runs — every
            // later shard records the same op skeleton, so one check per
            // epoch certifies the whole training graph.
            if (lane.tape.records_graph() && b == start_batch && s == 0) {
              analysis::TapeLintOptions lint;
              lint.root = sum;
              for (const ag::GradShard::ParamSlot& slot : grad_slots_)
                lint.parameters.push_back(slot.tensor);
              if (Status lint_status = analysis::ValidateTape(lane.tape, lint);
                  !lint_status.ok()) {
                GROUPSA_CHECK(false, lint_status.message().c_str());
              }
            }
            shard_loss_[static_cast<size_t>(s)] = sum->scalar();
            lane.tape.BackwardFrom(sum, seed);
          }
          // Drop every reference the shard took (closures, node records,
          // loss roots) so EndBatch can reclaim the pool's tensors for the
          // next shard this lane runs.
          lane.tape.Reset();
          lane.losses.clear();
          if (pooling_enabled_) lane.pool.EndBatch();
        }
      }
    });
    // Deterministic merge: shard order, on this thread. ReduceInto also
    // leaves each sink clean (embeddings: touched rows only).
    for (int s = 0; s < num_shards; ++s)
      shard_sinks_[static_cast<size_t>(s)]->ReduceInto();

    // Fault-injection site: `corrupt` poisons this batch's loss (exercising
    // the divergence guard); `kill` dies here for the crash-resume CI gate.
    if (GROUPSA_FAILPOINT("trainer.batch") == failpoint::Action::kCorrupt)
      shard_loss_[0] = std::numeric_limits<float>::quiet_NaN();

    double batch_loss = 0.0;
    for (float loss : shard_loss_) batch_loss += loss;

    if (guard && (!std::isfinite(batch_loss) || !GradientsFinite())) {
      ++skipped;
      DropBatchGradients();
      if (++consecutive_bad > opts->max_consecutive_bad) {
        if (!opts->snapshot_path.empty()) {
          rollback_requested_ = true;
        } else {
          epoch_error_ = Status::Error(StrFormat(
              "training diverged: %d consecutive non-finite batches and no "
              "snapshot to roll back to",
              consecutive_bad));
        }
        break;
      }
      continue;  // dropped: no optimizer step, no loss accumulation
    }
    consecutive_bad = 0;
    total_loss += batch_loss;
    total_losses += batch_losses;
    optimizer_->Step();

    if (opts != nullptr && !opts->snapshot_path.empty() &&
        opts->snapshot_every > 0 && (b + 1) % opts->snapshot_every == 0 &&
        b + 1 < num_batches) {
      Status s = WriteSnapshot(opts->snapshot_path, current_unit_, b + 1,
                               total_loss, total_losses, unit_start_rng_);
      // A failed snapshot must not kill a healthy run; a later resume just
      // restarts from the previous snapshot.
      if (!s.ok()) LogWarning(s.message());
    }
  }

  EpochStats stats;
  stats.num_samples = total_losses;
  stats.avg_loss = total_losses > 0 ? total_loss / total_losses : 0.0;
  stats.seconds = timer.ElapsedSeconds();
  stats.skipped_batches = skipped;
  return stats;
}

Trainer::EpochStats Trainer::RunUserEpoch() {
  const GroupSaConfig& config = model_->config();
  std::vector<data::Edge> order(user_train_);
  rng_->Shuffle(&order);

  const int losses_per_sample = config.train_group_head_on_singletons ? 2 : 1;
  return RunShardedEpoch(
      static_cast<int>(order.size()), losses_per_sample,
      [&](ag::Tape* tape, int index, Rng* rng,
          std::vector<ag::TensorPtr>* losses) {
        const data::Edge& edge = order[index];
        const std::vector<data::ItemId> negatives =
            user_negatives_.SampleMany(edge.row, config.num_negatives, rng);
        GroupSaModel::UserForward fwd =
            model_->BuildUserForward(tape, edge.row, /*training=*/true, rng);
        ag::TensorPtr pos =
            model_->ScoreUserItem(tape, fwd, edge.item, true, rng);
        std::vector<ag::TensorPtr> neg_scores;
        for (data::ItemId neg : negatives) {
          neg_scores.push_back(
              model_->ScoreUserItem(tape, fwd, neg, true, rng));
        }
        ag::TensorPtr negs = ag::ConcatRows(tape, neg_scores);
        losses->push_back(ag::BprLoss(tape, pos, negs));

        if (config.train_group_head_on_singletons) {
          // Drive the same triple through the group path as a one-member
          // group (see config.h, train_group_head_on_singletons).
          GroupSaModel::GroupForward single =
              model_->BuildGroupForwardFromMembers(tape, {edge.row}, true,
                                                   rng);
          ag::TensorPtr gpos =
              model_->ScoreGroupItem(tape, single, edge.item, true, rng)
                  .score;
          std::vector<ag::TensorPtr> gneg_scores;
          for (data::ItemId neg : negatives) {
            gneg_scores.push_back(
                model_->ScoreGroupItem(tape, single, neg, true, rng).score);
          }
          losses->push_back(
              ag::BprLoss(tape, gpos, ag::ConcatRows(tape, gneg_scores)));
        }
      });
}

Trainer::EpochStats Trainer::RunGroupEpoch() {
  const GroupSaConfig& config = model_->config();
  std::vector<data::Edge> order(group_train_);
  rng_->Shuffle(&order);

  return RunShardedEpoch(
      static_cast<int>(order.size()), /*losses_per_sample=*/1,
      [&](ag::Tape* tape, int index, Rng* rng,
          std::vector<ag::TensorPtr>* losses) {
        const data::Edge& edge = order[index];
        GroupSaModel::GroupForward fwd =
            model_->BuildGroupForward(tape, edge.row, /*training=*/true, rng);
        ag::TensorPtr pos =
            model_->ScoreGroupItem(tape, fwd, edge.item, true, rng).score;
        std::vector<ag::TensorPtr> neg_scores;
        for (data::ItemId neg : group_negatives_.SampleMany(
                 edge.row, config.num_negatives, rng)) {
          neg_scores.push_back(
              model_->ScoreGroupItem(tape, fwd, neg, true, rng).score);
        }
        ag::TensorPtr negs = ag::ConcatRows(tape, neg_scores);
        losses->push_back(ag::BprLoss(tape, pos, negs));
      });
}

Trainer::EpochStats Trainer::RunSocialEpoch() {
  const GroupSaConfig& config = model_->config();
  const data::SocialGraph& social = *model_->model_data().social;
  const int num_users = model_->num_users();
  std::vector<std::pair<data::UserId, data::UserId>> edges;
  for (data::UserId u = 0; u < num_users; ++u) {
    const std::vector<data::UserId>& friends = social.Neighbors(u);
    for (data::UserId v : friends) {
      if (u < v) edges.emplace_back(u, v);
    }
    // The negative draw below retries until it finds a user other than u
    // who is not u's friend. For a user who anchors an edge (has a later
    // friend) and is a friend of every other user there is none, so fail
    // here, naming the user, instead of retrying forever.
    const bool anchors_edges = !friends.empty() && friends.back() > u;
    GROUPSA_CHECK(config.num_negatives == 0 || !anchors_edges ||
                      social.Degree(u) < num_users - 1,
                  StrFormat("user %d is a friend of every other user, so "
                            "the social objective has no negative to "
                            "sample for it",
                            u)
                      .c_str());
  }
  rng_->Shuffle(&edges);

  nn::Embedding& table = model_->user_embedding();
  return RunShardedEpoch(
      static_cast<int>(edges.size()), /*losses_per_sample=*/1,
      [&](ag::Tape* tape, int index, Rng* rng,
          std::vector<ag::TensorPtr>* losses) {
        const auto& [u, v] = edges[index];
        ag::TensorPtr eu = table.Lookup(tape, u);
        ag::TensorPtr pos = ag::MatMul(tape, eu, table.Lookup(tape, v),
                                       false, /*transpose_b=*/true);
        std::vector<ag::TensorPtr> neg_scores;
        for (int s = 0; s < config.num_negatives; ++s) {
          data::UserId n = rng->NextInt(num_users);
          while (n == u || social.Connected(u, n)) n = rng->NextInt(num_users);
          neg_scores.push_back(ag::MatMul(tape, eu, table.Lookup(tape, n),
                                          false, true));
        }
        losses->push_back(
            ag::BprLoss(tape, pos, ag::ConcatRows(tape, neg_scores)));
      });
}

std::vector<Trainer::ScheduleUnit> Trainer::BuildSchedule() const {
  const GroupSaConfig& config = model_->config();
  std::vector<ScheduleUnit> schedule;
  if (config.use_user_task) {
    for (int e = 0; e < config.user_epochs; ++e) {
      if (config.use_social_objective)
        schedule.push_back({ScheduleUnit::kSocial, e + 1, false});
      schedule.push_back({ScheduleUnit::kUser, e + 1, true});
    }
  }
  for (int e = 0; e < config.group_epochs; ++e) {
    if (config.use_user_task && config.interleave_user_in_stage2)
      schedule.push_back({ScheduleUnit::kUser, e + 1, false});
    schedule.push_back({ScheduleUnit::kGroup, e + 1, true});
  }
  return schedule;
}

uint64_t Trainer::ConfigFingerprint() const {
  const GroupSaConfig& c = model_->config();
  ByteWriter w;
  w.WriteString("groupsa.trainer.fingerprint.v1");
  w.WriteString(c.variant);
  w.WriteU32(static_cast<uint32_t>(c.embedding_dim));
  w.WriteU32(static_cast<uint32_t>(c.attention_hidden));
  w.WriteU32(static_cast<uint32_t>(c.ffn_hidden));
  w.WriteU32(static_cast<uint32_t>(c.predictor_hidden.size()));
  for (int h : c.predictor_hidden) w.WriteU32(static_cast<uint32_t>(h));
  w.WriteU32(static_cast<uint32_t>(c.fusion_hidden.size()));
  for (int h : c.fusion_hidden) w.WriteU32(static_cast<uint32_t>(h));
  w.WriteU32(static_cast<uint32_t>(c.num_voting_layers));
  w.WriteU32(static_cast<uint32_t>(c.top_h));
  w.WriteU32(static_cast<uint32_t>(c.num_negatives));
  w.WriteDouble(c.user_score_blend);
  w.WriteDouble(c.learning_rate);
  w.WriteDouble(c.weight_decay);
  w.WriteDouble(c.dropout_ratio);
  w.WriteU32(static_cast<uint32_t>(c.user_epochs));
  w.WriteU32(static_cast<uint32_t>(c.group_epochs));
  w.WriteU32(static_cast<uint32_t>(c.batch_size));
  // c.threads deliberately omitted: resuming at a different pool width is
  // bit-identical (see the determinism contract above) and must be allowed.
  uint32_t switches = 0;
  for (bool b : {c.use_voting_scheme, c.use_social_mask,
                 c.use_item_aggregation, c.use_social_aggregation,
                 c.use_user_task, c.share_predictors,
                 c.interleave_user_in_stage2, c.use_enhanced_member_reps,
                 c.separate_latent_tower, c.detach_attention_guides,
                 c.train_group_head_on_singletons, c.tie_latent_spaces,
                 c.use_social_objective}) {
    switches = (switches << 1) | (b ? 1u : 0u);
  }
  w.WriteU32(switches);
  w.WriteU32(static_cast<uint32_t>(c.social_closeness));
  w.WriteDouble(c.closeness_threshold);
  // Dataset dimensions and the parameter inventory: a snapshot must only
  // resume against the exact model it was taken from.
  w.WriteU32(static_cast<uint32_t>(model_->num_users()));
  w.WriteU32(static_cast<uint32_t>(model_->num_items()));
  w.WriteU64(user_train_.size());
  w.WriteU64(group_train_.size());
  for (const nn::ParamEntry& p : model_->Parameters()) {
    w.WriteString(p.name);
    w.WriteU32(static_cast<uint32_t>(p.tensor->rows()));
    w.WriteU32(static_cast<uint32_t>(p.tensor->cols()));
  }
  const std::string& bytes = w.bytes();
  const uint32_t lo = Crc32Of(bytes.data(), bytes.size());
  // Second independent 32 bits: same data, CRC seeded off the first pass.
  const uint32_t hi =
      Crc32::Finalize(Crc32::Update(~lo, bytes.data(), bytes.size()));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

Status Trainer::WriteSnapshot(const std::string& path, int unit,
                              int next_batch, double acc_loss, int acc_losses,
                              const Rng::State& unit_start) const {
  // The params and adam sections stream from the live tables.
  nn::CheckpointWriter writer;
  writer.AddSection("params", nn::ParamsSection(model_->Parameters()));
  writer.AddSection("adam",
                    [this](ByteSink* sink) { optimizer_->WriteState(sink); });
  ByteWriter t;
  t.WriteU64(ConfigFingerprint());
  t.WriteU32(static_cast<uint32_t>(unit));
  t.WriteU32(static_cast<uint32_t>(next_batch));
  t.WriteDouble(acc_loss);
  t.WriteI64(acc_losses);
  for (uint64_t s : unit_start.s) t.WriteU64(s);
  t.WriteU32(unit_start.has_cached_gaussian ? 1 : 0);
  t.WriteDouble(unit_start.cached_gaussian);
  writer.AddSection("trainer", t.Release());
  return writer.Commit(path).WithContext("write training snapshot " + path);
}

Status Trainer::ResumeFrom(const std::string& path) {
  nn::CheckpointReader reader;
  GROUPSA_RETURN_IF_ERROR_CTX(nn::CheckpointReader::Read(path, &reader),
                              "resume from " + path);
  const std::optional<std::string_view> params = reader.Find("params");
  const std::optional<std::string_view> adam = reader.Find("adam");
  const std::optional<std::string_view> trainer = reader.Find("trainer");
  if (!params.has_value() || !adam.has_value() || !trainer.has_value()) {
    return Status::Error(
        "not a training snapshot (params/adam/trainer section missing): " +
        path);
  }

  // Parse and validate the cursor first; nothing is mutated until every
  // section checked out.
  ByteReader t(*trainer);
  uint64_t fingerprint = 0;
  uint32_t unit = 0;
  uint32_t next_batch = 0;
  double acc_loss = 0.0;
  int64_t acc_losses = 0;
  Rng::State rng_state;
  uint32_t has_cached = 0;
  bool parsed = t.ReadU64(&fingerprint) && t.ReadU32(&unit) &&
                t.ReadU32(&next_batch) && t.ReadDouble(&acc_loss) &&
                t.ReadI64(&acc_losses);
  for (int i = 0; parsed && i < 4; ++i) parsed = t.ReadU64(&rng_state.s[i]);
  parsed = parsed && t.ReadU32(&has_cached) &&
           t.ReadDouble(&rng_state.cached_gaussian) && t.AtEnd();
  if (!parsed)
    return Status::Error("malformed trainer section: " + path);
  rng_state.has_cached_gaussian = has_cached != 0;
  if (fingerprint != ConfigFingerprint()) {
    return Status::Error(
        "snapshot was written under a different config, dataset or model "
        "(fingerprint mismatch): " + path);
  }
  const size_t num_units = BuildSchedule().size();
  if (unit > num_units) {
    return Status::Error(StrFormat(
        "snapshot cursor (unit %u) beyond the %zu-unit schedule: %s", unit,
        num_units, path.c_str()));
  }

  // Restore. The params section is checked before the optimizer restores
  // (all-or-nothing) and applied after it, and that apply cannot fail, so a
  // snapshot that fails anywhere leaves parameters, optimizer and RNG as
  // they were. Both copy straight from the reader's buffer.
  const std::vector<nn::ParamEntry> model_params = model_->Parameters();
  GROUPSA_RETURN_IF_ERROR_CTX(nn::CheckParameters(model_params, *params),
                              "resume from " + path);
  GROUPSA_RETURN_IF_ERROR_CTX(optimizer_->RestoreState(*adam),
                              "resume from " + path);
  nn::ApplyParameters(model_params, *params);
  rng_->RestoreState(rng_state);
  has_resume_ = true;
  resume_unit_ = static_cast<int>(unit);
  resume_batch_ = static_cast<int>(next_batch);
  resume_loss_ = acc_loss;
  resume_losses_ = static_cast<int>(acc_losses);
  resume_rng_ = rng_state;
  return Status::Ok();
}

Status Trainer::Fit(const FitOptions& options, FitReport* report) {
  const GroupSaConfig& config = model_->config();
  Stopwatch total;
  const std::vector<ScheduleUnit> schedule = BuildSchedule();
  fit_options_ = &options;
  report->resumed = has_resume_;
  int rollbacks = 0;
  int unit = has_resume_ ? resume_unit_ : 0;
  while (unit < static_cast<int>(schedule.size())) {
    const ScheduleUnit& su = schedule[unit];
    current_unit_ = unit;
    if (has_resume_ && unit == resume_unit_) {
      // Continue the interrupted unit: rewind the stream to its start and
      // let RunShardedEpoch fast-forward over the already-applied batches.
      rng_->RestoreState(resume_rng_);
      unit_start_rng_ = resume_rng_;
      start_batch_ = resume_batch_;
      start_loss_ = resume_loss_;
      start_losses_ = resume_losses_;
      has_resume_ = false;
    } else {
      unit_start_rng_ = rng_->SaveState();
      start_batch_ = 0;
      start_loss_ = 0.0;
      start_losses_ = 0;
    }
    rollback_requested_ = false;
    epoch_error_ = Status::Ok();

    EpochStats stats;
    switch (su.kind) {
      case ScheduleUnit::kSocial:
        stats = RunSocialEpoch();
        break;
      case ScheduleUnit::kUser:
        stats = RunUserEpoch();
        break;
      case ScheduleUnit::kGroup:
        stats = RunGroupEpoch();
        break;
    }
    if (!epoch_error_.ok()) {
      fit_options_ = nullptr;
      return epoch_error_;
    }
    if (rollback_requested_) {
      if (++rollbacks > options.max_rollbacks) {
        fit_options_ = nullptr;
        return Status::Error(StrFormat(
            "training diverged: still non-finite after %d rollbacks to %s",
            options.max_rollbacks, options.snapshot_path.c_str()));
      }
      if (Status s = ResumeFrom(options.snapshot_path)
                         .WithContext("divergence rollback");
          !s.ok()) {
        fit_options_ = nullptr;
        return s;
      }
      report->rollbacks = rollbacks;
      unit = resume_unit_;
      continue;
    }
    report->skipped_batches += stats.skipped_batches;
    if (su.record) {
      const bool is_user = su.kind == ScheduleUnit::kUser;
      if (options.verbose) {
        LogInfo(StrFormat("[%s] %s epoch %d/%d loss=%.4f (%.1fs)",
                          config.variant.c_str(), is_user ? "user" : "group",
                          su.display,
                          is_user ? config.user_epochs : config.group_epochs,
                          stats.avg_loss, stats.seconds));
      }
      if (is_user)
        report->user_epochs.push_back(stats);
      else
        report->group_epochs.push_back(stats);
    }
    ++unit;
    if (!options.snapshot_path.empty()) {
      // End-of-unit snapshot: a resume never replays more than one unit.
      Status s = WriteSnapshot(options.snapshot_path, unit, 0, 0.0, 0,
                               rng_->SaveState());
      if (!s.ok()) LogWarning(s.message());
    }
  }
  report->total_seconds = total.ElapsedSeconds();
  fit_options_ = nullptr;
  return Status::Ok();
}

Trainer::FitReport Trainer::Fit(bool verbose) {
  FitOptions options;
  options.verbose = verbose;
  FitReport report;
  const Status status = Fit(options, &report);
  GROUPSA_CHECK(status.ok(), status.message().c_str());
  return report;
}

}  // namespace groupsa::core
