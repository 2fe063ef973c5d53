#include "core/groupsa_model.h"

#include <span>
#include <unordered_set>
#include <utility>

#include "analysis/graph_lint.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/inference_engine.h"

namespace groupsa::core {

GroupSaModel::GroupSaModel(const GroupSaConfig& config, int num_users,
                           int num_items, ModelData data, Rng* rng)
    : config_(config), data_(std::move(data)) {
  GROUPSA_CHECK(data_.groups != nullptr && data_.social != nullptr,
                "GroupSaModel requires group table and social graph");
  const int d = config.embedding_dim;
  user_emb_ = std::make_unique<nn::Embedding>("user_emb", num_users, d, rng);
  item_emb_ = std::make_unique<nn::Embedding>("item_emb", num_items, d, rng);
  RegisterSubmodule("user_emb", user_emb_.get());
  RegisterSubmodule("item_emb", item_emb_.get());
  if (config.user_modeling_enabled()) {
    user_modeling_ = std::make_unique<UserModeling>(
        config, num_users, num_items, rng, user_emb_.get(), item_emb_.get());
    RegisterSubmodule("user_modeling", user_modeling_.get());
  }
  voting_ = std::make_unique<VotingScheme>(config, rng);
  RegisterSubmodule("voting", voting_.get());
  user_predictor_ = std::make_unique<RankPredictor>("user_pred", config, rng);
  RegisterSubmodule("user_pred", user_predictor_.get());
  if (user_modeling_ != nullptr && config.separate_latent_tower) {
    latent_predictor_ =
        std::make_unique<RankPredictor>("latent_pred", config, rng);
    RegisterSubmodule("latent_pred", latent_predictor_.get());
  }
  if (!config.share_predictors) {
    group_predictor_ =
        std::make_unique<RankPredictor>("group_pred", config, rng);
    RegisterSubmodule("group_pred", group_predictor_.get());
  }
  // Built last: the engine snapshots the flattened parameter list.
  inference_ = std::make_unique<InferenceEngine>(this);
}

GroupSaModel::~GroupSaModel() = default;

GroupSaModel::UserForward GroupSaModel::BuildUserForward(ag::Tape* tape,
                                                         data::UserId user,
                                                         bool training,
                                                         Rng* rng) {
  UserForward fwd;
  fwd.user = user;
  fwd.embedding = user_emb_->Lookup(tape, user);
  if (user_modeling_ != nullptr && config_.effective_user_blend() > 0.0f) {
    const std::span<const data::ItemId> top_items =
        data_.top_items.empty() ? std::span<const data::ItemId>()
                                : data_.top_items[user];
    const std::span<const data::UserId> top_friends =
        data_.top_friends.empty() ? std::span<const data::UserId>()
                                  : data_.top_friends[user];
    // Optionally detach the guide so the query role of emb^U does not
    // interfere with its tower-input role (see config.h).
    ag::TensorPtr guide =
        config_.detach_attention_guides
            ? ag::Constant(fwd.embedding->value())
            : fwd.embedding;
    fwd.latent = user_modeling_->BuildUserLatent(tape, guide, top_items,
                                                 top_friends, training, rng);
  }
  return fwd;
}

ag::TensorPtr GroupSaModel::ScoreUserItem(ag::Tape* tape,
                                          const UserForward& user,
                                          data::ItemId item, bool training,
                                          Rng* rng) {
  ag::TensorPtr item_embedding = item_emb_->Lookup(tape, item);
  // r^R1: shared-embedding score (Eq. 22).
  ag::TensorPtr r1 = user_predictor_->Score(tape, user.embedding,
                                            item_embedding, training, rng);
  const float blend = config_.effective_user_blend();
  if (user.latent == nullptr || blend <= 0.0f) return r1;

  // r^R2: latent-factor score through the same tower (Sec. II-E); the item
  // side is the item-space latent x_h^V when present (falls back to the
  // shared embedding for Group-I).
  ag::TensorPtr item_latent =
      user_modeling_->has_item_space()
          ? user_modeling_->ItemLatent(tape, item)
          : item_embedding;
  const RankPredictor* latent_tower = latent_predictor_ != nullptr
                                          ? latent_predictor_.get()
                                          : user_predictor_.get();
  ag::TensorPtr r2 =
      latent_tower->Score(tape, user.latent, item_latent, training, rng);
  // Eq. 23: r = (1 - w^u) r1 + w^u r2.
  return ag::Add(tape, ag::Scale(tape, r1, 1.0f - blend),
                 ag::Scale(tape, r2, blend));
}

GroupSaModel::GroupForward GroupSaModel::BuildGroupForward(ag::Tape* tape,
                                                           data::GroupId group,
                                                           bool training,
                                                           Rng* rng) {
  return BuildGroupForwardFromMembers(tape, data_.groups->Members(group),
                                      training, rng);
}

GroupSaModel::GroupForward GroupSaModel::BuildGroupForwardFromMembers(
    ag::Tape* tape, const std::vector<data::UserId>& members, bool training,
    Rng* rng) {
  GROUPSA_CHECK(!members.empty(), "group must have members");
  GroupForward fwd;
  fwd.members = members;
  ag::TensorPtr member_rows;
  const bool enhance = user_modeling_ != nullptr &&
                       config_.use_enhanced_member_reps &&
                       config_.effective_user_blend() > 0.0f;
  if (enhance) {
    // Row i = emb_i + h_i: the member embedding residually enhanced by the
    // user-modeling latent (see config.h, use_enhanced_member_reps).
    std::vector<ag::TensorPtr> rows;
    rows.reserve(members.size());
    for (data::UserId member : members) {
      UserForward uf = BuildUserForward(tape, member, training, rng);
      rows.push_back(uf.latent != nullptr
                         ? ag::Add(tape, uf.embedding, uf.latent)
                         : uf.embedding);
    }
    member_rows = rows.size() == 1 ? rows[0] : ag::ConcatRows(tape, rows);
  } else {
    std::vector<int> ids(members.begin(), members.end());
    member_rows = user_emb_->Forward(tape, ids);  // l x d
  }
  member_rows =
      ag::Dropout(tape, member_rows, config_.dropout_ratio, training, rng);
  fwd.reps = voting_->BuildMemberReps(tape, member_rows, members,
                                      *data_.social);
  return fwd;
}

GroupSaModel::GroupItemScore GroupSaModel::ScoreGroupItem(
    ag::Tape* tape, const GroupForward& group, data::ItemId item,
    bool training, Rng* rng) {
  ag::TensorPtr item_embedding = item_emb_->Lookup(tape, item);
  VotingScheme::GroupRep agg =
      voting_->AggregateGroup(tape, group.reps, item_embedding);
  GroupItemScore out;
  const RankPredictor* predictor = config_.share_predictors
                                       ? user_predictor_.get()
                                       : group_predictor_.get();
  out.score = predictor->Score(tape, agg.rep, item_embedding, training, rng);
  out.member_weights = std::move(agg.member_weights);
  return out;
}

std::vector<double> GroupSaModel::ScoreItemsForUser(
    data::UserId user, const std::vector<data::ItemId>& items) {
  return inference_->ScoreItemsForUser(user, items);
}

std::vector<double> GroupSaModel::ScoreItemsForGroup(
    data::GroupId group, const std::vector<data::ItemId>& items) {
  return inference_->ScoreItemsForGroup(group, items);
}

std::vector<double> GroupSaModel::ScoreItemsForMembers(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) {
  return inference_->ScoreItemsForMembers(members, items);
}

std::vector<std::vector<double>> GroupSaModel::MemberItemScores(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) {
  return inference_->MemberItemScores(members, items);
}

std::vector<double> GroupSaModel::ScoreItemsForUserPerItem(
    data::UserId user, const std::vector<data::ItemId>& items) {
  UserForward fwd =
      BuildUserForward(/*tape=*/nullptr, user, /*training=*/false, nullptr);
  std::vector<double> scores;
  scores.reserve(items.size());
  for (data::ItemId item : items) {
    scores.push_back(
        ScoreUserItem(nullptr, fwd, item, /*training=*/false, nullptr)
            ->scalar());
  }
  return scores;
}

std::vector<double> GroupSaModel::ScoreItemsForGroupPerItem(
    data::GroupId group, const std::vector<data::ItemId>& items) {
  GroupForward fwd =
      BuildGroupForward(nullptr, group, /*training=*/false, nullptr);
  std::vector<double> scores;
  scores.reserve(items.size());
  for (data::ItemId item : items) {
    scores.push_back(
        ScoreGroupItem(nullptr, fwd, item, /*training=*/false, nullptr)
            .score->scalar());
  }
  return scores;
}

std::vector<double> GroupSaModel::ScoreItemsForMembersPerItem(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) {
  GroupForward fwd = BuildGroupForwardFromMembers(nullptr, members,
                                                  /*training=*/false, nullptr);
  std::vector<double> scores;
  scores.reserve(items.size());
  for (data::ItemId item : items) {
    scores.push_back(
        ScoreGroupItem(nullptr, fwd, item, /*training=*/false, nullptr)
            .score->scalar());
  }
  return scores;
}

GroupSaModel::GroupItemScore GroupSaModel::ScoreGroupItemDetailed(
    data::GroupId group, data::ItemId item) {
  GroupForward fwd =
      BuildGroupForward(nullptr, group, /*training=*/false, nullptr);
  return ScoreGroupItem(nullptr, fwd, item, /*training=*/false, nullptr);
}

Status GroupSaModel::ValidateGraph() {
  // Representative entities: the user with the richest Top-H neighbourhoods
  // (so both user-modeling attention spaces are exercised) and the first
  // real group, falling back to a singleton group of that user.
  data::UserId user = 0;
  size_t best_cover = 0;
  for (int u = 0; u < num_users(); ++u) {
    size_t cover = 0;
    if (u < data_.top_items.num_rows()) cover += data_.top_items[u].size();
    if (u < data_.top_friends.num_rows())
      cover += data_.top_friends[u].size();
    if (cover > best_cover) {
      best_cover = cover;
      user = u;
    }
  }
  const data::ItemId pos = 0;
  std::vector<data::ItemId> negatives;
  for (data::ItemId item = 1; item < num_items() && negatives.size() < 2;
       ++item) {
    negatives.push_back(item);
  }
  if (negatives.empty()) negatives.push_back(pos);

  // The probe forward marks embedding rows as touched (exactly as a training
  // forward would); snapshot the touched-row sets so validation leaves the
  // optimizer's sparse-update bookkeeping untouched.
  std::vector<std::pair<std::unordered_set<int>*, std::unordered_set<int>>>
      saved_touched;
  for (const nn::ParamEntry& p : Parameters()) {
    if (p.touched_rows != nullptr)
      saved_touched.emplace_back(p.touched_rows, *p.touched_rows);
  }

  Rng probe_rng(0x9E3779B9u);
  ag::Tape tape;
  tape.set_record_graph(true);

  // User task: blended BPR triple (Eq. 22-23).
  UserForward uf = BuildUserForward(&tape, user, /*training=*/true, &probe_rng);
  ag::TensorPtr user_pos = ScoreUserItem(&tape, uf, pos, true, &probe_rng);
  std::vector<ag::TensorPtr> user_negs;
  for (data::ItemId item : negatives)
    user_negs.push_back(ScoreUserItem(&tape, uf, item, true, &probe_rng));
  ag::TensorPtr user_loss =
      ag::BprLoss(&tape, user_pos, ag::ConcatRows(&tape, user_negs));

  // Group task: voting rounds + group tower (Eq. 10, 20).
  GroupForward gf =
      data_.groups->num_groups() > 0
          ? BuildGroupForward(&tape, 0, /*training=*/true, &probe_rng)
          : BuildGroupForwardFromMembers(&tape, {user}, true, &probe_rng);
  ag::TensorPtr group_pos =
      ScoreGroupItem(&tape, gf, pos, true, &probe_rng).score;
  std::vector<ag::TensorPtr> group_negs;
  for (data::ItemId item : negatives) {
    group_negs.push_back(
        ScoreGroupItem(&tape, gf, item, true, &probe_rng).score);
  }
  ag::TensorPtr group_loss =
      ag::BprLoss(&tape, group_pos, ag::ConcatRows(&tape, group_negs));

  ag::TensorPtr total = ag::SumAll(
      &tape, ag::ConcatRows(&tape, {user_loss, group_loss}));

  analysis::TapeLintOptions options;
  options.root = total;
  for (const nn::ParamEntry& p : Parameters())
    options.parameters.push_back(p.tensor.get());
  // The combined user+group graph must reach every registered parameter:
  // anything unreached here would be "trained" by the optimizer without ever
  // receiving a gradient.
  options.check_unreached_params = true;
  Status status = analysis::ValidateTape(tape, options);

  for (auto& [set_ptr, snapshot] : saved_touched)
    *set_ptr = std::move(snapshot);
  return status;
}

std::vector<std::pair<data::ItemId, double>> GroupSaModel::RecommendForGroup(
    data::GroupId group, int k, const data::InteractionMatrix* exclude) {
  return inference_->RecommendForGroup(group, k, exclude);
}

std::vector<std::pair<data::ItemId, double>> GroupSaModel::RecommendForUser(
    data::UserId user, int k, const data::InteractionMatrix* exclude) {
  return inference_->RecommendForUser(user, k, exclude);
}

}  // namespace groupsa::core
