#ifndef GROUPSA_CORE_GROUPSA_MODEL_H_
#define GROUPSA_CORE_GROUPSA_MODEL_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/predictor.h"
#include "core/user_modeling.h"
#include "core/voting_scheme.h"
#include "data/group_table.h"
#include "data/id_lists.h"
#include "data/social_graph.h"
#include "nn/embedding.h"

namespace groupsa::core {

class InferenceEngine;

// Dataset-derived context the model needs at forward time: group membership,
// social connectivity for the voting mask, and the TF-IDF Top-H
// neighbourhoods for user modeling. The pointed-to structures must outlive
// the model.
struct ModelData {
  const data::GroupTable* groups = nullptr;
  const data::SocialGraph* social = nullptr;
  data::IdLists top_items;    // one row per user
  data::IdLists top_friends;  // one row per user
};

// The GroupSA network (Fig. 1): shared user/item embeddings, the user
// modeling component, the voting scheme, and the two ranking predictors.
// Every ablation variant of the paper is a GroupSaConfig away.
class GroupSaModel : public nn::Module {
 public:
  GroupSaModel(const GroupSaConfig& config, int num_users, int num_items,
               ModelData data, Rng* rng);
  ~GroupSaModel();

  const GroupSaConfig& config() const { return config_; }
  int num_users() const { return user_emb_->count(); }
  int num_items() const { return item_emb_->count(); }
  // Groups in the model's group table (0 without one).
  int num_groups() const {
    return data_.groups == nullptr ? 0 : data_.groups->num_groups();
  }

  // ---------------- Training-time graph builders ----------------

  // Per-user forward state shared across the positive and negative items of
  // one training triple.
  struct UserForward {
    data::UserId user = 0;
    ag::TensorPtr embedding;  // emb_j^U, 1 x d
    ag::TensorPtr latent;     // h_j (Eq. 19); null when user modeling is off
  };
  UserForward BuildUserForward(ag::Tape* tape, data::UserId user,
                               bool training, Rng* rng);

  // Blended user-item ranking score r^R (Eq. 22-23).
  ag::TensorPtr ScoreUserItem(ag::Tape* tape, const UserForward& user,
                              data::ItemId item, bool training, Rng* rng);

  // Per-group forward state (voting rounds are item-independent and shared
  // across the candidate items of one triple / ranking case).
  struct GroupForward {
    std::vector<data::UserId> members;
    VotingScheme::MemberReps reps;
  };
  GroupForward BuildGroupForward(ag::Tape* tape, data::GroupId group,
                                 bool training, Rng* rng);
  // Ad-hoc (cold) groups given directly by member list — the OGR setting.
  GroupForward BuildGroupForwardFromMembers(
      ag::Tape* tape, const std::vector<data::UserId>& members, bool training,
      Rng* rng);

  // Group-item ranking score r^G (Eq. 20) plus the member attention weights
  // gamma (Eq. 10) for introspection.
  struct GroupItemScore {
    ag::TensorPtr score;            // 1 x 1
    tensor::Matrix member_weights;  // 1 x l
  };
  GroupItemScore ScoreGroupItem(ag::Tape* tape, const GroupForward& group,
                                data::ItemId item, bool training, Rng* rng);

  // ---------------- Inference (no-tape) scoring ----------------

  // Per-item reference implementations (one tape-free autograd forward per
  // candidate). The batched scores of inference() are bit-identical to
  // these; they stay as the parity oracle and as the direct analogue of the
  // training graph. O(items) scalar forwards — use inference() for anything
  // catalog-sized.
  std::vector<double> ScoreItemsForUserPerItem(
      data::UserId user, const std::vector<data::ItemId>& items);
  std::vector<double> ScoreItemsForGroupPerItem(
      data::GroupId group, const std::vector<data::ItemId>& items);
  std::vector<double> ScoreItemsForMembersPerItem(
      const std::vector<data::UserId>& members,
      const std::vector<data::ItemId>& items);

  // Detailed single-pair scoring for the Table IV case study.
  GroupItemScore ScoreGroupItemDetailed(data::GroupId group,
                                        data::ItemId item);

  // ---------------- Static validation ----------------

  // Builds a representative combined user+group training graph on a probe
  // tape with structure recording forced on and runs the graph validator
  // (analysis/graph_lint.h) over it: every op must pass shape inference, no
  // tensor may be written twice, no parameter may be overwritten, and every
  // registered parameter must be reachable backward from the loss — i.e. the
  // wiring the optimizer assumes actually exists. Returns Ok on a
  // well-formed graph, otherwise an error with op-by-op diagnostics. Cheap
  // (one tiny forward pass, no backward); never mutates parameters, their
  // gradients or RNG state reachable from training.
  Status ValidateGraph();

  nn::Embedding& user_embedding() { return *user_emb_; }
  nn::Embedding& item_embedding() { return *item_emb_; }
  const ModelData& model_data() const { return data_; }

  // The batched scorers and top-K (see inference_engine.h): one cached
  // representation per entity, one GEMM pass over all candidates. Owned by
  // the model so every consumer shares one representation cache.
  InferenceEngine& inference() { return *inference_; }

  // ---------------- Component access (inference engine) ----------------
  const VotingScheme& voting() const { return *voting_; }
  // Null when user modeling is disabled.
  const UserModeling* user_modeling() const { return user_modeling_.get(); }
  // Tower scoring r^R1 (Eq. 22).
  const RankPredictor& user_tower() const { return *user_predictor_; }
  // Tower scoring r^R2 (Eq. 23): the dedicated tower when configured,
  // otherwise shared with r^R1.
  const RankPredictor& latent_tower() const {
    return latent_predictor_ != nullptr ? *latent_predictor_
                                        : *user_predictor_;
  }
  // Tower scoring r^G (Eq. 20): shared with r^R1 unless share_predictors is
  // off.
  const RankPredictor& group_tower() const {
    return config_.share_predictors ? *user_predictor_ : *group_predictor_;
  }

 private:
  GroupSaConfig config_;
  ModelData data_;
  std::unique_ptr<nn::Embedding> user_emb_;
  std::unique_ptr<nn::Embedding> item_emb_;
  std::unique_ptr<UserModeling> user_modeling_;  // null when disabled
  std::unique_ptr<VotingScheme> voting_;
  std::unique_ptr<RankPredictor> user_predictor_;
  std::unique_ptr<RankPredictor> latent_predictor_;  // r^R2 tower (config)
  std::unique_ptr<RankPredictor> group_predictor_;
  std::unique_ptr<InferenceEngine> inference_;
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_GROUPSA_MODEL_H_
