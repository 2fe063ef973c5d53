#include "core/user_modeling.h"

#include <vector>

#include "autograd/ops.h"

namespace groupsa::core {

UserModeling::UserModeling(const GroupSaConfig& config, int num_users,
                           int num_items, Rng* rng,
                           nn::Embedding* shared_user,
                           nn::Embedding* shared_item)
    : config_(config) {
  const int d = config.embedding_dim;
  GROUPSA_CHECK(config.user_modeling_enabled(),
                "UserModeling constructed with both aggregations disabled");
  if (config.tie_latent_spaces) {
    GROUPSA_CHECK(shared_user != nullptr && shared_item != nullptr,
                  "tie_latent_spaces requires the shared embedding tables");
  }
  if (config.use_item_aggregation) {
    if (config.tie_latent_spaces) {
      item_space_ = shared_item;
    } else {
      owned_item_space_ =
          std::make_unique<nn::Embedding>("item_space", num_items, d, rng);
      item_space_ = owned_item_space_.get();
      RegisterSubmodule("item_space", owned_item_space_.get());
    }
    item_pool_ = std::make_unique<nn::AttentionPool>(
        "item_pool", d, d, config.attention_hidden, rng);
    item_proj_ = std::make_unique<nn::Linear>("item_proj", d, d, rng);
    RegisterSubmodule("item_pool", item_pool_.get());
    RegisterSubmodule("item_proj", item_proj_.get());
  }
  if (config.use_social_aggregation) {
    if (config.tie_latent_spaces) {
      social_space_ = shared_user;
    } else {
      owned_social_space_ =
          std::make_unique<nn::Embedding>("social_space", num_users, d, rng);
      social_space_ = owned_social_space_.get();
      RegisterSubmodule("social_space", owned_social_space_.get());
    }
    social_pool_ = std::make_unique<nn::AttentionPool>(
        "social_pool", d, d, config.attention_hidden, rng);
    social_proj_ = std::make_unique<nn::Linear>("social_proj", d, d, rng);
    RegisterSubmodule("social_pool", social_pool_.get());
    RegisterSubmodule("social_proj", social_proj_.get());
  }
  // Fusion input: one d-wide slot per enabled aggregation (Eq. 19
  // concatenates h^V and h^S; single-side variants feed that side alone).
  int fusion_in = 0;
  if (config.use_item_aggregation) fusion_in += d;
  if (config.use_social_aggregation) fusion_in += d;
  std::vector<int> dims = {fusion_in};
  for (int h : config.fusion_hidden) dims.push_back(h);
  dims.push_back(d);
  fusion_ = std::make_unique<nn::Mlp>("fusion", dims, rng,
                                      nn::Activation::kRelu,
                                      nn::Activation::kRelu);
  RegisterSubmodule("fusion", fusion_.get());
}

ag::TensorPtr UserModeling::BuildUserLatent(
    ag::Tape* tape, const ag::TensorPtr& user_embedding,
    std::span<const data::ItemId> top_items,
    std::span<const data::UserId> top_friends, bool training, Rng* rng) {
  const int d = config_.embedding_dim;
  std::vector<ag::TensorPtr> sides;

  if (config_.use_item_aggregation) {
    ag::TensorPtr h_item;
    if (!top_items.empty()) {
      std::vector<int> ids(top_items.begin(), top_items.end());
      ag::TensorPtr context = item_space_->Forward(tape, ids);  // H x d
      context = ag::Dropout(tape, context, config_.dropout_ratio, training,
                            rng);
      nn::AttentionPoolOutput pooled =
          item_pool_->Forward(tape, user_embedding, context);
      h_item = ag::Relu(tape, item_proj_->Forward(tape, pooled.pooled));
    } else {
      // No interacted items (cold user): the item side is silent.
      h_item = ag::Constant(tensor::Matrix(1, d));
    }
    sides.push_back(h_item);
  }

  if (config_.use_social_aggregation) {
    ag::TensorPtr h_social;
    if (!top_friends.empty()) {
      std::vector<int> ids(top_friends.begin(), top_friends.end());
      ag::TensorPtr context = social_space_->Forward(tape, ids);  // H x d
      context = ag::Dropout(tape, context, config_.dropout_ratio, training,
                            rng);
      nn::AttentionPoolOutput pooled =
          social_pool_->Forward(tape, user_embedding, context);
      h_social = ag::Relu(tape, social_proj_->Forward(tape, pooled.pooled));
    } else {
      h_social = ag::Constant(tensor::Matrix(1, d));
    }
    sides.push_back(h_social);
  }

  GROUPSA_CHECK(!sides.empty(), "user modeling produced no sides");
  ag::TensorPtr joined =
      sides.size() == 1 ? sides[0] : ag::ConcatCols(tape, sides);
  return fusion_->Forward(tape, joined);
}

ag::TensorPtr UserModeling::ItemLatent(ag::Tape* tape, data::ItemId item) {
  if (item_space_ != nullptr) return item_space_->Lookup(tape, item);
  // Without the item-space table (Group-I) the blended score falls back to
  // the social-only latent paired with a zero item side; callers pass the
  // shared item embedding instead, so this path is unused. Keep it safe:
  return ag::Constant(tensor::Matrix(1, config_.embedding_dim));
}

}  // namespace groupsa::core
