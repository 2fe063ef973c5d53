#ifndef GROUPSA_CORE_USER_MODELING_H_
#define GROUPSA_CORE_USER_MODELING_H_

#include <memory>
#include <span>

#include "core/config.h"
#include "data/types.h"
#include "nn/attention_pool.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace groupsa::core {

// User modeling component (Sec. II-D): learns the final user latent factor
// h_j by attention-aggregating the item-space latent factors of the user's
// TF-IDF Top-H items (Eq. 11-14) and the social-space latent factors of her
// Top-H friends (Eq. 15-18), then fusing both with an MLP (Eq. 19).
//
// Depending on config.tie_latent_spaces the component either owns separate
// x^V / x^S tables (the paper's literal reading) or backs them with the
// model's shared embedding tables; the shared user embedding emb^U guides
// the attention in both cases.
class UserModeling : public nn::Module {
 public:
  // `shared_user` / `shared_item` are the model's embedding tables; they
  // back x^S / x^V when config.tie_latent_spaces is set (pass non-null in
  // that case) and are otherwise unused.
  UserModeling(const GroupSaConfig& config, int num_users, int num_items,
               Rng* rng, nn::Embedding* shared_user = nullptr,
               nn::Embedding* shared_item = nullptr);

  // Builds h_j for `user`. `user_embedding` is the 1 x d shared embedding
  // emb_j^U (attention guide); `top_items` / `top_friends` are the
  // pre-computed TF-IDF Top-H lists (either may be empty, in which case the
  // corresponding side contributes a zero vector). Returns a 1 x d tensor.
  ag::TensorPtr BuildUserLatent(ag::Tape* tape,
                                const ag::TensorPtr& user_embedding,
                                std::span<const data::ItemId> top_items,
                                std::span<const data::UserId> top_friends,
                                bool training, Rng* rng);

  // Item-space latent factor lookup x_h^V (used as the item side of the
  // blended prediction r^R2, Eq. 23).
  ag::TensorPtr ItemLatent(ag::Tape* tape, data::ItemId item);

  const GroupSaConfig& config() const { return config_; }
  // False for Group-I, whose blended score uses the shared item embedding
  // in place of x^V.
  bool has_item_space() const { return item_space_ != nullptr; }
  // The x^V table (null for Group-I); the inference engine gathers candidate
  // latents from it in bulk.
  const nn::Embedding* item_space() const { return item_space_; }

 private:
  GroupSaConfig config_;
  std::unique_ptr<nn::Embedding> owned_item_space_;
  std::unique_ptr<nn::Embedding> owned_social_space_;
  nn::Embedding* item_space_ = nullptr;    // x^V, items x d
  nn::Embedding* social_space_ = nullptr;  // x^S, users x d
  std::unique_ptr<nn::AttentionPool> item_pool_;
  std::unique_ptr<nn::AttentionPool> social_pool_;
  std::unique_ptr<nn::Linear> item_proj_;    // outer sigma(W . + b), Eq. 11
  std::unique_ptr<nn::Linear> social_proj_;  // Eq. 15
  std::unique_ptr<nn::Mlp> fusion_;          // Eq. 19
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_USER_MODELING_H_
