#ifndef GROUPSA_CORE_CONFIG_H_
#define GROUPSA_CORE_CONFIG_H_

#include <string>
#include <vector>

namespace groupsa::core {

// Choice of the f(i,j) closeness function behind the social bias matrix
// (Eq. 5). The paper's experiments use the direct-connection indicator but
// explicitly allow "any real-valued score function (such as PageRank,
// closeness and betweeness)"; the graph-proximity variants unmask member
// pairs whose proximity exceeds `closeness_threshold` (a direct edge always
// unmasks).
enum class SocialCloseness {
  kDirectEdge,
  kCommonNeighbors,  // |N(i) ∩ N(j)| > threshold
  kJaccard,          // Jaccard coefficient > threshold
  kAdamicAdar,       // Adamic-Adar score > threshold
};

// Hyper-parameters and component switches of GroupSA. Defaults follow the
// paper's Sec. III-E (d = 32, dropout 0.1, Adam) with epoch/batch settings
// sized for CPU-scale synthetic data. The boolean switches express the
// paper's ablation variants (Sec. V-A/V-B); presets below configure them.
struct GroupSaConfig {
  std::string variant = "GroupSA";

  // Dimensions (the paper sets d_model = d_k = d_v = 32 everywhere).
  int embedding_dim = 32;
  int attention_hidden = 32;  // hidden width of the vanilla attention nets
  int ffn_hidden = 32;        // FFN width inside the voting blocks
  // Predictor MLP hidden widths (input is 2*embedding_dim).
  std::vector<int> predictor_hidden = {32, 16};
  // Fusion MLP hidden widths for the final user latent factor (Eq. 19).
  std::vector<int> fusion_hidden = {32};

  // Paper hyper-parameters.
  int num_voting_layers = 1;      // N_X (Table VI; 1 for Yelp, 2 for Douban)
  int top_h = 4;                  // H, TF-IDF neighbourhood size (Sec. II-D)
  int num_negatives = 1;          // N, negatives per positive (Table VIII)
  // w^u (Eq. 23, Table VII). The paper's sweep peaks at 0.9 on Yelp; our
  // CPU-scale sweep (bench_table7_wu) peaks at 0.5 with the same interior-
  // optimum shape, so that is the default here.
  float user_score_blend = 0.5f;

  // Optimization.
  float learning_rate = 0.005f;
  float weight_decay = 1e-6f;  // lambda of Eq. 21/24, as coupled L2
  float dropout_ratio = 0.1f;
  int user_epochs = 10;   // stage 1 (L_R)
  int group_epochs = 10;  // stage 2 (L_G)
  int batch_size = 64;
  // Width of the global thread pool (common/thread_pool.h) used by the
  // tensor kernels, the sharded trainer and the evaluator. 0 leaves the
  // pool as-is (GROUPSA_THREADS env or a prior SetGlobalThreads call);
  // values >= 1 resize it when the Trainer is constructed. Results are
  // bit-identical at any width — see the determinism contract in
  // common/thread_pool.h.
  int threads = 0;

  // Component switches (true = paper's full GroupSA).
  bool use_voting_scheme = true;       // stacked self-attention (Sec. II-C)
  bool use_social_mask = true;         // social bias matrix S (Eq. 4-5)
  bool use_item_aggregation = true;    // Eq. 11-14
  bool use_social_aggregation = true;  // Eq. 15-18
  bool use_user_task = true;           // joint training stage 1 (Sec. II-E)
  // Share one prediction tower between Eq. 20 and Eq. 22. The paper writes
  // the two MLPs separately but trains them jointly over shared embeddings;
  // with the group representation living in the user-embedding space
  // (residual voting blocks), sharing the tower is what lets the abundant
  // user-item signal reach the group head through sparse group data. The
  // `bench_ablation_design` bench quantifies this choice.
  bool share_predictors = true;
  // During stage 2, alternate each group-item pass with a user-item pass so
  // the shared embeddings/tower stay anchored to the dense signal while the
  // group head fine-tunes ("joint model optimization ... simultaneously",
  // Sec. II-E). Ignored when use_user_task is false.
  bool interleave_user_in_stage2 = true;
  // Feed the voting scheme enhanced member representations emb_j + h_j
  // instead of the bare embeddings (the paper's footnote 2 names emb^U as
  // the first-layer input). Off by default: empirically the ReLU-shaped h_j
  // pollutes the embedding space the shared tower was trained on and hurts
  // the group head; bench_ablation_design quantifies this.
  bool use_enhanced_member_reps = false;
  // Score the latent channel r^R2 (Eq. 23) with its own tower instead of
  // reusing the Eq. 22 MLP. The paper feeds [h_j (+) x_h^V] into "the same
  // MLP network", but the ReLU-shaped latents live in a different input
  // distribution than the embeddings; one tower serving both degrades its
  // response on the embedding manifold that the (shared) group head relies
  // on. bench_ablation_design quantifies this.
  bool separate_latent_tower = true;
  // Stop the gradient flowing from the user-modeling attention guides back
  // into the shared user embedding. The embedding serves two roles — tower
  // input (Eq. 20/22) and attention query (Eq. 13/17) — and at small scale
  // the query role visibly degrades the tower role, which the (shared)
  // group head depends on. Detaching keeps the paper's forward pass
  // unchanged while decoupling the roles during training.
  bool detach_attention_guides = true;
  // Also train the group head on user-item interactions by treating each
  // user as a one-member group (AGREE trains exactly this way). The
  // singleton pass drives the dense user-item signal through the voting
  // blocks, the group attention and the prediction tower, which the sparse
  // group-item data alone cannot train well.
  bool train_group_head_on_singletons = true;
  // Use the shared user/item embedding tables as the social-space and
  // item-space latent factors (x^S := emb^U, x^V := emb^V) instead of
  // learning two separate cold tables. The paper introduces x^S/x^V as
  // their own latent spaces, but at small scale separate tables never
  // mature; tying them routes the dense user-item signal through the
  // aggregation networks (and is how the social graph actually helps).
  bool tie_latent_spaces = true;
  // Add a user-user BPR term to stage 1: for each social edge (u, v),
  // sigmoid(emb_u . emb_v) is pushed above sampled non-neighbors. Sec. II-E
  // says stage 1 learns the embeddings "by utilizing the user-item and
  // user-user interaction data"; this is the user-user part, and it is what
  // makes the homophilous social structure reach the embeddings directly.
  bool use_social_objective = true;
  // f(i,j) for the Eq. 5 mask; see SocialCloseness above.
  SocialCloseness social_closeness = SocialCloseness::kDirectEdge;
  double closeness_threshold = 0.0;

  bool user_modeling_enabled() const {
    return use_item_aggregation || use_social_aggregation;
  }
  // Effective w^u: without user modeling the blended latent-factor score
  // r^R2 does not exist, so Eq. 23 degenerates to r^R1.
  float effective_user_blend() const {
    return user_modeling_enabled() ? user_score_blend : 0.0f;
  }

  // Paper variants.
  static GroupSaConfig Default();
  // Group-A: no voting scheme, no user modeling; vanilla attention only.
  static GroupSaConfig GroupA();
  // Group-S: no (social) self-attention network; vanilla attention
  // aggregation over user-modeling-enhanced embeddings.
  static GroupSaConfig GroupS();
  // Group-I: no item aggregation.
  static GroupSaConfig GroupI();
  // Group-F: no social aggregation.
  static GroupSaConfig GroupF();
  // Group-G: no user-item task; group-item interactions only.
  static GroupSaConfig GroupG();
  // Extension ablation (not in the paper's table): self-attention without
  // the social mask, isolating the contribution of Eq. 4-5.
  static GroupSaConfig NoSocialMask();
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_CONFIG_H_
