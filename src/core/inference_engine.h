#ifndef GROUPSA_CORE_INFERENCE_ENGINE_H_
#define GROUPSA_CORE_INFERENCE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/debug_mutex.h"
#include "common/status.h"
#include "core/groupsa_model.h"
#include "core/item_index.h"
#include "core/quantized.h"

namespace groupsa::core {

// What a request scores items for. kUser, kGroup and kMembers are the
// engine's own RecommendFor{User,Group,Members}: a user rep, or the voting
// stack over a stored group's or an ad-hoc list's members. kMemberAverage
// is the Sec. II-F fast path (FastGroupRecommender): the mean of the
// members' user scores.
enum class QueryKind { kUser, kGroup, kMembers, kMemberAverage };

// Batched, tape-free serving path for GroupSA (the production answer to the
// paper's Sec. II-F speed concern).
//
// The per-item scoring path builds a fresh 1 x d forward — attention pool,
// projection, predictor tower — per candidate item, allocating a dozen tiny
// autograd nodes each time. At catalog scale that is O(items) scalar
// forwards for work that is really a handful of matrix products: the
// enhanced user/group representation is item-independent, and everything
// downstream of it is row-wise in the candidate item. This engine
//
//  1. computes the expensive item-independent representations once per
//     entity — the user-modeling latent h_j (item-space + social-space
//     aggregation, Eq. 11-19) and the voting-stack member representations
//     x_{t,i}^U (Eq. 1-6) — and caches them across requests, and
//  2. scores all candidate items in one batched pass over pure
//     tensor::Matrix buffers: gather the item-embedding rows, run the
//     item-guided attention + predictor MLP towers over the whole
//     (num_items x d) batch via tensor::Gemm, and apply the Eq. 23 blend
//     row-wise.
//
// Bit-exactness contract: batched scores are BIT-IDENTICAL (0 ULP) to the
// per-item path (GroupSaModel::Score*PerItem) at any thread count. This
// holds because tensor::Gemm produces each output row with the same
// inner-loop order as a 1 x d product, and every batched input row here is
// constructed to equal, float for float, the row the per-item path feeds its
// ops (same concat order, same bias/activation/softmax/blend per-row math).
// The per-item autograd path remains the training path and the parity
// oracle; tests/core/inference_engine_test.cc enforces the contract.
//
// Cache lifetime: every cached representation is stamped with the model's
// parameter version — the sum of ag::Tensor::value_version() over all
// parameters, which advances on any mutable value access (optimizer steps,
// checkpoint restore, SetTable, re-initialization). Each public call
// revalidates the stamp and drops every cached entry on mismatch, so a
// stale representation can never survive a parameter update. No explicit
// hook is needed at optimizer call sites, but InvalidateAll() is available
// for callers that want eager reclamation (e.g. at epoch boundaries).
//
// Thread-safety: all public methods may be called concurrently (the
// evaluator fans ranking cases across the thread pool). Cache reads take a
// shared lock; representation building and batched scoring run outside any
// lock. Concurrent calls must not race with training steps — score either
// before or after an optimizer Step(), not during.
class InferenceEngine {
 public:
  using Ranking = std::vector<std::pair<data::ItemId, double>>;

  // `model` must outlive the engine.
  explicit InferenceEngine(GroupSaModel* model);

  // Batched scorers; same semantics (and bits) as the per-item
  // GroupSaModel::Score*PerItem reference implementations.
  std::vector<double> ScoreItemsForUser(data::UserId user,
                                        const std::vector<data::ItemId>& items);
  std::vector<double> ScoreItemsForGroup(
      data::GroupId group, const std::vector<data::ItemId>& items);
  std::vector<double> ScoreItemsForMembers(
      const std::vector<data::UserId>& members,
      const std::vector<data::ItemId>& items);
  std::vector<std::vector<double>> MemberItemScores(
      const std::vector<data::UserId>& members,
      const std::vector<data::ItemId>& items);

  // Full-catalog Top-K (items observed in `exclude` are skipped when it is
  // non-null). For RecommendForMembers the exclude matrix is user-row: an
  // item is skipped when ANY member has observed it. Each call is one run
  // of the retrieval pipeline (see Retrieve below) under the engine's modes.
  Ranking RecommendForUser(data::UserId user, int k,
                           const data::InteractionMatrix* exclude);
  Ranking RecommendForGroup(data::GroupId group, int k,
                            const data::InteractionMatrix* exclude);
  Ranking RecommendForMembers(const std::vector<data::UserId>& members, int k,
                              const data::InteractionMatrix* exclude);

  // The one validation boundary. The scorers and Recommend* entry points
  // above are the trusted hot path (ids from the evaluator and trainer) and
  // CHECK-abort on bad input; serving front ends call this first. `ids`
  // holds the one user or group id for kUser / kGroup and the member list
  // for kMembers / kMemberAverage. Out-of-range ids, an empty member list
  // and a non-positive k come back as a descriptive error, leaving the
  // process and caches intact.
  Status ValidateRequest(QueryKind kind, const std::vector<int32_t>& ids,
                         int k) const;

  // ---------------- Sublinear retrieval (TopKMode::kIvf) -----------------
  // Opt-in IVF candidate generation for the Recommend* entry points: probe
  // the item index's best-scoring inverted lists and re-rank the candidate
  // union EXACTLY through the batched scorer. Scorers (ScoreItemsFor*) are
  // unaffected — the mode only changes which items the top-K considers.
  //
  // Probe selection is model-agnostic: the engine scores each list's
  // pseudo-item — the per-list mean rows of the live item tables — through
  // the very towers that score real items, and probes the lists whose
  // pseudo-items score highest. With nprobe >= nlist every list is probed,
  // the candidate set is the whole catalog, and (because per-row score bits
  // are independent of batch composition and TopKItems is a strict total
  // order) the result is bit-identical to kExact.
  //
  // The index and its centroid tables are cached like every other derived
  // representation: keyed on the parameter version, dropped by Revalidate on
  // any parameter update and lazily rebuilt on the next IVF query. Call
  // GetOrBuildIndex() eagerly (the serve daemon does, while constructing a
  // generation off the serving path) to keep the build cost off requests.
  // Setters are setup-time calls: they must not race with in-flight scoring.
  void set_topk_mode(TopKMode mode);
  TopKMode topk_mode() const;
  // Replaces the index build/query knobs and drops any built index.
  void set_index_config(const ItemIndexConfig& config);
  ItemIndexConfig index_config() const;
  // The current-parameter-version index, built on first use. The pointer
  // stays valid across invalidation (shared ownership); it just stops being
  // the engine's current index.
  std::shared_ptr<const ItemIndex> GetOrBuildIndex();

  // ---------------- Quantized serving (ScoreMode::kInt8) -----------------
  // Opt-in int8 candidate scan for the Recommend* entry points. Under kInt8
  // the engine caches per-entity representations ROW-QUANTIZED (d + 4 bytes
  // per d-column row instead of 4d — the serving-memory win), scans the
  // catalog (or, composing with TopKMode::kIvf, the IVF candidate union)
  // with an int8 x int8 -> int32 dot against the quantized item tables, and
  // re-ranks the best Int8Config::rerank_k survivors through the exact FP32
  // towers. Returned scores therefore always carry exact-path bits for the
  // dequantized cached representation; only WHICH items reach the final
  // re-rank is approximate.
  //
  // The scan direction is a first-order linearization of the predictor
  // tower: the gradient of the tower output with respect to its item-side
  // input, taken at the catalog-mean reference item with the activation
  // (ReLU) masks frozen there. That gradient is a per-request 1 x d vector;
  // quantizing it per request is O(d) while the big item-side tables are
  // quantized once per parameter version in GetQuantState().
  //
  // Ad-hoc member lists (RecommendForMembers) have no cache key, so their
  // voting-stack representation is built in FP32 per request as in exact
  // mode; the int8 scan still replaces the full-catalog FP32 pass.
  // Setters are setup-time calls: they must not race with in-flight scoring.
  void set_score_mode(ScoreMode mode);
  ScoreMode score_mode() const;
  void set_int8_config(const Int8Config& config);
  Int8Config int8_config() const;

  // Quantized item-side tables plus the reference rows the linearization is
  // taken at; cached per parameter version exactly like the IVF state. Call
  // eagerly (the serve daemon does, while constructing a generation) to keep
  // the table quantization off the request path.
  struct QuantState {
    QuantizedRows items;       // item-embedding table, row-quantized
    QuantizedRows latents;     // user-modeling item-space table, or empty
    tensor::Matrix ref_item;   // 1 x d catalog mean of the item table
    tensor::Matrix ref_latent;  // 1 x d mean of the latent table (or ref_item)
    size_t MemoryBytes() const {
      return items.MemoryBytes() + latents.MemoryBytes();
    }
  };
  std::shared_ptr<const QuantState> GetQuantState();

  // Drops every cached representation immediately. Never required for
  // correctness (version stamping already fences parameter updates); useful
  // to reclaim memory at epoch boundaries.
  void InvalidateAll();

  // Current parameter version (sum of per-parameter value versions).
  uint64_t params_version() const;

  // Cache introspection (tests, ops counters): entries per entity kind at
  // each precision.
  size_t cached_users() const;
  size_t cached_groups() const;
  size_t cached_quant_users() const;
  size_t cached_quant_groups() const;
  // Payload bytes behind the int8 memory gate: QuantUserCacheBytes is the
  // quantized user reps as stored; Fp32UserCacheBytes is the FP32 cost of
  // every cached user — the FP32 entries plus 4 bytes per element for every
  // quantized entry (which int8 mode keeps instead of an FP32 one; that
  // avoidance is the memory win the ratio measures).
  size_t QuantUserCacheBytes() const;
  size_t Fp32UserCacheBytes() const;

 private:
  // The Sec. II-F recommender runs its member-average queries through the
  // same pipeline under its own modes.
  friend class FastGroupRecommender;

  using SkipFn = std::function<bool(data::ItemId)>;

  // Item-independent per-user state: emb_j^U and (when user modeling is on)
  // the latent h_j. `latent` is empty when the blend is inactive. (A group's
  // or member list's state is the voting-stack output x_{t,i}^U, l x d.)
  struct UserRep {
    tensor::Matrix embedding;  // 1 x d
    tensor::Matrix latent;     // 1 x d, or empty
  };

  // Per-parameter-version derived weights. Every concat-input linear in the
  // model sees rows of the form [left (+) right]; splitting its weight matrix
  // at the concat boundary lets the engine seed each output row with the
  // partial sum over one half and let tensor::Gemm(accumulate=true) continue
  // the SAME k-ascending accumulation over the other half — the per-element
  // float chain is unchanged, so this is a 0-ULP-preserving rewrite. For the
  // attention score layer the left half is the item embedding, so its partial
  // sums (`attn_item_prefix`, one row per catalog item) are item-only and are
  // cached across every group and request at a given parameter version.
  struct SplitWeights {
    tensor::Matrix attn_w_top, attn_w_bot;  // group_pool score_hidden halves
    tensor::Matrix attn_item_prefix;        // num_items x attention_hidden
    tensor::Matrix user_w_top, user_w_bot;  // user tower layer-0 halves
    tensor::Matrix latent_w_top, latent_w_bot;  // latent tower layer-0 halves
    tensor::Matrix group_w_top, group_w_bot;  // group tower layer-0 halves
  };
  SplitWeights BuildSplitWeights() const;
  // Returns the current-version split weights, building them on first use
  // after an invalidation (shared across threads; first build wins).
  std::shared_ptr<const SplitWeights> GetSplitWeights();

  // The item-side rows a query scores: the catalog's live tables, or the
  // IVF index's per-list pseudo-items — same code, same bits. `latents` may
  // be null (latent concat rows fall back to `items`, the Group-I
  // behaviour); `attn_prefix` holds Gemm(*items, attn_w_top).
  struct ItemTables {
    const tensor::Matrix* items = nullptr;
    const tensor::Matrix* latents = nullptr;
    const tensor::Matrix* attn_prefix = nullptr;
  };
  ItemTables CatalogTables(const SplitWeights& sw) const;

  // ---------------- The retrieval pipeline --------------------------------
  // A plan is read once per request from the mode setters: the engine's
  // own for Recommend*, FastGroupRecommender's for the member average. Its
  // stages: candidates (the catalog, or an IVF probe over the centroid
  // tables) -> an optional int8 shortlist of max(k, rerank_k) -> an exact
  // re-rank -> TopKItems. The score mode is also the precision the query's
  // cached reps are read at.
  struct Plan {
    TopKMode topk = TopKMode::kExact;
    ScoreMode score = ScoreMode::kExact;
    int rerank_k = 0;
  };
  Plan EnginePlan() const;

  // A query scores a batch of rows from an item-side table. kUser holds
  // one user rep and kMemberAverage one per member (their scores are
  // averaged by MemberMean in every stage); kGroup / kMembers hold the
  // voting-stack rep.
  struct Query {
    QueryKind kind = QueryKind::kUser;
    std::vector<UserRep> users;
    tensor::Matrix voting;  // l x d
  };
  // Reps read at `precision` (cached ones dequantized under kInt8); an
  // ad-hoc member list's voting rep is built in FP32 per request.
  Query BuildQuery(QueryKind kind, const std::vector<int32_t>& ids,
                   ScoreMode precision);

  // Query -> ranking under `plan`. Returned scores are exact re-rank bits.
  Ranking Retrieve(const Query& query, const Plan& plan, int k,
                   const SkipFn& skip);
  // Retrieve for `kind` over `ids`, skipping items any of `ids` has seen in
  // `exclude` (the user row, the group row, or every member's user row).
  Ranking Recommend(QueryKind kind, const std::vector<int32_t>& ids, int k,
                    const data::InteractionMatrix* exclude, const Plan& plan);
  // Exact catalog scores of `items` for `kind` over `ids` (FP32 reps).
  std::vector<double> Score(QueryKind kind, const std::vector<int32_t>& ids,
                            const std::vector<data::ItemId>& items);
  // Exact tower scores of rows `rows` of `tables` for `query`: the IVF
  // coarse stage (centroid tables) and the re-rank (catalog tables).
  std::vector<double> ScoreRows(const Query& query,
                                const std::vector<data::ItemId>& rows,
                                const SplitWeights& sw,
                                const ItemTables& tables) const;
  // One stage's scores for `query`: `user` scores a user rep, `voting` a
  // voting-stack rep, and kMemberAverage takes the MemberMean of `user`.
  template <typename UserFn, typename VotingFn>
  static std::vector<double> ScoreQuery(const Query& query, size_t rows,
                                        const UserFn& user,
                                        const VotingFn& voting);

  // ---------------- Representations and their cache ----------------------
  // Cached lookup at `precision`, building (and inserting) on miss; kUser
  // and kGroup ids only. A rep is a stack of d-column rows: a user's
  // [emb_j^U; h_j] (one row without a latent), a group's x_{t,i}^U.
  tensor::Matrix GetRep(QueryKind kind, int32_t id, ScoreMode precision);
  // Tape-free rep construction (no cache).
  tensor::Matrix BuildUserRows(data::UserId user) const;
  tensor::Matrix BuildVotingRep(const std::vector<data::UserId>& members) const;
  static UserRep SplitUserRows(const tensor::Matrix& rows);

  // The one rep cache, keyed by (entity kind, id, precision). An entry
  // holds its rows at the key's precision only: FP32 for ScoreMode::kExact,
  // row-quantized for kInt8 (where no FP32 copy is kept — the memory win).
  using CachedRep = std::variant<tensor::Matrix, QuantizedRows>;
  // Entries of one (entity kind, precision).
  size_t CountCached(QueryKind kind, ScoreMode precision) const;

  // Exact batched tower scores of rows `items` of `tables` (`reps` is a
  // voting-stack rep, l x d).
  std::vector<double> ScoreBatchUser(const UserRep& rep,
                                     const std::vector<data::ItemId>& items,
                                     const SplitWeights& sw,
                                     const ItemTables& tables) const;
  std::vector<double> ScoreBatchGroup(const tensor::Matrix& reps,
                                      const std::vector<data::ItemId>& items,
                                      const SplitWeights& sw,
                                      const ItemTables& tables) const;

  // The item-space latent table when user modeling carries one, else null
  // (shared by the catalog scoring paths and the IVF state build).
  const tensor::Matrix* ModelLatentTable() const;

  // Index plus the derived centroid scoring tables, cached per parameter
  // version exactly like SplitWeights.
  struct IvfState {
    ItemIndex index;
    tensor::Matrix centroid_table;    // ListMeans over the item embeddings
    tensor::Matrix centroid_prefix;   // Gemm(centroid_table, attn_w_top)
    tensor::Matrix centroid_latents;  // ListMeans over item_space, or empty
    ItemTables Tables() const {
      return {&centroid_table,
              centroid_latents.empty() ? nullptr : &centroid_latents,
              &centroid_prefix};
    }
  };
  IvfState BuildIvfState(const ItemIndexConfig& config,
                         const SplitWeights& sw) const;
  // Returns the current-version state, building on first use after an
  // invalidation (shared across threads; first build wins).
  std::shared_ptr<const IvfState> GetIvfState();

  // ---------------- int8 internals (ScoreMode::kInt8) --------------------
  QuantState BuildQuantState() const;

  // Gradient of the MLP output (1 x 1) with respect to its input row, taken
  // at x0 with every activation derivative evaluated there (the frozen-mask
  // linearization). Returns 1 x in_dim.
  static tensor::Matrix TowerInputGradient(const nn::Mlp& mlp,
                                           const tensor::Matrix& x0);

  // int8 scan scores of `items` (ids into the quantized tables) for a
  // prebuilt FP32 representation; ranking-only values (offsets dropped).
  std::vector<double> ScanUser(const UserRep& rep, const QuantState& qs,
                               const std::vector<data::ItemId>& items) const;
  std::vector<double> ScanVoting(const tensor::Matrix& reps,
                                 const QuantState& qs,
                                 const std::vector<data::ItemId>& items) const;

  // Drops all caches when the parameter version moved; returns the current
  // version.
  uint64_t Revalidate();

  GroupSaModel* const model_;
  // Flattened parameter tensors, captured once (parameter identity is fixed
  // after model construction; only values change).
  std::vector<ag::TensorPtr> params_ GROUPSA_NOT_GUARDED(
      "immutable after ctor");

  mutable DebugSharedMutex mu_{"core.engine_cache"};
  uint64_t cache_version_ GROUPSA_GUARDED_BY(mu_) = 0;
  // reset on version change
  std::unordered_map<uint64_t, CachedRep> rep_cache_ GROUPSA_GUARDED_BY(mu_);
  // reset on version change
  std::shared_ptr<const SplitWeights> split_ GROUPSA_GUARDED_BY(mu_);
  TopKMode topk_mode_ GROUPSA_GUARDED_BY(mu_) = TopKMode::kExact;
  ItemIndexConfig index_config_ GROUPSA_GUARDED_BY(mu_);
  // reset on version change
  std::shared_ptr<const IvfState> ivf_ GROUPSA_GUARDED_BY(mu_);
  ScoreMode score_mode_ GROUPSA_GUARDED_BY(mu_) = ScoreMode::kExact;
  Int8Config int8_config_ GROUPSA_GUARDED_BY(mu_);
  // reset on version change
  std::shared_ptr<const QuantState> quant_ GROUPSA_GUARDED_BY(mu_);
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_INFERENCE_ENGINE_H_
