#include "core/inference_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <variant>

#include "common/string_util.h"
#include "core/topk.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace groupsa::core {
namespace {

using tensor::Matrix;

// Every helper below replays, float for float, the op sequence the per-item
// autograd path runs at inference (tape == nullptr). tensor::Gemm computes
// each output row with the same inner-loop order at any batch height and any
// thread count, so feeding it input rows that are byte-identical to the
// per-item rows yields byte-identical output rows — the engine's 0-ULP
// contract reduces to constructing the right input rows (or, for the split
// paths, the right partial sums: seeding an output row with the accumulation
// over the first k weight rows and continuing over the rest reproduces the
// full-width k-ascending chain exactly).

// Same stable formulation as ag::Sigmoid.
float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

// Element-wise identical to nn::Activate on the matching ag op.
void ActivateInPlace(Matrix* x, nn::Activation act) {
  switch (act) {
    case nn::Activation::kNone:
      return;
    case nn::Activation::kRelu:
      for (int i = 0; i < x->size(); ++i)
        x->data()[i] = std::max(0.0f, x->data()[i]);
      return;
    case nn::Activation::kSigmoid:
      for (int i = 0; i < x->size(); ++i)
        x->data()[i] = StableSigmoid(x->data()[i]);
      return;
    case nn::Activation::kTanh:
      for (int i = 0; i < x->size(); ++i)
        x->data()[i] = std::tanh(x->data()[i]);
      return;
  }
  GROUPSA_CHECK(false, "unknown activation");
}

// Derivative of nn::Activation at a pre-activation value — the frozen-mask
// linearization factor used by TowerInputGradient.
float ActDeriv(nn::Activation act, float pre) {
  switch (act) {
    case nn::Activation::kNone:
      return 1.0f;
    case nn::Activation::kRelu:
      return pre > 0.0f ? 1.0f : 0.0f;
    case nn::Activation::kSigmoid: {
      const float s = StableSigmoid(pre);
      return s * (1.0f - s);
    }
    case nn::Activation::kTanh: {
      const float t = std::tanh(pre);
      return 1.0f - t * t;
    }
  }
  GROUPSA_CHECK(false, "unknown activation");
  return 0.0f;
}

// Column means as a 1 x cols row — the reference pseudo-item the int8 scan
// linearizes the towers at.
Matrix ColMeans(const Matrix& m) {
  Matrix out;
  tensor::SumRowsInto(m, &out);
  if (m.rows() > 0) out.ScaleInPlace(1.0f / static_cast<float>(m.rows()));
  return out;
}

// Resizes without the zero-fill Matrix::Resize performs when the shape
// already matches. Callers overwrite every element they read, so stale
// contents are never observed; skipping the clear keeps reused workspace
// buffers a pure capacity cache.
void EnsureShape(Matrix* m, int rows, int cols) {
  if (m->rows() != rows || m->cols() != cols) m->Resize(rows, cols);
}

// Applies layer-0 bias and activation to `*x` (which holds the layer-0
// pre-activation produced by the split-weight path), then runs the remaining
// layers exactly as nn::Mlp::Forward would, ping-ponging between the two
// buffers. Returns the buffer holding the output.
Matrix* MlpTailInPlace(const nn::Mlp& mlp, Matrix* x, Matrix* tmp) {
  if (mlp.layer(0).bias() != nullptr)
    tensor::AddRowBroadcastInPlace(x, mlp.layer(0).bias()->value());
  for (int i = 0; i < mlp.num_layers(); ++i) {
    if (i > 0) {
      tensor::Gemm(*x, /*transpose_a=*/false, mlp.layer(i).weight()->value(),
                   /*transpose_b=*/false, 1.0f, tmp);
      if (mlp.layer(i).bias() != nullptr)
        tensor::AddRowBroadcastInPlace(tmp, mlp.layer(i).bias()->value());
      std::swap(x, tmp);
    }
    ActivateInPlace(x, i + 1 == mlp.num_layers() ? mlp.output_activation()
                                                 : mlp.hidden_activation());
  }
  return x;
}

// Copies rows [0, split) and [split, rows) of `w` into two dense halves.
// The halves are float-for-float the same weight rows, so running the bottom
// half as a Gemm(accumulate=true) continuation after seeding with the top
// half's partial sums reproduces the full-width accumulation chain exactly.
void SplitRows(const Matrix& w, int split, Matrix* top, Matrix* bot) {
  GROUPSA_CHECK(split > 0 && split < w.rows(),
                "SplitRows: split outside weight rows");
  top->Resize(split, w.cols());
  bot->Resize(w.rows() - split, w.cols());
  for (int r = 0; r < split; ++r) top->SetRow(r, w.RowPtr(r));
  for (int r = split; r < w.rows(); ++r)
    bot->SetRow(r - split, w.RowPtr(r));
}

// Copies item-table rows for a chunk into a reused buffer (GatherRows minus
// the allocation).
void GatherRowsInto(const Matrix& table, const int* ids, int count,
                    Matrix* out) {
  EnsureShape(out, count, table.cols());
  for (int i = 0; i < count; ++i) {
    GROUPSA_CHECK(ids[i] >= 0 && ids[i] < table.rows(),
                  "item id out of range");
    out->SetRow(i, table.RowPtr(ids[i]));
  }
}

// The fused attention-logit kernels live in tensor/backends/kernels.inc and
// are compiled once per ISA; tensor::ActiveBackend().attention_logits picks
// the variant for this machine. Hidden widths up to tensor::kMaxFusedHidden
// take that fused path; wider configs take the buffered Gemm path below.

// Per-chunk row caps keeping intermediate buffers modest at catalog scale;
// chunking is row-wise and therefore invisible to the scores.
constexpr int kMaxPredictorRows = 4096;
constexpr int kMaxAttentionRows = 16384;

// Per-call scratch buffers. Reused across requests on the same thread so the
// steady serving state performs no large allocations (a fresh multi-MB
// buffer per request costs more in page faults than the math it holds).
// Thread-local because scoring entry points run concurrently.
struct Workspace {
  Matrix embs, latents;           // gathered item rows
  Matrix addends;                 // fused path: (l*d) x h member addend rows
  std::vector<int> nz, nz_begin;  // fused path: nonzero (member, k) indices
  Matrix hidden, cont, logits;    // buffered attention fallback
  Matrix weights, pooled, group_rep;
  Matrix t1, t2;                  // group tower ping-pong
  Matrix r1a, r1b, r2a, r2b;      // user tower ping-pong pairs
  Matrix x0;                      // int8 path: linearization point
  std::vector<int8_t> q1, q2;     // int8 path: quantized scan directions
  std::vector<int32_t> i8dots;    // int8 path: raw scan accumulators
};
Workspace& GetWorkspace() {
  static thread_local Workspace ws;
  return ws;
}

// Rep-cache keys: the (entity kind, precision) tag in the high word and the
// id in the low word.
uint64_t RepTag(QueryKind kind, ScoreMode precision) {
  return static_cast<uint64_t>(kind) << 8 | static_cast<uint64_t>(precision);
}
uint64_t RepKey(QueryKind kind, int32_t id, ScoreMode precision) {
  return RepTag(kind, precision) << 32 | static_cast<uint32_t>(id);
}
uint64_t TagOf(uint64_t key) { return key >> 32; }

// The Sec. II-F member average: the members' score vectors summed in member
// order from +0.0, then divided by n. Every stage of a member-average query
// (IVF coarse scoring, int8 scan, exact re-rank) averages through here.
template <typename Rep, typename ScoreFn>
std::vector<double> MemberMean(const std::vector<Rep>& members, size_t rows,
                               const ScoreFn& score) {
  std::vector<double> mean(rows, 0.0);
  for (const Rep& member : members) {
    const std::vector<double> scores = score(member);
    for (size_t i = 0; i < rows; ++i) mean[i] += scores[i];
  }
  for (double& s : mean) s /= static_cast<double>(members.size());
  return mean;
}

}  // namespace

InferenceEngine::InferenceEngine(GroupSaModel* model) : model_(model) {
  GROUPSA_CHECK(model_ != nullptr, "InferenceEngine requires a model");
  for (const nn::ParamEntry& p : model_->Parameters())
    params_.push_back(p.tensor);
  cache_version_ = params_version();
}

uint64_t InferenceEngine::params_version() const {
  uint64_t version = 0;
  for (const ag::TensorPtr& p : params_) version += p->value_version();
  return version;
}

uint64_t InferenceEngine::Revalidate() {
  const uint64_t version = params_version();
  {
    std::shared_lock<DebugSharedMutex> lock(mu_);
    if (cache_version_ == version) return version;
  }
  std::unique_lock<DebugSharedMutex> lock(mu_);
  if (cache_version_ != version) {
    rep_cache_.clear();
    split_.reset();
    ivf_.reset();
    quant_.reset();
    cache_version_ = version;
  }
  return version;
}

void InferenceEngine::InvalidateAll() {
  std::unique_lock<DebugSharedMutex> lock(mu_);
  rep_cache_.clear();
  split_.reset();
  ivf_.reset();
  quant_.reset();
}

void InferenceEngine::set_topk_mode(TopKMode mode) {
  std::unique_lock<DebugSharedMutex> lock(mu_);
  topk_mode_ = mode;
}

TopKMode InferenceEngine::topk_mode() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return topk_mode_;
}

void InferenceEngine::set_index_config(const ItemIndexConfig& config) {
  std::unique_lock<DebugSharedMutex> lock(mu_);
  index_config_ = config;
  ivf_.reset();
}

ItemIndexConfig InferenceEngine::index_config() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return index_config_;
}

void InferenceEngine::set_score_mode(ScoreMode mode) {
  std::unique_lock<DebugSharedMutex> lock(mu_);
  score_mode_ = mode;
}

ScoreMode InferenceEngine::score_mode() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return score_mode_;
}

void InferenceEngine::set_int8_config(const Int8Config& config) {
  GROUPSA_CHECK(config.rerank_k >= 1, "int8 rerank_k must be positive");
  std::unique_lock<DebugSharedMutex> lock(mu_);
  int8_config_ = config;
}

Int8Config InferenceEngine::int8_config() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return int8_config_;
}

InferenceEngine::Plan InferenceEngine::EnginePlan() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  return {topk_mode_, score_mode_, int8_config_.rerank_k};
}

// ---------------- Representations and their cache ------------------------

size_t InferenceEngine::CountCached(QueryKind kind,
                                    ScoreMode precision) const {
  const uint64_t tag = RepTag(kind, precision);
  std::shared_lock<DebugSharedMutex> lock(mu_);
  size_t count = 0;
  for (const auto& entry : rep_cache_) count += TagOf(entry.first) == tag;
  return count;
}

size_t InferenceEngine::cached_users() const {
  return CountCached(QueryKind::kUser, ScoreMode::kExact);
}

size_t InferenceEngine::cached_groups() const {
  return CountCached(QueryKind::kGroup, ScoreMode::kExact);
}

size_t InferenceEngine::cached_quant_users() const {
  return CountCached(QueryKind::kUser, ScoreMode::kInt8);
}

size_t InferenceEngine::cached_quant_groups() const {
  return CountCached(QueryKind::kGroup, ScoreMode::kInt8);
}

size_t InferenceEngine::QuantUserCacheBytes() const {
  const uint64_t tag = RepTag(QueryKind::kUser, ScoreMode::kInt8);
  std::shared_lock<DebugSharedMutex> lock(mu_);
  size_t total = 0;
  for (const auto& [key, rep] : rep_cache_) {
    if (TagOf(key) == tag) total += std::get<QuantizedRows>(rep).MemoryBytes();
  }
  return total;
}

size_t InferenceEngine::Fp32UserCacheBytes() const {
  std::shared_lock<DebugSharedMutex> lock(mu_);
  size_t total = 0;
  for (const auto& [key, rep] : rep_cache_) {
    if (TagOf(key) == RepTag(QueryKind::kUser, ScoreMode::kExact)) {
      total += sizeof(float) *
               static_cast<size_t>(std::get<Matrix>(rep).size());
    } else if (TagOf(key) == RepTag(QueryKind::kUser, ScoreMode::kInt8)) {
      // What the same user would cost had it been cached in FP32.
      total += sizeof(float) * std::get<QuantizedRows>(rep).values.size();
    }
  }
  return total;
}

Matrix InferenceEngine::BuildUserRows(data::UserId user) const {
  GroupSaModel::UserForward fwd = model_->BuildUserForward(
      /*tape=*/nullptr, user, /*training=*/false, /*rng=*/nullptr);
  if (fwd.latent == nullptr) return fwd.embedding->value();
  return tensor::ConcatRows({&fwd.embedding->value(), &fwd.latent->value()});
}

Matrix InferenceEngine::BuildVotingRep(
    const std::vector<data::UserId>& members) const {
  GroupSaModel::GroupForward fwd = model_->BuildGroupForwardFromMembers(
      /*tape=*/nullptr, members, /*training=*/false, /*rng=*/nullptr);
  return fwd.reps.reps->value();
}

InferenceEngine::UserRep InferenceEngine::SplitUserRows(const Matrix& rows) {
  UserRep rep;
  rep.embedding = rows.Row(0);
  if (rows.rows() > 1) rep.latent = rows.Row(1);
  return rep;
}

Matrix InferenceEngine::GetRep(QueryKind kind, int32_t id,
                               ScoreMode precision) {
  Revalidate();
  const uint64_t key = RepKey(kind, id, precision);
  {
    std::shared_lock<DebugSharedMutex> lock(mu_);
    auto it = rep_cache_.find(key);
    if (it != rep_cache_.end()) {
      if (const auto* q = std::get_if<QuantizedRows>(&it->second))
        return q->Dequantize();
      return std::get<Matrix>(it->second);
    }
  }
  Matrix rows = kind == QueryKind::kUser
                    ? BuildUserRows(id)
                    : BuildVotingRep(model_->model_data().groups->Members(id));
  CachedRep entry;
  if (precision == ScoreMode::kInt8) {
    // Only the quantized rows are kept; requests score their round trip.
    QuantizedRows q = QuantizeRows(rows);
    rows = q.Dequantize();
    entry = std::move(q);
  } else {
    entry = rows;
  }
  {
    std::unique_lock<DebugSharedMutex> lock(mu_);
    // Concurrent misses build identical reps (the forward is deterministic
    // and pure); the first insert wins and the rest are dropped.
    rep_cache_.emplace(key, std::move(entry));
  }
  return rows;
}

// ---------------- Per-version derived state --------------------------------

InferenceEngine::SplitWeights InferenceEngine::BuildSplitWeights() const {
  SplitWeights sw;
  const Matrix& item_table = model_->item_embedding().table()->value();
  const int d = item_table.cols();
  SplitRows(model_->voting().group_pool().score_hidden().weight()->value(), d,
            &sw.attn_w_top, &sw.attn_w_bot);
  // Item-side attention partial sums for the whole catalog. The kernel runs
  // the same k-ascending, zero-skipping accumulation over row [emb_t^V] that
  // the per-item path runs over the first d terms of [emb_t^V (+) x^U], so
  // each prefix row equals the per-item partial sum bit for bit. Rebuilt at
  // most once per parameter version and shared by every group.
  tensor::Gemm(item_table, /*transpose_a=*/false, sw.attn_w_top,
               /*transpose_b=*/false, 1.0f, &sw.attn_item_prefix);
  SplitRows(model_->user_tower().tower().layer(0).weight()->value(), d,
            &sw.user_w_top, &sw.user_w_bot);
  SplitRows(model_->latent_tower().tower().layer(0).weight()->value(), d,
            &sw.latent_w_top, &sw.latent_w_bot);
  SplitRows(model_->group_tower().tower().layer(0).weight()->value(), d,
            &sw.group_w_top, &sw.group_w_bot);
  return sw;
}

std::shared_ptr<const InferenceEngine::SplitWeights>
InferenceEngine::GetSplitWeights() {
  {
    std::shared_lock<DebugSharedMutex> lock(mu_);
    if (split_ != nullptr) return split_;
  }
  auto sw = std::make_shared<const SplitWeights>(BuildSplitWeights());
  std::unique_lock<DebugSharedMutex> lock(mu_);
  // Concurrent misses build identical splits; the first insert wins.
  if (split_ == nullptr) split_ = std::move(sw);
  return split_;
}

const tensor::Matrix* InferenceEngine::ModelLatentTable() const {
  const UserModeling* um = model_->user_modeling();
  if (um == nullptr || !um->has_item_space()) return nullptr;
  return &um->item_space()->table()->value();
}

InferenceEngine::ItemTables InferenceEngine::CatalogTables(
    const SplitWeights& sw) const {
  return {&model_->item_embedding().table()->value(), ModelLatentTable(),
          &sw.attn_item_prefix};
}

InferenceEngine::IvfState InferenceEngine::BuildIvfState(
    const ItemIndexConfig& config, const SplitWeights& sw) const {
  IvfState state;
  const Matrix& item_table = model_->item_embedding().table()->value();
  state.index = ItemIndex::Build(item_table, config);
  if (state.index.nlist() == 0) return state;
  // Scoring representatives: the empirical mean of each list's rows in the
  // LIVE tables (not the trained quantizer centroids — those only define the
  // assignment). The coarse stage then scores these pseudo-items through the
  // exact towers, so probe selection follows the model's own scoring
  // surface, attention and all, rather than raw embedding distance.
  state.centroid_table = state.index.ListMeans(item_table);
  tensor::Gemm(state.centroid_table, /*transpose_a=*/false, sw.attn_w_top,
               /*transpose_b=*/false, 1.0f, &state.centroid_prefix);
  const Matrix* latent_table = ModelLatentTable();
  if (latent_table != nullptr)
    state.centroid_latents = state.index.ListMeans(*latent_table);
  return state;
}

std::shared_ptr<const InferenceEngine::IvfState>
InferenceEngine::GetIvfState() {
  Revalidate();
  ItemIndexConfig config;
  {
    std::shared_lock<DebugSharedMutex> lock(mu_);
    if (ivf_ != nullptr) return ivf_;
    config = index_config_;
  }
  auto sw = GetSplitWeights();
  auto state =
      std::make_shared<const IvfState>(BuildIvfState(config, *sw));
  std::unique_lock<DebugSharedMutex> lock(mu_);
  // Concurrent misses build identical states; the first insert wins.
  if (ivf_ == nullptr) ivf_ = std::move(state);
  return ivf_;
}

std::shared_ptr<const ItemIndex> InferenceEngine::GetOrBuildIndex() {
  std::shared_ptr<const IvfState> state = GetIvfState();
  return std::shared_ptr<const ItemIndex>(state, &state->index);
}

InferenceEngine::QuantState InferenceEngine::BuildQuantState() const {
  QuantState qs;
  const Matrix& item_table = model_->item_embedding().table()->value();
  qs.items = QuantizeRows(item_table);
  qs.ref_item = ColMeans(item_table);
  const Matrix* latent_table = ModelLatentTable();
  if (latent_table != nullptr) {
    qs.latents = QuantizeRows(*latent_table);
    qs.ref_latent = ColMeans(*latent_table);
  } else {
    // Latent concat rows fall back to the item embedding (the Group-I
    // behaviour in ScoreBatchUser), so the linearization point does too.
    qs.ref_latent = qs.ref_item;
  }
  return qs;
}

std::shared_ptr<const InferenceEngine::QuantState>
InferenceEngine::GetQuantState() {
  Revalidate();
  {
    std::shared_lock<DebugSharedMutex> lock(mu_);
    if (quant_ != nullptr) return quant_;
  }
  auto state = std::make_shared<const QuantState>(BuildQuantState());
  std::unique_lock<DebugSharedMutex> lock(mu_);
  // Concurrent misses build identical states; the first insert wins.
  if (quant_ == nullptr) quant_ = std::move(state);
  return quant_;
}

// ---------------- The retrieval pipeline ----------------------------------

InferenceEngine::Query InferenceEngine::BuildQuery(
    QueryKind kind, const std::vector<int32_t>& ids, ScoreMode precision) {
  Query query;
  query.kind = kind;
  switch (kind) {
    case QueryKind::kUser:
    case QueryKind::kMemberAverage:
      for (data::UserId user : ids)
        query.users.push_back(
            SplitUserRows(GetRep(QueryKind::kUser, user, precision)));
      break;
    case QueryKind::kGroup:
      query.voting = GetRep(QueryKind::kGroup, ids[0], precision);
      break;
    case QueryKind::kMembers:
      // Ad-hoc member lists have no stable key: the voting-stack rep is
      // built in FP32 per request whatever the precision.
      Revalidate();
      query.voting = BuildVotingRep(ids);
      break;
  }
  return query;
}

template <typename UserFn, typename VotingFn>
std::vector<double> InferenceEngine::ScoreQuery(const Query& query,
                                                size_t rows,
                                                const UserFn& user,
                                                const VotingFn& voting) {
  switch (query.kind) {
    case QueryKind::kUser:
      return user(query.users[0]);
    case QueryKind::kGroup:
    case QueryKind::kMembers:
      return voting(query.voting);
    case QueryKind::kMemberAverage:
      return MemberMean(query.users, rows, user);
  }
  GROUPSA_CHECK(false, "unknown query kind");
  return {};
}

InferenceEngine::Ranking InferenceEngine::Retrieve(const Query& query,
                                                   const Plan& plan, int k,
                                                   const SkipFn& skip) {
  const auto sw = GetSplitWeights();

  // Candidates: the catalog, or the union of the best-scoring IVF lists.
  std::vector<data::ItemId> candidates;
  if (plan.topk == TopKMode::kIvf) {
    const auto ivf = GetIvfState();
    const ItemIndex& index = ivf->index;
    if (index.nlist() == 0) return {};
    const std::vector<double> coarse =
        ScoreRows(query, AllItems(index.nlist()), *sw, ivf->Tables());
    candidates = index.Candidates(index.SelectProbes(coarse, /*nprobe=*/0));
  } else {
    candidates = AllItems(model_->num_items());
  }

  // Optional int8 shortlist: the best max(k, rerank_k) candidates by the
  // int8 scan, skip-filtered here so the re-rank needs no filter.
  const bool shortlisted = plan.score == ScoreMode::kInt8;
  if (shortlisted) {
    const auto qs = GetQuantState();
    const std::vector<double> scan = ScoreQuery(
        query, candidates.size(),
        [&](const UserRep& rep) { return ScanUser(rep, *qs, candidates); },
        [&](const Matrix& reps) { return ScanVoting(reps, *qs, candidates); });
    std::vector<data::ItemId> shortlist;
    for (const auto& entry : TopKItems(candidates, scan,
                                       std::max(k, plan.rerank_k), skip))
      shortlist.push_back(entry.first);
    candidates = std::move(shortlist);
  }

  // Exact re-rank, then the top-K cut.
  const std::vector<double> scores =
      ScoreRows(query, candidates, *sw, CatalogTables(*sw));
  return TopKItems(candidates, scores, k, shortlisted ? nullptr : skip);
}

InferenceEngine::Ranking InferenceEngine::Recommend(
    QueryKind kind, const std::vector<int32_t>& ids, int k,
    const data::InteractionMatrix* exclude, const Plan& plan) {
  SkipFn skip;
  if (exclude != nullptr) {
    skip = [exclude, &ids](data::ItemId item) {
      for (int32_t row : ids)
        if (exclude->Has(row, item)) return true;
      return false;
    };
  }
  return Retrieve(BuildQuery(kind, ids, plan.score), plan, k, skip);
}

std::vector<double> InferenceEngine::ScoreRows(
    const Query& query, const std::vector<data::ItemId>& rows,
    const SplitWeights& sw, const ItemTables& tables) const {
  return ScoreQuery(
      query, rows.size(),
      [&](const UserRep& rep) { return ScoreBatchUser(rep, rows, sw, tables); },
      [&](const Matrix& reps) {
        return ScoreBatchGroup(reps, rows, sw, tables);
      });
}

std::vector<double> InferenceEngine::Score(
    QueryKind kind, const std::vector<int32_t>& ids,
    const std::vector<data::ItemId>& items) {
  const Query query = BuildQuery(kind, ids, ScoreMode::kExact);
  const auto sw = GetSplitWeights();
  return ScoreRows(query, items, *sw, CatalogTables(*sw));
}

// ---------------- Exact batched scoring -----------------------------------

std::vector<double> InferenceEngine::ScoreBatchUser(
    const UserRep& rep, const std::vector<data::ItemId>& items,
    const SplitWeights& sw, const ItemTables& tables) const {
  std::vector<double> scores;
  scores.reserve(items.size());
  if (items.empty()) return scores;
  Workspace& ws = GetWorkspace();

  const Matrix& item_table = *tables.items;
  const float blend = model_->config().effective_user_blend();
  // Mirrors the r1-only early-out of GroupSaModel::ScoreUserItem.
  const bool blended = !rep.latent.empty() && blend > 0.0f;

  // Layer-0 user-side partial sums: the left half of the concat row
  // [emb_j^U (+) emb_t^V] is the same for every candidate, so its partial
  // sum is computed once and seeds every batch row; the item-side weight
  // half then continues the same k-ascending accumulation the per-item
  // full-width kernel runs. Bias and activation land in MlpTailInPlace after
  // the full continuation, matching the MatMul -> AddBias -> activation
  // order of the per-item path.
  Matrix prefix1;
  tensor::Gemm(rep.embedding, /*transpose_a=*/false, sw.user_w_top,
               /*transpose_b=*/false, 1.0f, &prefix1);
  Matrix prefix2;
  if (blended)
    tensor::Gemm(rep.latent, /*transpose_a=*/false, sw.latent_w_top,
                 /*transpose_b=*/false, 1.0f, &prefix2);

  const int h = prefix1.cols();
  const int n = static_cast<int>(items.size());
  for (int begin = 0; begin < n; begin += kMaxPredictorRows) {
    const int c = std::min(kMaxPredictorRows, n - begin);
    const int* ids = items.data() + begin;
    GatherRowsInto(item_table, ids, c, &ws.embs);  // c x d

    EnsureShape(&ws.r1a, c, h);
    for (int t = 0; t < c; ++t)
      std::memcpy(ws.r1a.RowPtr(t), prefix1.RowPtr(0), sizeof(float) * h);
    tensor::Gemm(ws.embs, /*transpose_a=*/false, sw.user_w_bot,
                 /*transpose_b=*/false, 1.0f, &ws.r1a, /*accumulate=*/true);
    Matrix* r1 = MlpTailInPlace(model_->user_tower().tower(), &ws.r1a,
                                &ws.r1b);

    if (blended) {
      // r^R2 over [h_j (+) x_t^V] (x^V falls back to emb^V for Group-I).
      const Matrix* latents = &ws.embs;
      if (tables.latents != nullptr) {
        GatherRowsInto(*tables.latents, ids, c, &ws.latents);
        latents = &ws.latents;
      }
      EnsureShape(&ws.r2a, c, h);
      for (int t = 0; t < c; ++t)
        std::memcpy(ws.r2a.RowPtr(t), prefix2.RowPtr(0), sizeof(float) * h);
      tensor::Gemm(*latents, /*transpose_a=*/false, sw.latent_w_bot,
                   /*transpose_b=*/false, 1.0f, &ws.r2a, /*accumulate=*/true);
      Matrix* r2 = MlpTailInPlace(model_->latent_tower().tower(), &ws.r2a,
                                  &ws.r2b);
      // Eq. 23 blend via the same in-place ops as ag::Scale / ag::Add.
      r1->ScaleInPlace(1.0f - blend);
      r2->ScaleInPlace(blend);
      r1->AddInPlace(*r2);
    }
    for (int t = 0; t < c; ++t)
      scores.push_back(static_cast<double>(r1->At(t, 0)));
  }
  return scores;
}

std::vector<double> InferenceEngine::ScoreBatchGroup(
    const Matrix& reps, const std::vector<data::ItemId>& items,
    const SplitWeights& sw, const ItemTables& tables) const {
  std::vector<double> scores;
  scores.reserve(items.size());
  if (items.empty()) return scores;
  Workspace& ws = GetWorkspace();

  const Matrix& item_table = *tables.items;
  const Matrix& attn_prefix = *tables.attn_prefix;
  const int l = reps.rows();
  const int d = reps.cols();
  const int h = attn_prefix.cols();
  const nn::AttentionPool& pool = model_->voting().group_pool();
  const nn::Linear& proj = model_->voting().group_proj();
  const bool fused = h <= tensor::kMaxFusedHidden;

  if (fused) {
    // Precompute, per member, the addend rows rep_i[k] * W_bot[k][:] for the
    // nonzero rep_i[k] (k ascending — the same terms, in the same order,
    // with the same zero-skip the Gemm kernel applies to the member half of
    // the per-item concat row).
    EnsureShape(&ws.addends, l * d, h);
    ws.nz.clear();
    ws.nz_begin.assign(static_cast<size_t>(l) + 1, 0);
    for (int i = 0; i < l; ++i) {
      for (int k = 0; k < d; ++k) {
        const float r = reps.At(i, k);
        if (r == 0.0f) continue;
        float* dst = ws.addends.RowPtr(i * d + k);
        const float* wrow = sw.attn_w_bot.RowPtr(k);
        for (int j = 0; j < h; ++j) dst[j] = r * wrow[j];
        ws.nz.push_back(i * d + k);
      }
      ws.nz_begin[i + 1] = static_cast<int>(ws.nz.size());
    }
  }

  const bool has_hb = pool.score_hidden().bias() != nullptr;
  const float* hb = has_hb ? pool.score_hidden().bias()->value().data()
                           : nullptr;
  const float* wout = pool.score_out().weight()->value().data();  // h x 1
  const bool has_ob = pool.score_out().bias() != nullptr;
  const float out_b = has_ob ? pool.score_out().bias()->value().At(0, 0)
                             : 0.0f;

  const int n = static_cast<int>(items.size());
  const int max_items = std::max(1, kMaxAttentionRows / l);
  // Tracks the chunk height ws.cont currently holds; the tiled member reps
  // are call-local state, so the buffer is rebuilt at least once per call.
  int cont_rows = -1;
  for (int begin = 0; begin < n; begin += max_items) {
    const int c = std::min(max_items, n - begin);
    const int* ids = items.data() + begin;
    GatherRowsInto(item_table, ids, c, &ws.embs);  // c x d

    // Eq. 8-10: attention logits for every (item, member) pair, one softmax
    // row per item. The per-item path feeds row [emb_t^V (+) x_{t,i}^U]
    // through score_hidden / ReLU / score_out; both paths below run the
    // identical per-element chains — seed with the cached item-side partial
    // sum (equal to the per-item k < d partial, see BuildSplitWeights),
    // continue with the member-side terms k ascending, then bias, ReLU and
    // the zero-skipping j-ascending logit dot, with biases applied only
    // after each full accumulation as in nn::Linear.
    EnsureShape(&ws.weights, c, l);
    if (fused) {
      tensor::ActiveBackend().attention_logits(attn_prefix, ids, c, l, h,
                                               ws.addends, ws.nz, ws.nz_begin,
                                               hb, wout, has_ob, out_b,
                                               &ws.weights);
    } else {
      // Buffered fallback for wide attention layers: seed rows with the item
      // prefix, continue via Gemm(accumulate) over the tiled member reps.
      EnsureShape(&ws.hidden, c * l, h);
      for (int t = 0; t < c; ++t) {
        const float* p = attn_prefix.RowPtr(ids[t]);
        for (int i = 0; i < l; ++i)
          std::memcpy(ws.hidden.RowPtr(t * l + i), p, sizeof(float) * h);
      }
      if (cont_rows != c * l) {
        EnsureShape(&ws.cont, c * l, d);
        for (int t = 0; t < c; ++t)
          for (int i = 0; i < l; ++i)
            ws.cont.SetRow(t * l + i, reps.RowPtr(i));
        cont_rows = c * l;
      }
      tensor::Gemm(ws.cont, /*transpose_a=*/false, sw.attn_w_bot,
                   /*transpose_b=*/false, 1.0f, &ws.hidden,
                   /*accumulate=*/true);
      if (has_hb)
        tensor::AddRowBroadcastInPlace(&ws.hidden,
                                       pool.score_hidden().bias()->value());
      ActivateInPlace(&ws.hidden, nn::Activation::kRelu);
      tensor::Gemm(ws.hidden, /*transpose_a=*/false,
                   pool.score_out().weight()->value(), /*transpose_b=*/false,
                   1.0f, &ws.logits);  // c*l x 1
      if (has_ob)
        tensor::AddRowBroadcastInPlace(&ws.logits,
                                       pool.score_out().bias()->value());
      // The (c*l) x 1 logit column is, row-major, already the c x l logit
      // matrix (the per-item path's Transpose is a pure relayout).
      std::memcpy(ws.weights.data(), ws.logits.data(),
                  sizeof(float) * static_cast<size_t>(c) * l);
    }
    tensor::SoftmaxRowsInPlace(&ws.weights);  // Eq. 10, one row per item

    // Eq. 7-8: pooled_t = gamma_t . X^U, then the outer projection + ReLU.
    tensor::Gemm(ws.weights, /*transpose_a=*/false, reps,
                 /*transpose_b=*/false, 1.0f, &ws.pooled);  // c x d
    tensor::Gemm(ws.pooled, /*transpose_a=*/false, proj.weight()->value(),
                 /*transpose_b=*/false, 1.0f, &ws.group_rep);
    if (proj.bias() != nullptr)
      tensor::AddRowBroadcastInPlace(&ws.group_rep, proj.bias()->value());
    ActivateInPlace(&ws.group_rep, nn::Activation::kRelu);

    // Eq. 20 tower over [x_t^G (+) emb_t^V], via the same split-weight
    // seed/continue rewrite (both halves are full c-row matrices here, so
    // the seed is itself a Gemm and no row tiling is needed).
    tensor::Gemm(ws.group_rep, /*transpose_a=*/false, sw.group_w_top,
                 /*transpose_b=*/false, 1.0f, &ws.t1);
    tensor::Gemm(ws.embs, /*transpose_a=*/false, sw.group_w_bot,
                 /*transpose_b=*/false, 1.0f, &ws.t1, /*accumulate=*/true);
    const Matrix* out =
        MlpTailInPlace(model_->group_tower().tower(), &ws.t1, &ws.t2);
    for (int t = 0; t < c; ++t)
      scores.push_back(static_cast<double>(out->At(t, 0)));
  }
  return scores;
}

// ---------------- int8 scan (ScoreMode::kInt8) ----------------------------

tensor::Matrix InferenceEngine::TowerInputGradient(const nn::Mlp& mlp,
                                                   const tensor::Matrix& x0) {
  const int num_layers = mlp.num_layers();
  // Forward, recording each layer's pre-activation: the backward pass below
  // evaluates every activation derivative there (the frozen-mask
  // linearization — for ReLU towers this is exactly "gradient with the ReLU
  // masks frozen at x0").
  std::vector<Matrix> pre(static_cast<size_t>(num_layers));
  Matrix x = x0;
  for (int i = 0; i < num_layers; ++i) {
    Matrix y;
    tensor::Gemm(x, /*transpose_a=*/false, mlp.layer(i).weight()->value(),
                 /*transpose_b=*/false, 1.0f, &y);
    if (mlp.layer(i).bias() != nullptr)
      tensor::AddRowBroadcastInPlace(&y, mlp.layer(i).bias()->value());
    pre[static_cast<size_t>(i)] = y;
    ActivateInPlace(&y, i + 1 == num_layers ? mlp.output_activation()
                                            : mlp.hidden_activation());
    x = y;
  }
  // Backward: v <- (v . act'(pre_i)) * W_i^T, starting from d(out)/d(out)=1.
  Matrix v(1, 1);
  v.At(0, 0) = 1.0f;
  for (int i = num_layers - 1; i >= 0; --i) {
    const nn::Activation act = i + 1 == num_layers ? mlp.output_activation()
                                                   : mlp.hidden_activation();
    const Matrix& p = pre[static_cast<size_t>(i)];
    for (int j = 0; j < v.cols(); ++j) v.At(0, j) *= ActDeriv(act, p.At(0, j));
    Matrix prev;
    tensor::Gemm(v, /*transpose_a=*/false, mlp.layer(i).weight()->value(),
                 /*transpose_b=*/true, 1.0f, &prev);
    v = prev;
  }
  return v;  // 1 x in_dim
}

std::vector<double> InferenceEngine::ScanUser(
    const UserRep& rep, const QuantState& qs,
    const std::vector<data::ItemId>& items) const {
  std::vector<double> out(items.size(), 0.0);
  const int n = static_cast<int>(items.size());
  if (n == 0 || qs.items.empty()) return out;
  const int d = qs.items.cols;
  Workspace& ws = GetWorkspace();
  const tensor::KernelBackend& kb = tensor::ActiveBackend();
  const float blend = model_->config().effective_user_blend();
  const bool blended = !rep.latent.empty() && blend > 0.0f;

  // r^R1 direction: d(tower)/d(emb_t) at [emb_j (+) ref_item]; the item half
  // is cols [d, 2d) of the input gradient.
  tensor::ConcatColsInto({&rep.embedding, &qs.ref_item}, &ws.x0);
  const Matrix g1 = TowerInputGradient(model_->user_tower().tower(), ws.x0);
  ws.q1.resize(static_cast<size_t>(d));
  const float s1 = QuantizeRow(g1.RowPtr(0) + d, d, ws.q1.data());
  ws.i8dots.resize(items.size());
  kb.dot_i8_rows(ws.q1.data(), qs.items.values.data(), items.data(), n, d,
                 ws.i8dots.data());
  const double w1 = blended ? 1.0 - static_cast<double>(blend) : 1.0;
  for (int i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] =
        w1 * static_cast<double>(s1) *
        static_cast<double>(qs.items.scale(items[static_cast<size_t>(i)])) *
        static_cast<double>(ws.i8dots[static_cast<size_t>(i)]);
  }
  if (!blended) return out;

  // r^R2 direction over the latent table (items fall back when absent).
  const QuantizedRows& lat = qs.latents.empty() ? qs.items : qs.latents;
  tensor::ConcatColsInto({&rep.latent, &qs.ref_latent}, &ws.x0);
  const Matrix g2 = TowerInputGradient(model_->latent_tower().tower(), ws.x0);
  ws.q2.resize(static_cast<size_t>(d));
  const float s2 = QuantizeRow(g2.RowPtr(0) + d, d, ws.q2.data());
  kb.dot_i8_rows(ws.q2.data(), lat.values.data(), items.data(), n, d,
                 ws.i8dots.data());
  const double w2 = static_cast<double>(blend);
  for (int i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] +=
        w2 * static_cast<double>(s2) *
        static_cast<double>(lat.scale(items[static_cast<size_t>(i)])) *
        static_cast<double>(ws.i8dots[static_cast<size_t>(i)]);
  }
  return out;
}

std::vector<double> InferenceEngine::ScanVoting(
    const Matrix& reps, const QuantState& qs,
    const std::vector<data::ItemId>& items) const {
  std::vector<double> out(items.size(), 0.0);
  const int n = static_cast<int>(items.size());
  if (n == 0 || qs.items.empty()) return out;
  const int d = qs.items.cols;
  Workspace& ws = GetWorkspace();
  const int l = reps.rows();
  const nn::AttentionPool& pool = model_->voting().group_pool();
  const nn::Linear& proj = model_->voting().group_proj();

  // Group representation at the reference item, attention softmax frozen
  // there: one [ref_item (+) rep_i] row per member through score_hidden /
  // ReLU / score_out, softmax over members, pool, project.
  EnsureShape(&ws.cont, l, 2 * d);
  for (int i = 0; i < l; ++i) {
    std::memcpy(ws.cont.RowPtr(i), qs.ref_item.RowPtr(0),
                sizeof(float) * static_cast<size_t>(d));
    std::memcpy(ws.cont.RowPtr(i) + d, reps.RowPtr(i),
                sizeof(float) * static_cast<size_t>(d));
  }
  tensor::Gemm(ws.cont, /*transpose_a=*/false,
               pool.score_hidden().weight()->value(), /*transpose_b=*/false,
               1.0f, &ws.hidden);
  if (pool.score_hidden().bias() != nullptr)
    tensor::AddRowBroadcastInPlace(&ws.hidden,
                                   pool.score_hidden().bias()->value());
  ActivateInPlace(&ws.hidden, nn::Activation::kRelu);
  tensor::Gemm(ws.hidden, /*transpose_a=*/false,
               pool.score_out().weight()->value(), /*transpose_b=*/false, 1.0f,
               &ws.logits);  // l x 1
  if (pool.score_out().bias() != nullptr)
    tensor::AddRowBroadcastInPlace(&ws.logits, pool.score_out().bias()->value());
  EnsureShape(&ws.weights, 1, l);  // the l x 1 column, relaid out as a row
  std::memcpy(ws.weights.data(), ws.logits.data(),
              sizeof(float) * static_cast<size_t>(l));
  tensor::SoftmaxRowsInPlace(&ws.weights);
  tensor::Gemm(ws.weights, /*transpose_a=*/false, reps, /*transpose_b=*/false,
               1.0f, &ws.pooled);  // 1 x d
  tensor::Gemm(ws.pooled, /*transpose_a=*/false, proj.weight()->value(),
               /*transpose_b=*/false, 1.0f, &ws.group_rep);
  if (proj.bias() != nullptr)
    tensor::AddRowBroadcastInPlace(&ws.group_rep, proj.bias()->value());
  ActivateInPlace(&ws.group_rep, nn::Activation::kRelu);

  // r^G direction: d(tower)/d(emb_t) at [x^G(ref) (+) ref_item].
  tensor::ConcatColsInto({&ws.group_rep, &qs.ref_item}, &ws.x0);
  const Matrix g = TowerInputGradient(model_->group_tower().tower(), ws.x0);
  ws.q1.resize(static_cast<size_t>(d));
  const float s = QuantizeRow(g.RowPtr(0) + d, d, ws.q1.data());
  ws.i8dots.resize(items.size());
  tensor::ActiveBackend().dot_i8_rows(ws.q1.data(), qs.items.values.data(),
                                      items.data(), n, d, ws.i8dots.data());
  for (int i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] =
        static_cast<double>(s) *
        static_cast<double>(qs.items.scale(items[static_cast<size_t>(i)])) *
        static_cast<double>(ws.i8dots[static_cast<size_t>(i)]);
  }
  return out;
}

// ---------------- Public entry points --------------------------------------

std::vector<double> InferenceEngine::ScoreItemsForUser(
    data::UserId user, const std::vector<data::ItemId>& items) {
  return Score(QueryKind::kUser, {user}, items);
}

std::vector<double> InferenceEngine::ScoreItemsForGroup(
    data::GroupId group, const std::vector<data::ItemId>& items) {
  return Score(QueryKind::kGroup, {group}, items);
}

std::vector<double> InferenceEngine::ScoreItemsForMembers(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) {
  return Score(QueryKind::kMembers, members, items);
}

std::vector<std::vector<double>> InferenceEngine::MemberItemScores(
    const std::vector<data::UserId>& members,
    const std::vector<data::ItemId>& items) {
  std::vector<std::vector<double>> scores;
  scores.reserve(members.size());
  for (data::UserId member : members)
    scores.push_back(ScoreItemsForUser(member, items));
  return scores;
}

InferenceEngine::Ranking InferenceEngine::RecommendForUser(
    data::UserId user, int k, const data::InteractionMatrix* exclude) {
  return Recommend(QueryKind::kUser, {user}, k, exclude, EnginePlan());
}

InferenceEngine::Ranking InferenceEngine::RecommendForGroup(
    data::GroupId group, int k, const data::InteractionMatrix* exclude) {
  return Recommend(QueryKind::kGroup, {group}, k, exclude, EnginePlan());
}

InferenceEngine::Ranking InferenceEngine::RecommendForMembers(
    const std::vector<data::UserId>& members, int k,
    const data::InteractionMatrix* exclude) {
  return Recommend(QueryKind::kMembers, members, k, exclude, EnginePlan());
}

Status InferenceEngine::ValidateRequest(QueryKind kind,
                                        const std::vector<int32_t>& ids,
                                        int k) const {
  const auto in_range = [](const char* what, int32_t id, int count) {
    if (id >= 0 && id < count) return Status::Ok();
    return Status::Error(
        StrFormat("%s id %d out of range [0, %d)", what, id, count));
  };
  switch (kind) {
    case QueryKind::kUser:
      if (ids.size() != 1) return Status::Error("expected one user id");
      GROUPSA_RETURN_IF_ERROR(in_range("user", ids[0], model_->num_users()));
      break;
    case QueryKind::kGroup: {
      if (ids.size() != 1) return Status::Error("expected one group id");
      const data::GroupTable* groups = model_->model_data().groups;
      if (groups == nullptr) return Status::Error("model has no group table");
      GROUPSA_RETURN_IF_ERROR(in_range("group", ids[0], groups->num_groups()));
      break;
    }
    case QueryKind::kMembers:
    case QueryKind::kMemberAverage:
      if (ids.empty()) return Status::Error("empty member list");
      for (data::UserId member : ids) {
        GROUPSA_RETURN_IF_ERROR_CTX(
            in_range("user", member, model_->num_users()), "member");
      }
      break;
  }
  if (k < 1) return Status::Error(StrFormat("k must be positive, got %d", k));
  return Status::Ok();
}

}  // namespace groupsa::core
