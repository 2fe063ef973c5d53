#ifndef GROUPSA_CORE_FALLBACK_RECOMMENDER_H_
#define GROUPSA_CORE_FALLBACK_RECOMMENDER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "core/inference_engine.h"
#include "data/interaction_matrix.h"
#include "data/types.h"

namespace groupsa::core {

// Gracefully degrading serving front-end: answers through the model's
// InferenceEngine when one is available and the request is valid, and falls
// back to a popularity baseline (training-interaction counts) when the model
// path fails — engine absent (e.g. the checkpoint would not load), invalid
// group id, any engine-side error Status. A degraded response is still a
// ranked list over valid items; callers that must distinguish inspect
// `Response::degraded` / `Response::error` and the aggregate counters.
//
// Requests with no valid interpretation at all (k < 1, every exclude filter
// matching) degrade to an empty ranking rather than an error: the serving
// path never aborts the process.
class FallbackRecommender {
 public:
  // `engine` may be null (model unavailable: every response degrades) and
  // must outlive the recommender otherwise. `popularity` are training
  // interactions counted per item (user-item edges work; group-item edges
  // work too) over a catalog of `num_items` items; out-of-range items are
  // ignored rather than trusted.
  FallbackRecommender(InferenceEngine* engine,
                      const data::EdgeList& popularity, int num_items);

  struct Response {
    std::vector<std::pair<data::ItemId, double>> items;
    bool degraded = false;  // served by the popularity baseline
    std::string error;      // why the model path was bypassed, when degraded
    // What produced (or pre-empted) this answer. Callers that react to
    // model *health* — the serving daemon's circuit breaker — need to tell
    // an engine that errored (kEngineError: evidence against the model)
    // from an engine that is absent by design (kNoEngine) or was never
    // consulted (kBypassed: shed / injected-fault / breaker-open paths).
    enum class Source {
      kModel = 0,        // healthy engine answer
      kNoEngine = 1,     // permanently degraded: no engine at all
      kEngineError = 2,  // engine returned an error Status
      kBypassed = 3,     // caller chose the popularity path outright
    };
    Source source = Source::kModel;
  };

  // Top-K serving entry points, mirroring the engine's recommenders.
  // `exclude` follows each engine call's row semantics (user row / group row
  // / any-member row) and is applied on the popularity path too.
  Response RecommendForUser(data::UserId user, int k,
                            const data::InteractionMatrix* exclude);
  Response RecommendForGroup(data::GroupId group, int k,
                             const data::InteractionMatrix* exclude);
  Response RecommendForMembers(const std::vector<data::UserId>& members,
                               int k,
                               const data::InteractionMatrix* exclude);

  // Popularity-path response with the same per-row exclude semantics as the
  // model path, without attempting the model at all. The serving daemon's
  // admission-control shed and fault-injection degrade paths answer through
  // this: a full queue or an injected worker fault still yields a ranked
  // list. Counts as one (degraded) request in the aggregate counters.
  Response ServeDegraded(std::string reason, int k,
                         const data::InteractionMatrix* exclude,
                         const std::vector<int32_t>& rows);

  // Ops counters: total requests served and how many of them degraded.
  int64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  int64_t degraded_responses() const {
    return degraded_.load(std::memory_order_relaxed);
  }

  // The popularity ranking itself (most-interacted first), with items whose
  // `skip(item)` is true filtered out. Exposed for tests.
  template <typename Skip>
  std::vector<std::pair<data::ItemId, double>> PopularityTopK(
      int k, const Skip& skip) const {
    std::vector<std::pair<data::ItemId, double>> ranked;
    if (k < 1) return ranked;
    for (data::ItemId item = 0;
         item < static_cast<data::ItemId>(counts_.size()); ++item) {
      if (!skip(item)) ranked.emplace_back(item, counts_[item]);
    }
    // Stable total order: count descending, id ascending.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       if (a.second != b.second) return a.second > b.second;
                       return a.first < b.first;
                     });
    if (ranked.size() > static_cast<size_t>(k)) ranked.resize(k);
    return ranked;
  }

 private:
  // The model path of the three entry points: count the request, degrade
  // when there is no engine or InferenceEngine::ValidateRequest rejects
  // (`kind`, `ids`, k), otherwise answer through `recommend` — the engine's
  // unchecked call. `ids` double as the exclude rows on the degraded path.
  Response Serve(QueryKind kind, const std::vector<int32_t>& ids, int k,
                 const data::InteractionMatrix* exclude,
                 const std::function<InferenceEngine::Ranking()>& recommend);

  // Serves the popularity ranking with per-row exclude semantics matching
  // the failed model call; `rows` are the entity rows of `exclude` to
  // consult (bounds-guarded — this path must not crash on the very inputs
  // that made the model path fail).
  Response Degrade(std::string error, int k,
                   const data::InteractionMatrix* exclude,
                   const std::vector<int32_t>& rows,
                   Response::Source source);

  // Concurrency contract (DESIGN.md §14): this class owns no mutex. The
  // engine pointer and popularity counts are immutable after construction;
  // the ops counters are atomics.
  InferenceEngine* const engine_;  // null = permanently degraded
  std::vector<double> counts_ GROUPSA_NOT_GUARDED("immutable after ctor");
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> degraded_{0};
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_FALLBACK_RECOMMENDER_H_
