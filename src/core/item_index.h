#ifndef GROUPSA_CORE_ITEM_INDEX_H_
#define GROUPSA_CORE_ITEM_INDEX_H_

#include <cstdint>
#include <vector>

#include "data/types.h"
#include "tensor/matrix.h"

namespace groupsa::core {

// Which retrieval strategy a full-catalog top-K entry point uses.
//
//   kExact  score every catalog item through the batched engine (O(items)
//           per request — the PR-2 behaviour, still the parity oracle).
//   kIvf    coarse-quantized candidate generation: score only the item
//           index's nlist cluster centroids, take the union of the nprobe
//           best-scoring clusters' inverted lists as candidates, and re-rank
//           the candidates EXACTLY through the same batched scorer. The
//           output contract is "true top-K of the candidate set": every
//           returned (item, score) pair carries the exact-path score bits,
//           only membership of the candidate set is approximate. With
//           nprobe >= nlist the candidate set is the whole catalog and the
//           result is bit-identical to kExact (the CI parity gate).
enum class TopKMode { kExact, kIvf };

// Build/query knobs for ItemIndex. Zero means "derive from the catalog
// size"; the derived defaults are reported by the built index.
struct ItemIndexConfig {
  // Number of k-means clusters (inverted lists). 0 = auto:
  // clamp(4 * sqrt(items), 1, 2048), never more than the catalog.
  int nlist = 0;
  // Default number of lists probed per query. 0 = auto: nlist / 16, at
  // least min(4, nlist). nprobe >= nlist degenerates to exact search over
  // the whole catalog (the parity mode).
  int nprobe = 0;
  // Lloyd iterations over the training sample (an iteration that moves no
  // assignment stops early).
  int train_iters = 8;
  // Rows the quantizer trains on; the final assignment pass always covers
  // the full catalog. 0 = auto: min(items, max(24 * nlist, 16384)).
  int train_sample = 0;
  // Seed for the k-means++ / sampling draws. All randomness flows through
  // one common/rng stream derived from this, so a build is a pure function
  // of (vectors, config) at any thread count.
  uint64_t seed = 0x1DEA5EEDULL;
};

// Coarse k-means quantizer + inverted lists over the item representation
// table — the candidate-generation stage in front of the exact batched
// scorer (see TopKMode::kIvf and DESIGN.md "Sublinear retrieval").
//
// Build: k-means++ seeding and Lloyd iterations run on a deterministic
// row sample; the trained quantizer then assigns every catalog item to its
// nearest centroid (ties to the lowest centroid id) in one pass over the
// catalog. Nearest-centroid search is expressed as
// argmax_j(x·c_j - ||c_j||²/2) and runs in the dispatched
// nearest_centroid_rows kernel (tensor/backend.h): tiles of rows, fanned
// out over the global pool into disjoint slots, each scored against the
// transposed centroids with Gemm's dot bits and argmaxed without a score
// table. The result is bit-identical on every backend and at any thread
// count, so the whole build is.
//
// The inverted lists partition the catalog: every item appears in exactly
// one list, and within a list items are in ascending id order. Probing all
// non-empty lists therefore yields each catalog item exactly once — which
// is what makes the nprobe >= nlist parity mode structural rather than
// probabilistic.
class ItemIndex {
 public:
  // Clusters the rows of `vectors` (items x dim). An empty table yields an
  // empty index (nlist 0, no candidates); nlist and train_sample are
  // clamped to the catalog, so tiny catalogs (items < nlist) degrade to at
  // most one item per list rather than failing.
  static ItemIndex Build(const tensor::Matrix& vectors,
                         const ItemIndexConfig& config);

  int num_items() const { return num_items_; }
  int dim() const { return dim_; }
  int nlist() const { return centroids_.rows(); }
  // The resolved default probe width (config.nprobe, or the derived auto
  // value when the config said 0).
  int default_nprobe() const { return default_nprobe_; }

  // The trained quantizer centroids (nlist x dim). These define the
  // assignment; the *scoring* representative of each list is usually
  // ListMeans() over the live table instead (the empirical list centroid).
  const tensor::Matrix& centroids() const { return centroids_; }

  // Per-item cluster assignment (num_items entries in [0, nlist)).
  const std::vector<int>& assignments() const { return assignments_; }

  // Items of list `c`, ascending item id.
  const data::ItemId* ListBegin(int c) const;
  int ListSize(int c) const;

  // Per-list mean of the corresponding rows of `table` (one output row per
  // list, table.cols() wide; empty lists yield zero rows — SelectProbes
  // never picks them). `table` must have num_items rows. Row means are
  // accumulated in double over ascending item ids, so the result is a pure
  // function of (table, lists).
  tensor::Matrix ListMeans(const tensor::Matrix& table) const;

  // The `nprobe` best-scoring non-empty lists given one score per centroid
  // (scores.size() == nlist). Ranking follows the TopKItems total order —
  // score descending, ties by ascending centroid id — so probe selection is
  // deterministic. nprobe <= 0 uses default_nprobe(); values past the
  // non-empty list count are clamped (probing everything = parity mode).
  std::vector<int> SelectProbes(const std::vector<double>& centroid_scores,
                                int nprobe) const;

  // Union of the chosen lists, concatenated in probe order (each list's
  // items ascending). Lists partition the catalog, so the result has no
  // duplicates; probing every non-empty list returns every catalog item.
  std::vector<data::ItemId> Candidates(const std::vector<int>& probes) const;

 private:
  int num_items_ = 0;
  int dim_ = 0;
  int default_nprobe_ = 1;
  tensor::Matrix centroids_;           // nlist x dim quantizer
  std::vector<int> assignments_;       // item -> list
  std::vector<int> list_begin_;        // CSR offsets, nlist + 1
  std::vector<data::ItemId> list_items_;  // CSR payload, ascending per list
};

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_ITEM_INDEX_H_
