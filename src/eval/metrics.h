#ifndef GROUPSA_EVAL_METRICS_H_
#define GROUPSA_EVAL_METRICS_H_

#include <string>
#include <vector>

namespace groupsa::eval {

// Top-K ranking metrics over the leave-out protocol (Sec. III-C). `rank` is
// the 0-based position of the held-out positive among the scored candidate
// list (0 = ranked first).

// Hit Ratio: 1 when the positive lands in the top K.
double HitRatioAtK(int rank, int k);

// NDCG with a single relevant item: 1/log2(rank + 2) when rank < k, else 0
// (the single-positive case makes the ideal DCG 1).
double NdcgAtK(int rank, int k);

// Computes the 0-based rank of `positive_score` within `candidate_scores`
// (the positive itself is not in the list). Ties are counted against the
// positive (pessimistic), which avoids inflated metrics from degenerate
// constant scorers.
int RankOfPositive(double positive_score,
                   const std::vector<double>& candidate_scores);

// HR/NDCG averaged over many test cases at several cutoffs.
struct MetricsAtK {
  int k = 0;
  double hit_ratio = 0.0;
  double ndcg = 0.0;
};

struct EvalResult {
  std::vector<MetricsAtK> at_k;
  int num_cases = 0;

  double HitRatio(int k) const;
  double Ndcg(int k) const;
  std::string ToString() const;
};

// Aggregates per-case positive ranks into an EvalResult at the given
// cutoffs.
EvalResult AggregateRanks(const std::vector<int>& ranks,
                          const std::vector<int>& ks);

}  // namespace groupsa::eval

#endif  // GROUPSA_EVAL_METRICS_H_
