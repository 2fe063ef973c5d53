#include "eval/metrics.h"

#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"

namespace groupsa::eval {

double HitRatioAtK(int rank, int k) { return rank < k ? 1.0 : 0.0; }

double NdcgAtK(int rank, int k) {
  if (rank >= k) return 0.0;
  return 1.0 / std::log2(static_cast<double>(rank) + 2.0);
}

int RankOfPositive(double positive_score,
                   const std::vector<double>& candidate_scores) {
  int rank = 0;
  for (double s : candidate_scores) {
    if (s >= positive_score) ++rank;
  }
  return rank;
}

double EvalResult::HitRatio(int k) const {
  for (const MetricsAtK& m : at_k) {
    if (m.k == k) return m.hit_ratio;
  }
  GROUPSA_CHECK(false, "HitRatio: cutoff not evaluated");
  return 0.0;
}

double EvalResult::Ndcg(int k) const {
  for (const MetricsAtK& m : at_k) {
    if (m.k == k) return m.ndcg;
  }
  GROUPSA_CHECK(false, "Ndcg: cutoff not evaluated");
  return 0.0;
}

std::string EvalResult::ToString() const {
  std::string out = StrFormat("n=%d", num_cases);
  for (const MetricsAtK& m : at_k) {
    out += StrFormat("  HR@%d=%.4f NDCG@%d=%.4f", m.k, m.hit_ratio, m.k,
                     m.ndcg);
  }
  return out;
}

EvalResult AggregateRanks(const std::vector<int>& ranks,
                          const std::vector<int>& ks) {
  EvalResult result;
  result.num_cases = static_cast<int>(ranks.size());
  for (int k : ks) {
    MetricsAtK m;
    m.k = k;
    if (!ranks.empty()) {
      double hr = 0.0;
      double ndcg = 0.0;
      for (int rank : ranks) {
        hr += HitRatioAtK(rank, k);
        ndcg += NdcgAtK(rank, k);
      }
      const double n = static_cast<double>(ranks.size());
      m.hit_ratio = hr / n;
      m.ndcg = ndcg / n;
    }
    result.at_k.push_back(m);
  }
  return result;
}

}  // namespace groupsa::eval
