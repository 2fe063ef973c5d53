#include "data/social_graph.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace groupsa::data {

SocialGraph::SocialGraph(int num_users,
                         const std::vector<std::pair<UserId, UserId>>& edges)
    : num_users_(num_users) {
  for (const auto& [a, b] : edges) {
    GROUPSA_CHECK(a >= 0 && a < num_users && b >= 0 && b < num_users,
                  "social edge endpoint out of range");
  }
  adjacency_ = IdLists::SortedUnique(num_users, [&](const auto& emit) {
    for (const auto& [a, b] : edges) {
      if (a == b) continue;
      emit(a, b);
      emit(b, a);
    }
  });
  num_edges_ = static_cast<int64_t>(adjacency_.num_ids()) / 2;
}

std::span<const UserId> SocialGraph::Neighbors(UserId user) const {
  GROUPSA_CHECK(user >= 0 && user < num_users_, "user out of range");
  return adjacency_[user];
}

bool SocialGraph::Connected(UserId a, UserId b) const {
  const std::span<const UserId> neighbors = Neighbors(a);
  return std::binary_search(neighbors.begin(), neighbors.end(), b);
}

double SocialGraph::AvgDegree() const {
  if (num_users_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) / num_users_;
}

namespace {

// Applies `fn` to every element of the (sorted) intersection of a and b.
template <typename Fn>
void ForEachCommon(std::span<const UserId> a, std::span<const UserId> b,
                   Fn fn) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      fn(a[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

int SocialGraph::CommonNeighbors(UserId a, UserId b) const {
  int count = 0;
  ForEachCommon(Neighbors(a), Neighbors(b), [&](UserId) { ++count; });
  return count;
}

double SocialGraph::JaccardCoefficient(UserId a, UserId b) const {
  const int common = CommonNeighbors(a, b);
  const int unions = Degree(a) + Degree(b) - common;
  return unions == 0 ? 0.0 : static_cast<double>(common) / unions;
}

double SocialGraph::AdamicAdar(UserId a, UserId b) const {
  double total = 0.0;
  ForEachCommon(Neighbors(a), Neighbors(b), [&](UserId z) {
    total += 1.0 / std::log(1.0 + static_cast<double>(Degree(z)));
  });
  return total;
}

}  // namespace groupsa::data
