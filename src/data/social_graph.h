#ifndef GROUPSA_DATA_SOCIAL_GRAPH_H_
#define GROUPSA_DATA_SOCIAL_GRAPH_H_

#include <span>
#include <utility>
#include <vector>

#include "data/id_lists.h"
#include "data/types.h"

namespace groupsa::data {

// Undirected user-user social network, the R^S of the paper. Edges are
// symmetrized and deduplicated at construction; self-loops are dropped. The
// sorted neighbour lists are one flat IdLists, shared by copies.
class SocialGraph {
 public:
  SocialGraph() = default;
  SocialGraph(int num_users,
              const std::vector<std::pair<UserId, UserId>>& edges);

  int num_users() const { return num_users_; }
  // Number of undirected edges.
  int64_t num_edges() const { return num_edges_; }

  // Sorted unique neighbor list of `user`.
  std::span<const UserId> Neighbors(UserId user) const;

  // True when a direct social connection exists (the f(i,j)=1 predicate of
  // Eq. 5).
  bool Connected(UserId a, UserId b) const;

  int Degree(UserId user) const {
    return static_cast<int>(Neighbors(user).size());
  }
  // Average number of friends per user.
  double AvgDegree() const;

  // Graph-proximity scores usable as the paper's f(i,j) closeness function
  // (Sec. II-C: "f(i,j) can be computed by any real-valued score function").
  // All return 0 for unrelated pairs and are symmetric.

  // |N(a) ∩ N(b)|.
  int CommonNeighbors(UserId a, UserId b) const;
  // |N(a) ∩ N(b)| / |N(a) ∪ N(b)| in [0, 1].
  double JaccardCoefficient(UserId a, UserId b) const;
  // Σ_{z ∈ N(a) ∩ N(b)} 1 / log(1 + deg(z)) — Adamic-Adar, which discounts
  // promiscuous mutual friends.
  double AdamicAdar(UserId a, UserId b) const;

 private:
  int num_users_ = 0;
  int64_t num_edges_ = 0;
  IdLists adjacency_;
};

}  // namespace groupsa::data

#endif  // GROUPSA_DATA_SOCIAL_GRAPH_H_
