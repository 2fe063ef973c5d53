#ifndef GROUPSA_DATA_TFIDF_H_
#define GROUPSA_DATA_TFIDF_H_

#include "data/id_lists.h"
#include "data/interaction_matrix.h"
#include "data/social_graph.h"

namespace groupsa::data {

// TF-IDF neighbourhood truncation (Sec. II-D): the paper ranks a user's
// interacted items (and friends) by TF-IDF and keeps the Top-H for the
// aggregation networks. With implicit binary feedback the term frequency is
// 1, so the ranking reduces to inverse document frequency: rarer
// items/friends characterize a user more sharply. Both tables have one row
// per user, stored flat (IdLists).

// For every user, the up-to-H interacted items with the highest
// idf = log(num_users / (1 + item popularity)), most informative first.
// Users with no interactions get an empty list (the caller falls back to the
// plain embedding).
IdLists TopItemsPerUser(const InteractionMatrix& ui, int top_h);

// For every user, the up-to-H friends with the highest
// idf = log(num_users / (1 + friend degree)).
IdLists TopFriendsPerUser(const SocialGraph& graph, int top_h);

}  // namespace groupsa::data

#endif  // GROUPSA_DATA_TFIDF_H_
