#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_set>
#include <utility>

#include "common/macros.h"

namespace groupsa::data {
namespace {

// L2-normalizes each row in place.
void NormalizeRows(tensor::Matrix* m) {
  for (int r = 0; r < m->rows(); ++r) {
    float* row = m->RowPtr(r);
    double norm = 0.0;
    for (int c = 0; c < m->cols(); ++c) norm += static_cast<double>(row[c]) * row[c];
    norm = std::sqrt(std::max(norm, 1e-12));
    for (int c = 0; c < m->cols(); ++c)
      row[c] = static_cast<float>(row[c] / norm);
  }
}

// Draws a small positive count with the given mean (>= 1): 1 + Poisson-ish
// via geometric mixture, clamped.
int DrawCount(double mean, int max_value, Rng* rng) {
  GROUPSA_DCHECK(mean >= 1.0, "DrawCount mean must be >= 1");
  // Poisson via Knuth; mean - 1 extra on top of the guaranteed 1.
  const double lambda = mean - 1.0;
  int k = 0;
  if (lambda > 0.0) {
    const double limit = std::exp(-lambda);
    double product = rng->NextDouble();
    while (product > limit && k < max_value) {
      ++k;
      product *= rng->NextDouble();
    }
  }
  return std::min(1 + k, max_value);
}

}  // namespace

SyntheticWorldConfig SyntheticWorldConfig::YelpLike() {
  SyntheticWorldConfig c;
  c.name = "yelp-like";
  c.num_users = 1200;
  c.num_items = 800;
  c.num_groups = 850;  // attendance echo ~4 events/user, like the crawl
  c.avg_interactions_per_user = 14.0;
  c.avg_friends_per_user = 12.0;
  c.avg_interactions_per_group = 1.3;
  c.avg_group_size = 4.45;
  c.seed = 7;
  return c;
}

SyntheticWorldConfig SyntheticWorldConfig::DoubanEventLike() {
  SyntheticWorldConfig c;
  c.name = "douban-event-like";
  c.num_users = 1000;
  c.num_items = 1000;
  c.num_groups = 650;
  c.avg_interactions_per_user = 17.0;
  c.avg_friends_per_user = 16.0;
  c.avg_interactions_per_group = 1.5;
  c.avg_group_size = 4.84;
  c.num_topics = 10;
  c.seed = 11;
  return c;
}

SyntheticWorldConfig SyntheticWorldConfig::Tiny() {
  SyntheticWorldConfig c;
  c.name = "tiny";
  c.num_users = 120;
  c.num_items = 90;
  c.num_groups = 60;
  c.num_topics = 4;
  c.avg_interactions_per_user = 8.0;
  c.avg_friends_per_user = 6.0;
  c.avg_interactions_per_group = 1.5;
  c.avg_group_size = 3.5;
  c.max_group_size = 6;
  c.seed = 3;
  return c;
}

SyntheticWorld GenerateWorld(const SyntheticWorldConfig& config) {
  GROUPSA_CHECK(config.num_users > 2 && config.num_items > 2 &&
                    config.num_groups > 0 && config.num_topics > 0,
                "invalid synthetic config");
  Rng rng(config.seed);
  SyntheticWorld world;
  world.config = config;

  const int topics = config.num_topics;
  const int dim = config.latent_dim;

  // 1. Topic centroids.
  tensor::Matrix centroids(topics, dim);
  centroids.FillGaussian(&rng, 0.0f, 1.0f);
  NormalizeRows(&centroids);

  // 2. Users: primary topic, latent vector near its centroid, expertise.
  // Experts are behaviourally distinctive (the paper's "food critic"): their
  // latent vector sits closer to the topic centroid, and below they interact
  // more and more consistently — so expertise is *identifiable* from
  // observed behaviour, which is what lets attention-based models learn
  // member weights. Non-experts are noisier.
  world.user_topic.resize(config.num_users);
  world.user_is_expert.assign(config.num_users, false);
  world.user_vectors.Resize(config.num_users, dim);
  world.user_expertise.Resize(config.num_users, topics);
  std::vector<std::vector<UserId>> topic_users(topics);
  for (int u = 0; u < config.num_users; ++u) {
    const int z = rng.NextInt(topics);
    world.user_topic[u] = z;
    topic_users[z].push_back(u);
    const bool expert = rng.NextBernoulli(config.expert_fraction);
    world.user_is_expert[u] = expert;
    const double spread = expert ? 0.15 : 0.45;
    for (int c = 0; c < dim; ++c) {
      world.user_vectors.At(u, c) =
          centroids.At(z, c) +
          static_cast<float>(rng.NextGaussian(0.0, spread));
    }
    // Expertise: low base everywhere; experts get a strong boost on their
    // primary topic, which later dominates group votes on that topic.
    for (int k = 0; k < topics; ++k) {
      world.user_expertise.At(u, k) =
          static_cast<float>(rng.NextUniform(0.0, 0.2));
    }
    if (expert) {
      world.user_expertise.At(u, z) =
          static_cast<float>(rng.NextUniform(0.8, 1.0));
    }
  }
  NormalizeRows(&world.user_vectors);

  // 3. Items: topic, latent vector, Zipf popularity.
  world.item_topic.resize(config.num_items);
  world.item_vectors.Resize(config.num_items, dim);
  world.item_popularity.resize(config.num_items);
  std::vector<std::vector<ItemId>> topic_items(topics);
  for (int v = 0; v < config.num_items; ++v) {
    const int z = rng.NextInt(topics);
    world.item_topic[v] = z;
    topic_items[z].push_back(v);
    for (int c = 0; c < dim; ++c) {
      world.item_vectors.At(v, c) =
          centroids.At(z, c) + static_cast<float>(rng.NextGaussian(0.0, 0.35));
    }
    // Zipf-like exposure: rank within the shuffled global order.
    world.item_popularity[v] =
        1.0 / std::pow(1.0 + rng.NextInt(config.num_items),
                       config.popularity_alpha);
  }
  NormalizeRows(&world.item_vectors);
  // Every topic must own at least one item so votes can resolve.
  for (int k = 0; k < topics; ++k) {
    if (topic_items[k].empty()) {
      const ItemId v = rng.NextInt(config.num_items);
      world.item_topic[v] = k;
      topic_items[k].push_back(v);
    }
  }

  // Per-user topic affinity used by both individual and group choices.
  auto topic_weights_for_vector = [&](const tensor::Matrix& vec, int row,
                                      double concentration) {
    std::vector<double> w(topics);
    for (int k = 0; k < topics; ++k) {
      double dot = 0.0;
      for (int c = 0; c < dim; ++c)
        dot += static_cast<double>(vec.At(row, c)) * centroids.At(k, c);
      w[k] = std::exp(concentration * dot);
    }
    return w;
  };
  // Each topic's items as a popularity table, built once: the pools are
  // fixed from here on and are drawn from hundreds of thousands of times. A
  // table draws the index NextWeighted would (DESIGN.md §16).
  std::vector<WeightedTable> topic_tables;
  topic_tables.reserve(topics);
  for (int k = 0; k < topics; ++k) {
    std::vector<double> w;
    w.reserve(topic_items[k].size());
    for (const ItemId v : topic_items[k]) w.push_back(world.item_popularity[v]);
    topic_tables.emplace_back(std::move(w));
  }
  auto sample_item_in_topic = [&](int k, Rng* r) {
    return topic_items[k][topic_tables[k].Draw(r)];
  };

  // 4. Social network: homophilous degree-targeted edges.
  std::vector<std::pair<UserId, UserId>> social_edges;
  for (int u = 0; u < config.num_users; ++u) {
    // Each endpoint initiates half its target degree; symmetrization doubles.
    const int want = DrawCount(
        std::max(1.0, config.avg_friends_per_user / 2.0),
        config.num_users - 1, &rng);
    for (int i = 0; i < want; ++i) {
      UserId friend_id;
      const auto& same_topic = topic_users[world.user_topic[u]];
      if (rng.NextBernoulli(config.homophily) && same_topic.size() > 1) {
        friend_id = same_topic[rng.NextInt(static_cast<int>(same_topic.size()))];
      } else {
        friend_id = rng.NextInt(config.num_users);
      }
      if (friend_id != u) social_edges.emplace_back(u, friend_id);
    }
  }
  SocialGraph social(config.num_users, social_edges);

  // 5. Groups grown from social neighbourhoods (the paper's datasets define
  // groups as socially connected users attending the same event).
  std::vector<std::vector<UserId>> group_members(config.num_groups);
  for (int g = 0; g < config.num_groups; ++g) {
    const int target_size =
        std::clamp(DrawCount(config.avg_group_size, config.max_group_size,
                             &rng),
                   config.min_group_size, config.max_group_size);
    std::vector<UserId> members;
    std::unordered_set<UserId> in_group;
    UserId seed_user = rng.NextInt(config.num_users);
    members.push_back(seed_user);
    in_group.insert(seed_user);
    int attempts = 0;
    while (static_cast<int>(members.size()) < target_size &&
           attempts < 20 * target_size) {
      ++attempts;
      // Expand from a random current member's friends; fall back to the
      // member's topic community, then to uniform.
      const UserId anchor =
          members[rng.NextInt(static_cast<int>(members.size()))];
      const std::span<const UserId> friends = social.Neighbors(anchor);
      UserId candidate;
      if (!friends.empty() && rng.NextBernoulli(config.group_social_bias)) {
        candidate = friends[rng.NextInt(static_cast<int>(friends.size()))];
      } else {
        // Topically unconstrained join: keeps groups heterogeneous.
        candidate = rng.NextInt(config.num_users);
      }
      if (in_group.insert(candidate).second) members.push_back(candidate);
    }
    // Guarantee the minimum size even in degenerate neighbourhoods.
    while (static_cast<int>(members.size()) < config.min_group_size) {
      const UserId candidate = rng.NextInt(config.num_users);
      if (in_group.insert(candidate).second) members.push_back(candidate);
    }
    group_members[g] = std::move(members);
  }
  GroupTable groups(std::move(group_members));

  // 6. Group-item interactions via expertise-weighted voting: each member
  // votes for topics with weight exp(sharpness * expertise[topic]); the
  // group samples a topic from the weighted average of member affinities,
  // then an item within that topic by popularity. Experts therefore steer
  // decisions on their topic -- exactly the non-uniform influence GroupSA
  // is designed to learn.
  EdgeList group_item;
  for (int g = 0; g < groups.num_groups(); ++g) {
    const auto& members = groups.Members(g);
    std::vector<double> group_topic_w(topics, 0.0);
    for (int k = 0; k < topics; ++k) {
      double weight_sum = 0.0;
      double pref_sum = 0.0;
      for (UserId u : members) {
        const double vote_weight =
            std::exp(config.expertise_sharpness * world.user_expertise.At(u, k));
        double affinity = 0.0;
        for (int c = 0; c < dim; ++c)
          affinity +=
              static_cast<double>(world.user_vectors.At(u, c)) * centroids.At(k, c);
        weight_sum += vote_weight;
        pref_sum += vote_weight * affinity;
      }
      const double consensus = pref_sum / weight_sum;
      group_topic_w[k] =
          std::exp(config.group_choice_concentration * consensus);
    }
    const int count = DrawCount(config.avg_interactions_per_group, 6, &rng);
    std::unordered_set<ItemId> seen;
    for (int i = 0; i < count; ++i) {
      ItemId item;
      if (rng.NextBernoulli(config.noise)) {
        item = rng.NextInt(config.num_items);
      } else {
        item = sample_item_in_topic(rng.NextWeighted(group_topic_w), &rng);
      }
      if (seen.insert(item).second) group_item.push_back({g, item});
    }
  }

  // 7. User-item interactions. Two sources, mirroring how the paper's
  // datasets were crawled: (a) every group activity is also an individual
  // attendance of each member (a group restaurant visit IS each member
  // visiting that restaurant), and (b) solo interactions drawn from the
  // user's own topic affinity. Experts interact more (activity boost) and
  // more consistently (concentration boost), making expertise identifiable
  // from observed behaviour (the paper's "food critic" is a heavy,
  // consistent rater).
  // A user's items are deduplicated with one per-item stamp array: while
  // user u is processed, stamp[v] == u marks item v as already in u's row.
  //
  // (a) The echo, in group-item order, each (member, item) once. The echo
  // candidates are bucketed by member, stably, so that each bucket lists a
  // member's items in that order; a repeat within a bucket is struck out
  // (-1), which keeps every first occurrence.
  const int num_users = config.num_users;
  std::vector<int> echo_start(num_users + 1, 0);
  for (const Edge& e : group_item)
    for (UserId u : groups.Members(e.row)) ++echo_start[u + 1];
  for (int u = 0; u < num_users; ++u) echo_start[u + 1] += echo_start[u];
  std::vector<ItemId> echo(echo_start[num_users]);
  std::vector<int> cursor(echo_start.begin(), echo_start.end() - 1);
  for (const Edge& e : group_item)
    for (UserId u : groups.Members(e.row)) echo[cursor[u]++] = e.item;
  std::vector<int> stamp(config.num_items, -1);
  for (int u = 0; u < num_users; ++u) {
    for (int s = echo_start[u]; s < echo_start[u + 1]; ++s) {
      if (stamp[echo[s]] == u) {
        echo[s] = -1;
      } else {
        stamp[echo[s]] = u;
      }
    }
  }
  EdgeList user_item;
  std::copy(echo_start.begin(), echo_start.end() - 1, cursor.begin());
  for (const Edge& e : group_item) {
    for (UserId u : groups.Members(e.row)) {
      if (echo[cursor[u]++] >= 0) user_item.push_back({u, e.item});
    }
  }
  // (b) Solo draws. Each user's echo items are stamped again before that
  // user's draws (a later user may have overwritten them), so a drawn item
  // is added only if it is new to the user.
  for (int u = 0; u < num_users; ++u) {
    int echoed = 0;
    for (int s = echo_start[u]; s < echo_start[u + 1]; ++s) {
      if (echo[s] < 0) continue;
      stamp[echo[s]] = u;
      ++echoed;
    }
    const bool expert = world.user_is_expert[u];
    const int count = DrawCount(
        std::max(1.0, config.avg_interactions_per_user * (expert ? 1.6 : 0.8) -
                          static_cast<double>(echoed)),
        config.num_items / 2, &rng);
    std::vector<double> topic_w = topic_weights_for_vector(
        world.user_vectors, u,
        config.user_topic_concentration * (expert ? 2.0 : 1.0));
    for (int i = 0; i < count; ++i) {
      ItemId item;
      if (rng.NextBernoulli(config.noise)) {
        item = rng.NextInt(config.num_items);
      } else {
        item = sample_item_in_topic(rng.NextWeighted(topic_w), &rng);
      }
      if (stamp[item] != u) {
        stamp[item] = u;
        user_item.push_back({u, item});
      }
    }
  }

  world.dataset.name = config.name;
  world.dataset.num_users = config.num_users;
  world.dataset.num_items = config.num_items;
  // The edges were appended one by one. The list lives as long as the
  // dataset, so hand it over at exact size, not with its doubling slack.
  user_item.shrink_to_fit();
  world.dataset.user_item = std::move(user_item);
  world.dataset.group_item = std::move(group_item);
  world.dataset.social = std::move(social);
  world.dataset.groups = std::move(groups);
  return world;
}

}  // namespace groupsa::data
