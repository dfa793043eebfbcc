#include "analysis/recommend.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dtmsv::analysis {

behavior::PreferenceVector aggregate_group_preference(
    const twin::TwinColumnStore& twins, std::span<const std::size_t> members) {
  behavior::PreferenceVector acc{};
  double total_weight = 0.0;
  for (const std::size_t u : members) {
    DTMSV_EXPECTS(u < twins.user_count());
    // Weight each member by the evidence behind its estimate so fresh twins
    // with little history do not dilute the group profile.
    const double weight = std::max(1.0, twins.estimator(u).evidence_seconds());
    const behavior::PreferenceVector est = twins.latest_preference(u);
    for (std::size_t c = 0; c < acc.size(); ++c) {
      acc[c] += weight * est[c];
    }
    total_weight += weight;
  }
  if (total_weight <= 0.0) {
    acc.fill(1.0 / static_cast<double>(video::kCategoryCount));
    return acc;
  }
  for (double& v : acc) {
    v /= total_weight;
  }
  return behavior::normalized(acc);
}

Recommendation recommend(const video::Catalog& catalog,
                         const PopularityRanking& ranking,
                         const behavior::PreferenceVector& group_preference,
                         const RecommenderConfig& config) {
  DTMSV_EXPECTS(config.playlist_size > 0);
  DTMSV_EXPECTS(config.popularity_weight >= 0.0 && config.popularity_weight <= 1.0);

  Recommendation rec;
  rec.group_preference = behavior::normalized(group_preference);

  // Category quotas: largest-remainder apportionment of the playlist.
  std::array<double, video::kCategoryCount> exact{};
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
    exact[c] = rec.group_preference[c] * static_cast<double>(config.playlist_size);
    rec.per_category_counts[c] = static_cast<std::size_t>(exact[c]);
    assigned += rec.per_category_counts[c];
  }
  while (assigned < config.playlist_size) {
    std::size_t best = 0;
    double best_rem = -1.0;
    for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
      const double rem = exact[c] - static_cast<double>(rec.per_category_counts[c]);
      if (rem > best_rem) {
        best_rem = rem;
        best = c;
      }
    }
    ++rec.per_category_counts[best];
    ++assigned;
  }

  // Per category: observed-popular first, then catalog-rank padding.
  std::array<std::vector<std::uint64_t>, video::kCategoryCount> per_cat;
  for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
    const auto category = video::all_categories()[c];
    const std::size_t quota = rec.per_category_counts[c];
    if (quota == 0) {
      continue;
    }
    auto& list = per_cat[c];

    const std::size_t observed_quota = static_cast<std::size_t>(
        std::round(config.popularity_weight * static_cast<double>(quota)));
    const auto& ranked = ranking.in_category(category);
    const std::size_t observed = std::min(observed_quota, ranked.size());
    list.assign(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(observed));
    for (const std::uint64_t id : catalog.category_videos(category)) {
      if (list.size() >= quota) {
        break;
      }
      if (std::find(list.begin(), list.end(), id) == list.end()) {
        list.push_back(id);
      }
    }
  }

  // Interleave categories round-robin so the playlist mixes content the way
  // a feed does rather than blocking by category.
  bool remaining = true;
  std::size_t round = 0;
  while (remaining && rec.playlist.size() < config.playlist_size) {
    remaining = false;
    for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
      if (round < per_cat[c].size()) {
        rec.playlist.push_back(per_cat[c][round]);
        remaining = true;
      }
    }
    ++round;
  }
  return rec;
}

}  // namespace dtmsv::analysis
