// Group recommendation: combines edge-wide video popularity with the
// group's aggregated preference to produce the videos the group's multicast
// stream will carry next interval.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/popularity.hpp"
#include "behavior/preference.hpp"
#include "twin/udt.hpp"
#include "video/catalog.hpp"

namespace dtmsv::analysis {

/// A recommended playlist for one multicast group.
struct Recommendation {
  /// Ordered video ids (category-interleaved by preference weight).
  std::vector<std::uint64_t> playlist;
  /// Group preference used to build it.
  behavior::PreferenceVector group_preference{};
  /// Videos drawn per category.
  std::array<std::size_t, video::kCategoryCount> per_category_counts{};
};

/// Recommender configuration.
struct RecommenderConfig {
  /// Playlist length per interval.
  std::size_t playlist_size = 40;
  /// Blend between popularity rank and catalog Zipf prior when popularity
  /// evidence is thin (0 = pure catalog prior, 1 = pure observed popularity).
  double popularity_weight = 0.7;
};

/// Aggregates member preference estimates into a group preference
/// (evidence-weighted mean of each member's twin estimate).
behavior::PreferenceVector aggregate_group_preference(
    const std::vector<const twin::UserDigitalTwin*>& members);

/// Builds the group playlist: category quota proportional to group
/// preference; within a category, the top of `ranking` first, padded by
/// catalog-popular videos not yet chosen.
Recommendation recommend(const video::Catalog& catalog,
                         const PopularityRanking& ranking,
                         const behavior::PreferenceVector& group_preference,
                         const RecommenderConfig& config);

}  // namespace dtmsv::analysis
