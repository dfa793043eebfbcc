// Group recommendation: combines edge-wide video popularity with the
// group's aggregated preference to produce the videos the group's multicast
// stream will carry next interval.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/popularity.hpp"
#include "behavior/preference.hpp"
#include "twin/column_store.hpp"
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

/// Aggregates the preference estimates of `members` (slots of `twins`) into
/// a group preference: the evidence-weighted mean of each member's latest
/// preference snapshot (its estimator's estimate before the first one).
behavior::PreferenceVector aggregate_group_preference(
    const twin::TwinColumnStore& twins, std::span<const std::size_t> members);

/// Builds the group playlist: category quota proportional to group
/// preference; within a category, the top of `ranking` first, padded by
/// catalog-popular videos not yet chosen.
Recommendation recommend(const video::Catalog& catalog,
                         const PopularityRanking& ranking,
                         const behavior::PreferenceVector& group_preference,
                         const RecommenderConfig& config);

}  // namespace dtmsv::analysis
