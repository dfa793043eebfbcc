// Video popularity tracking at the edge server: windowed view counts with
// exponential forgetting, feeding the recommender ("The recommended videos
// are updated based on video popularity and users' preferences").
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "video/catalog.hpp"

namespace dtmsv::analysis {

/// Observed videos of every category in rank order: score descending, ties
/// broken by ascending id for determinism. One prediction pass builds it
/// once (PopularityAnalyzer::rank) and every group's recommend() reads it.
struct PopularityRanking {
  std::array<std::vector<std::uint64_t>, video::kCategoryCount> by_category;

  /// Ranked ids of one category, most popular first.
  const std::vector<std::uint64_t>& in_category(video::Category c) const {
    return by_category[static_cast<std::size_t>(c)];
  }
};

/// Tracks per-video popularity scores.
class PopularityAnalyzer {
 public:
  /// `forgetting` in (0, 1]: score multiplier per decay() call.
  explicit PopularityAnalyzer(double forgetting = 0.8);

  /// Accumulates one view weighted by engagement (watched seconds).
  void observe(std::uint64_t video_id, double watch_seconds);

  /// Applies exponential forgetting (once per interval).
  void decay();

  /// Current score of a video (0 for never-seen).
  double score(std::uint64_t video_id) const;

  /// Ranks every tracked video within its catalog category (one sort of
  /// the scores). Every tracked id must be in `catalog`.
  PopularityRanking rank(const video::Catalog& catalog) const;

  std::size_t tracked_count() const { return scores_.size(); }

 private:
  double forgetting_;
  std::unordered_map<std::uint64_t, double> scores_;
};

}  // namespace dtmsv::analysis
