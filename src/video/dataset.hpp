// Synthetic stand-in for the "public short-video-streaming-challenge
// dataset" the paper evaluates on (video bitrates + users' swiping
// behaviours). The real dataset is not redistributable in this offline
// environment; this generator reproduces its published statistical shape:
//   * 5-rung bitrate ladders around 750/1200/1850/2850/4300 kbps,
//   * clip durations 5–60 s (log-uniform, skewing short),
//   * heavy-tailed watch fractions whose mean rises with the viewer's
//     affinity for the clip's category (early-swipe spike + finishers).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "video/catalog.hpp"

namespace dtmsv::video {

/// One viewing event: a user watched `watch_fraction` of a video before
/// swiping (or watched it to completion when watch_fraction == 1).
struct SwipeRecord {
  std::uint64_t user_id = 0;
  std::uint64_t video_id = 0;
  Category category = Category::kNews;
  double duration_s = 0.0;
  double watch_fraction = 0.0;  // in [0, 1]
  double watch_seconds = 0.0;   // watch_fraction * duration_s
};

/// Generator parameters.
struct DatasetConfig {
  CatalogConfig catalog;
  std::size_t user_count = 100;
  std::size_t sessions_per_user = 50;
  /// Dirichlet concentration for per-user category affinity; smaller values
  /// produce more polarised users (clearer multicast group structure).
  double affinity_concentration = 0.35;
  /// Probability a viewer abandons within the first 2 s regardless of
  /// affinity (the "instant swipe" spike every short-video platform shows).
  double instant_swipe_prob = 0.18;
  /// Affinity-to-engagement shape: mean watch fraction for affinity a is
  /// roughly base + gain * a (clamped to [0, 1]).
  double engagement_base = 0.25;
  double engagement_gain = 2.2;
};

/// A generated dataset: catalog + swipe trace.
class Dataset {
 public:
  static Dataset generate(const DatasetConfig& config, util::Rng& rng);

  const Catalog& catalog() const { return catalog_; }
  const std::vector<SwipeRecord>& records() const { return records_; }
  std::size_t user_count() const { return user_count_; }

  /// Per-user category affinity vectors used during generation (ground
  /// truth for clustering experiments).
  const std::vector<std::array<double, kCategoryCount>>& affinities() const {
    return affinities_;
  }

  /// Mean watch fraction per category across the whole trace.
  std::array<double, kCategoryCount> mean_watch_fraction_by_category() const;

  /// Records of a single user.
  std::vector<const SwipeRecord*> records_of(std::uint64_t user_id) const;

  /// CSV round-trip of the swipe trace (catalog is regenerated from config,
  /// so only behavioural rows are persisted).
  std::string trace_to_csv() const;
  static std::vector<SwipeRecord> trace_from_csv(const std::string& csv_text);

 private:
  Catalog catalog_;
  std::vector<SwipeRecord> records_;
  std::vector<std::array<double, kCategoryCount>> affinities_;
  std::size_t user_count_ = 0;
};

/// Samples a single watch fraction for a viewer with the given affinity for
/// the video's category, using the dataset's engagement model. Exposed so
/// the live behaviour simulator (behavior::WatchDurationModel) and the
/// offline dataset share one code path.
double sample_watch_fraction(double affinity, const DatasetConfig& config,
                             util::Rng& rng);

}  // namespace dtmsv::video
