// Group-level swiping probability abstraction — the paper's key analysis
// step: "users' watching duration on each kind of video is utilized to
// update multicast groups' swiping probability distributions."
//
// For each (group, category) we maintain an empirical distribution of watch
// fractions with exponential forgetting. Its CDF evaluated at fraction t is
// the probability a member swipes away by normalized position t — the curve
// Fig. 3(a) of the paper plots cumulatively per category.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "twin/column_store.hpp"
#include "video/catalog.hpp"

namespace dtmsv::analysis {

/// Empirical watch-fraction distribution over a fixed fraction grid.
class SwipingDistribution {
 public:
  /// `bins`: resolution of the fraction grid on [0, 1];
  /// `forgetting`: multiplier applied to accumulated mass per decay() call.
  explicit SwipingDistribution(std::size_t bins = 20, double forgetting = 0.7);

  /// Accumulates one observed watch fraction for `category`.
  void observe(video::Category category, double watch_fraction);

  /// Applies exponential forgetting (call once per reservation interval).
  void decay();

  /// P(swipe by fraction <= t) for the category; linear interpolation on the
  /// grid. Falls back to the all-category distribution when the category has
  /// no mass, and to t (uniform) when nothing has been observed at all.
  double cumulative_swipe_probability(video::Category category, double t) const;

  /// Expected watch fraction E[X] for the category (same fallbacks).
  double expected_watch_fraction(video::Category category) const;

  /// Expected maximum watch fraction among `k` independent viewers,
  /// E[max(X1..Xk)] — the multicast stream must stay up until the last
  /// group member swipes. Computed as sum over the grid of (1 - F(t)^k)·dt.
  double expected_max_watch_fraction(video::Category category, std::size_t k) const;

  /// Total observation mass currently retained for a category.
  double mass(video::Category category) const;

  std::size_t bin_count() const { return bins_; }

 private:
  const std::vector<double>& weights_for(video::Category category) const;
  double cumulative_from(const std::vector<double>& weights, double t) const;

  std::size_t bins_;
  double forgetting_;
  std::array<std::vector<double>, video::kCategoryCount> per_category_;
  std::vector<double> all_;
};

/// Builds a group's swiping distribution from the watch histories of
/// `members` (slots of `twins`) over [now - window_s, now), members in
/// span order, samples oldest first.
SwipingDistribution build_group_swiping(const twin::TwinColumnStore& twins,
                                        std::span<const std::size_t> members,
                                        util::SimTime now, double window_s,
                                        std::size_t bins = 20, double forgetting = 0.7);

}  // namespace dtmsv::analysis
