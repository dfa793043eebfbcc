// TwinColumnStore: the edge server's user digital twins (UDTs) — "UDTs are
// deployed on the edge server to store user status for individual user".
//
// One SoA ring-buffer column per attribute across ALL users (twin/
// columns.hpp) and one PreferenceEstimator per user. A user is a slot
// index; group consumers read the columns plus a span of member slots.
// The store keeps what its consumers read, not a fixed slot count: every
// column retains each user's samples within `retention_s` of that user's
// newest one and grows with the report rate, so a window that starts no
// earlier than `retention_s` before the newest sample is always complete.
// Batch feature extraction into a FeatureArena re-extracts every user's
// row on each call: every consumer reads a window ending at a new `now`,
// so no row of an earlier call could be reused. Rows are extracted
// independently (deterministic for any DTMSV_THREADS) with arithmetic
// bit-identical to the seed's per-twin AttributeSeries path.
#pragma once

#include <cstddef>
#include <vector>

#include "behavior/preference.hpp"
#include "twin/arena.hpp"
#include "twin/columns.hpp"
#include "util/clock.hpp"

namespace dtmsv::twin {

/// Columnar storage + batch extraction for a population of twins.
class TwinColumnStore {
 public:
  /// Number of feature channels per extracted window row.
  static constexpr std::size_t kFeatureChannels = 5 + video::kCategoryCount;
  /// Dimension of a summary-feature row.
  static constexpr std::size_t kSummaryDim = 6 + video::kCategoryCount;

  /// `retention_s`: the longest span any consumer reads back from the
  /// newest sample (Simulation: feature window plus reporting latency;
  /// ServeLoop: the feature window). kKeepAll keeps everything.
  TwinColumnStore(std::size_t user_count, double retention_s);

  std::size_t user_count() const { return estimators_.size(); }
  double retention_s() const { return channel_.retention_s(); }

  // --- ingestion ---
  void record_channel(std::size_t u, util::SimTime t, const ChannelObservation& obs);
  void record_location(std::size_t u, util::SimTime t, const mobility::Position& pos);
  /// Feeds the preference estimator (category + engagement seconds), then
  /// appends the watch sample — the twin-side preference update.
  void record_watch(std::size_t u, util::SimTime t, const WatchObservation& obs);
  void record_preference(std::size_t u, util::SimTime t,
                         const behavior::PreferenceVector& estimate);

  /// Applies preference forgetting to one user / every user (once per
  /// interval).
  void decay_preference(std::size_t u);
  void decay_preferences();

  /// Slot recycling for handover: the user's rings empty (O(1), nothing
  /// reallocated) and the estimator resets, so the slot's next feature row
  /// carries nothing of the departed user.
  void reset_user(std::size_t u);

  // --- reads: the running preference estimator fed by watch ingestion,
  // and the columns (for_each_in_window + the flat value lanes) ---
  const behavior::PreferenceEstimator& estimator(std::size_t u) const {
    return estimators_[u];
  }
  /// User `u`'s latest preference snapshot; the estimator's estimate
  /// before the first one.
  behavior::PreferenceVector latest_preference(std::size_t u) const;
  const ChannelColumn& channel_column() const { return channel_; }
  const LocationColumn& location_column() const { return location_; }
  const WatchColumn& watch_column() const { return watch_; }
  const PreferenceColumn& preference_column() const { return preference_; }

  // --- batch extraction into a pooled arena ---

  /// Materialises every user's [kFeatureChannels x timesteps] window ending
  /// at `spec.now` and spanning `spec.window_s` seconds into `arena` and
  /// returns a view over it. Row layout is channel-major (the layout the
  /// 1D-CNN consumes):
  ///   0: normalised SNR            1: spectral efficiency / 6
  ///   2: normalised x              3: normalised y
  ///   4: mean watch fraction       5..: preference weight per category
  /// Each channel is resampled to `spec.timesteps` uniform bins; empty bins
  /// carry the previous bin's value (zero-order hold; zeros before the
  /// first sample). Rows split across the pool,
  /// each written by one worker, so the bytes are identical for any
  /// DTMSV_THREADS.
  WindowBatch feature_windows(const WindowSpec& spec, FeatureArena& arena) const;

  /// Compact per-user summary for stages that skip the CNN ([kSummaryDim]
  /// per user): normalised mean/std SNR, mean position, mean/std watch
  /// fraction, then the latest preference snapshot (the estimator's
  /// estimate before the first one).
  SummaryBatch summary_features(const SummarySpec& spec, FeatureArena& arena) const;

  /// Single-row extraction (spot checks). `out` must
  /// hold kFeatureChannels * spec.timesteps floats / kSummaryDim doubles.
  void extract_window_row(std::size_t u, const WindowSpec& spec, float* out) const;
  void extract_summary_row(std::size_t u, const SummarySpec& spec, double* out) const;

 private:
  struct RowScratch;
  void extract_window_row(std::size_t u, const WindowSpec& spec, float* out,
                          RowScratch& scratch) const;

  ChannelColumn channel_;
  LocationColumn location_;
  WatchColumn watch_;
  PreferenceColumn preference_;
  std::vector<behavior::PreferenceEstimator> estimators_;
};

}  // namespace dtmsv::twin
