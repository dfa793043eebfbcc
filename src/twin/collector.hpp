// BS-side status collection: samples ground truth (channel, location, watch
// events, preference) into the UDTs, each attribute at its own period, with
// optional report loss and latency — the imperfect uplink between the
// physical user and its twin.
#pragma once

#include <cstddef>
#include <vector>

#include "behavior/session.hpp"
#include "mobility/random_waypoint.hpp"
#include "twin/column_store.hpp"
#include "util/rng.hpp"
#include "wireless/channel.hpp"

namespace dtmsv::twin {

/// Per-attribute collection policy.
struct CollectionPolicy {
  double channel_period_s = 1.0;     // fast: link adaptation feedback
  double location_period_s = 5.0;    // medium: positioning reports
  double preference_period_s = 60.0; // slow: derived preference snapshot
  /// Probability an individual report is lost (uplink erasure).
  double report_loss_prob = 0.0;
  /// Fixed reporting latency applied to each report's timestamp visibility;
  /// reports become queryable only latency_s after measurement.
  double latency_s = 0.0;
};

/// Collection statistics (observability for failure-injection tests).
struct CollectorStats {
  std::size_t channel_reports = 0;
  std::size_t location_reports = 0;
  std::size_t watch_reports = 0;
  std::size_t preference_reports = 0;
  std::size_t dropped_reports = 0;
};

/// Drives per-attribute sampling into a TwinColumnStore.
class StatusCollector {
 public:
  StatusCollector(CollectionPolicy policy, std::size_t user_count, util::Rng rng);

  /// Called once per simulation tick (`dt` seconds at time `now`, *after*
  /// the channel/mobility/session models advanced to `now`). Watch events
  /// that finished inside the tick are passed in `events`.
  void tick(util::SimTime now, double dt, TwinColumnStore& store,
            const wireless::ChannelModel& channel,
            const mobility::MobilityField& mobility,
            const std::vector<behavior::ViewEvent>& events);

  const CollectorStats& stats() const { return stats_; }
  const CollectionPolicy& policy() const { return policy_; }

 private:
  bool due(double& next_due, util::SimTime now, double period) const;
  bool deliver();  // applies loss probability

  CollectionPolicy policy_;
  util::Rng rng_;
  CollectorStats stats_;
  double next_channel_ = 0.0;
  double next_location_ = 0.0;
  double next_preference_ = 0.0;
};

}  // namespace dtmsv::twin
