#include "twin/collector.hpp"

#include "util/error.hpp"

namespace dtmsv::twin {

StatusCollector::StatusCollector(CollectionPolicy policy, std::size_t user_count,
                                 util::Rng rng)
    : policy_(policy), rng_(std::move(rng)) {
  DTMSV_EXPECTS(user_count > 0);
  DTMSV_EXPECTS(policy.channel_period_s > 0.0);
  DTMSV_EXPECTS(policy.location_period_s > 0.0);
  DTMSV_EXPECTS(policy.preference_period_s > 0.0);
  DTMSV_EXPECTS(policy.report_loss_prob >= 0.0 && policy.report_loss_prob <= 1.0);
  DTMSV_EXPECTS(policy.latency_s >= 0.0);
}

bool StatusCollector::due(double& next_due, util::SimTime now, double period) const {
  if (now + 1e-9 < next_due) {
    return false;
  }
  // Schedule strictly from the previous due time so long ticks cannot drift
  // the sampling grid.
  while (next_due <= now + 1e-9) {
    next_due += period;
  }
  return true;
}

bool StatusCollector::deliver() {
  if (policy_.report_loss_prob <= 0.0) {
    return true;
  }
  return !rng_.bernoulli(policy_.report_loss_prob);
}

void StatusCollector::tick(util::SimTime now, double dt, TwinColumnStore& store,
                           const wireless::ChannelModel& channel,
                           const mobility::MobilityField& mobility,
                           const std::vector<behavior::ViewEvent>& events) {
  DTMSV_EXPECTS(dt > 0.0);
  DTMSV_EXPECTS(store.user_count() == channel.user_count());
  DTMSV_EXPECTS(store.user_count() == mobility.user_count());

  // The twin records a report at measurement time + reporting latency; the
  // window queries therefore see slightly delayed state, as in a real DT.
  const util::SimTime visible = now + policy_.latency_s;

  // Bulk reports write straight into the columnar store: one contiguous
  // (time, value) column per attribute.
  if (due(next_channel_, now, policy_.channel_period_s)) {
    for (std::size_t u = 0; u < store.user_count(); ++u) {
      if (!deliver()) {
        ++stats_.dropped_reports;
        continue;
      }
      const auto& s = channel.sample_of(u);
      store.record_channel(u, visible,
                           {s.snr_db, s.efficiency_bps_hz, s.serving_bs});
      ++stats_.channel_reports;
    }
  }

  if (due(next_location_, now, policy_.location_period_s)) {
    for (std::size_t u = 0; u < store.user_count(); ++u) {
      if (!deliver()) {
        ++stats_.dropped_reports;
        continue;
      }
      store.record_location(u, visible, mobility.position_of(u));
      ++stats_.location_reports;
    }
  }

  // Watch events are event-driven: reported as they complete.
  for (const auto& ev : events) {
    if (!deliver()) {
      ++stats_.dropped_reports;
      continue;
    }
    WatchObservation obs;
    obs.video_id = ev.video_id;
    obs.category = ev.category;
    obs.duration_s = ev.duration_s;
    obs.watch_seconds = ev.watch_seconds;
    obs.watch_fraction = ev.watch_fraction;
    obs.completed = ev.completed;
    store.record_watch(ev.user_id,
                       ev.start_time + ev.watch_seconds + policy_.latency_s, obs);
    ++stats_.watch_reports;
  }

  if (due(next_preference_, now, policy_.preference_period_s)) {
    for (std::size_t u = 0; u < store.user_count(); ++u) {
      if (!deliver()) {
        ++stats_.dropped_reports;
        continue;
      }
      store.record_preference(u, visible, store.estimator(u).estimate());
      ++stats_.preference_reports;
    }
  }
}

}  // namespace dtmsv::twin
