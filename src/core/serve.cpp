#include "core/serve.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace dtmsv::core {

// ------------------------------------------------------------- degradation

std::vector<DegradationLevel> DegradationPolicyConfig::default_ladder() {
  return {{"cnn", "cnn"}, {"summary", "summary"}};
}

DegradationPolicy::DegradationPolicy(DegradationPolicyConfig config)
    : config_(std::move(config)) {
  DTMSV_EXPECTS_MSG(!config_.ladder.empty(),
                    "DegradationPolicy: ladder must have at least one rung");
  DTMSV_EXPECTS_MSG(config_.step_down_after > 0 && config_.step_up_after > 0,
                    "DegradationPolicy: hysteresis counts must be positive");
}

std::optional<std::size_t> DegradationPolicy::record(bool deadline_hit) {
  if (deadline_hit) {
    consecutive_misses_ = 0;
    ++consecutive_hits_;
    if (level_ > 0 && consecutive_hits_ >= config_.step_up_after) {
      consecutive_hits_ = 0;
      --level_;
      return level_;
    }
    return std::nullopt;
  }
  consecutive_hits_ = 0;
  ++consecutive_misses_;
  if (level_ + 1 < config_.ladder.size() &&
      consecutive_misses_ >= config_.step_down_after) {
    consecutive_misses_ = 0;
    ++level_;
    return level_;
  }
  return std::nullopt;
}

// -------------------------------------------------------------- validation

void validate(const ServeConfig& config) {
  validate(config.scheme);
  DTMSV_EXPECTS_MSG(config.deadline_ms > 0.0,
                    "ServeConfig: deadline_ms must be positive");
  DTMSV_EXPECTS_MSG(config.queue_capacity > 0,
                    "ServeConfig: queue_capacity must be positive");
  DTMSV_EXPECTS_MSG(!config.degradation.ladder.empty(),
                    "ServeConfig: degradation ladder must have at least one rung");
  DTMSV_EXPECTS_MSG(config.degradation.step_down_after > 0 &&
                        config.degradation.step_up_after > 0,
                    "ServeConfig: degradation hysteresis counts must be positive");
  const StageRegistry& registry = StageRegistry::instance();
  for (const DegradationLevel& level : config.degradation.ladder) {
    if (!registry.has_feature(level.feature_stage)) {
      throw util::PreconditionError(
          "ServeConfig: ladder rung '" + level.name +
          "' names unregistered feature stage '" + level.feature_stage + "'");
    }
  }
}

double latency_percentile(const std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 100.0);
  // Nearest-rank: the smallest value with at least q% of the sample at or
  // below it.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

// -------------------------------------------------------------- serve loop

ServeLoop::ServeLoop(const ServeConfig& config, ServeClock& clock,
                     ReportSink* sink)
    : config_((validate(config), config)),
      clock_(&clock),
      sink_(sink),
      rng_(config.scheme.seed),
      catalog_(video::Catalog::generate(config.scheme.session.engagement.catalog,
                                        rng_)),
      content_(predict::ContentStats::from_catalog(catalog_)),
      twins_(std::make_unique<twin::TwinStore>(config.scheme.user_count)),
      queue_(config.queue_capacity),
      popularity_(config.scheme.popularity_forgetting),
      policy_(config.degradation),
      cluster_rng_(0),
      preference_dirty_(config.scheme.user_count, 0) {
  // The batch Simulation's RNG fork schedule for the stage streams:
  // the feature stage may draw from rng_.fork(6), the grouping stage from
  // rng_.fork(7), the clustering stream is fork(9) (see StageRegistry
  // docs). Every ladder rung shares one feature-stage fork source so the
  // ladder *length* does not change the grouping/demand streams.
  const StageRegistry& registry = StageRegistry::instance();
  util::Rng feature_fork_source = rng_.fork(6);
  SchemeConfig stage_config = config_.scheme;
  feature_stages_.reserve(config_.degradation.ladder.size());
  for (std::size_t i = 0; i < config_.degradation.ladder.size(); ++i) {
    const DegradationLevel& level = config_.degradation.ladder[i];
    stage_config.feature_stage = level.feature_stage;
    util::Rng rung_rng = feature_fork_source.fork(i);
    feature_stages_.push_back(
        registry.make_feature(level.feature_stage, stage_config, rung_rng));
  }
  grouping_stage_ = registry.make_grouping(grouping_stage_key(config_.scheme),
                                           config_.scheme, rng_);
  demand_stage_ = registry.make_demand(demand_stage_key(config_.scheme),
                                       config_.scheme, rng_);
  cluster_rng_ = rng_.fork(9);
}

namespace {

/// True when a watch report names a catalog video under its catalog
/// category (which also rules out values outside the Category enum), with
/// non-negative durations and a watch fraction in the range
/// SwipingDistribution::observe accepts.
bool valid_watch(const twin::WatchObservation& watch, const video::Catalog& catalog) {
  return std::isfinite(watch.duration_s) && std::isfinite(watch.watch_seconds) &&
         std::isfinite(watch.watch_fraction) && watch.video_id < catalog.size() &&
         catalog.video(watch.video_id).category == watch.category &&
         watch.duration_s >= 0.0 && watch.watch_seconds >= 0.0 &&
         watch.watch_fraction >= 0.0 && watch.watch_fraction <= 1.0 + 1e-9;
}

/// True when every number a report carries is finite and a watch payload
/// is valid_watch().
bool valid_report(const TwinEvent& event, const video::Catalog& catalog) {
  if (!std::isfinite(event.time)) {
    return false;
  }
  switch (event.kind) {
    case TwinEvent::Kind::kChannel:
      return std::isfinite(event.channel.snr_db) &&
             std::isfinite(event.channel.efficiency_bps_hz);
    case TwinEvent::Kind::kLocation:
      return std::isfinite(event.position.x) && std::isfinite(event.position.y);
    case TwinEvent::Kind::kWatch:
      return valid_watch(event.watch, catalog);
  }
  return false;
}

}  // namespace

void ServeLoop::offer(const TwinEvent& event) {
  if (event.user >= config_.scheme.user_count || !valid_report(event, catalog_) ||
      event.time < latest_admitted_) {
    ++stats_.events_rejected;
    return;
  }
  latest_admitted_ = event.time;
  queue_.push(event);
}

void ServeLoop::advance_to(util::SimTime t) {
  DTMSV_EXPECTS_MSG(t >= now_, "ServeLoop: event time must be monotonic");
  const double interval_s = config_.scheme.interval_s;
  while (true) {
    const util::SimTime boundary =
        static_cast<double>(interval_ + 1) * interval_s;
    if (boundary > t) {
      break;
    }
    queue_.drain_until(boundary, [this](const TwinEvent& e) { ingest(e); });
    fire_prediction(boundary);
  }
  queue_.drain_until(t, [this](const TwinEvent& e) { ingest(e); });
  now_ = t;
}

void ServeLoop::ingest(const TwinEvent& event) {
  const std::size_t u = event.user;
  twin::TwinColumnStore& columns = twins_->columns();
  switch (event.kind) {
    case TwinEvent::Kind::kChannel:
      columns.record_channel(u, event.time, event.channel);
      break;
    case TwinEvent::Kind::kLocation:
      columns.record_location(u, event.time, event.position);
      break;
    case TwinEvent::Kind::kWatch:
      columns.record_watch(u, event.time, event.watch);
      popularity_.observe(event.watch.video_id, event.watch.watch_seconds);
      preference_dirty_[u] = 1;
      break;
  }
  ++stats_.events_ingested;
}

void ServeLoop::report_drops() {
  const std::uint64_t dropped = queue_.stats().dropped;
  if (dropped == reported_drops_) {
    return;
  }
  const std::uint64_t fresh = dropped - reported_drops_;
  reported_drops_ = dropped;
  stats_.events_dropped += fresh;
  if (sink_ != nullptr) {
    DropEvent event;
    event.interval = interval_;
    event.dropped = fresh;
    event.queue_capacity = queue_.capacity();
    event.queue_size = queue_.size();
    sink_->on_drop(event);
  }
}

void ServeLoop::snapshot_preferences(util::SimTime at) {
  // The collector-side preference rows the batch loop records every
  // visibility period: one estimator snapshot per user that accumulated
  // watch evidence since the last one. The rows are twin history: they
  // feed the preference channels of the feature windows and the summary
  // rows' preference vector, so which users get one decides the
  // predictions. A user without new evidence gets none, as in batch mode.
  twin::TwinColumnStore& columns = twins_->columns();
  for (std::size_t u = 0; u < preference_dirty_.size(); ++u) {
    if (preference_dirty_[u] != 0) {
      columns.record_preference(u, at, columns.estimator(u).estimate());
      preference_dirty_[u] = 0;
    }
  }
}

void ServeLoop::fire_prediction(util::SimTime at) {
  // Surface sheds accumulated since the previous prediction first, so a
  // consumer replaying the NDJSON stream sees the overload before the
  // (possibly degraded) interval it affected.
  report_drops();
  snapshot_preferences(at);

  const std::size_t level = policy_.level();
  const DegradationLevel& rung = policy_.at(level);

  TwinSnapshot snapshot;
  snapshot.twins = twins_.get();
  snapshot.now = at;
  snapshot.window_s = config_.scheme.feature_window_s;
  snapshot.timesteps = config_.scheme.feature_timesteps;
  snapshot.scaling = config_.scaling;
  snapshot.arena = &arena_;
  const double t0 = clock_->now_s();
  const PredictionPass pass = predict_groups(
      snapshot, *feature_stages_[level], *grouping_stage_, *demand_stage_,
      cluster_rng_, {config_.scheme, catalog_, popularity_, content_});
  const double t1 = clock_->now_s();
  const double latency_ms = (t1 - t0) * 1e3;
  const bool deadline_hit = latency_ms <= config_.deadline_ms;

  ++stats_.intervals;
  stats_.latencies_ms.push_back(latency_ms);
  if (!deadline_hit) {
    ++stats_.deadline_misses;
  }

  // Serve mode has no simulated ground truth, so the actual_* fields stay
  // zero and no bias feedback runs. Groups are numbered by cluster index.
  EpochReport report;
  report.interval = interval_;
  report.has_prediction = true;
  report.grouped = true;
  report.k = pass.k;
  report.silhouette = pass.silhouette;
  report.ddqn_epsilon = pass.epsilon;
  report.reconstruction_loss = pass.reconstruction_loss;
  report.events_rejected = stats_.events_rejected - reported_rejects_;
  reported_rejects_ = stats_.events_rejected;
  for (const GroupPrediction& group : pass.groups) {
    GroupReport group_report;
    group_report.group_id = group.cluster;
    group_report.size = group.members.size();
    group_report.predicted_efficiency = group.forecast.efficiency;
    group_report.predicted_radio_hz = group.forecast.demand.radio_hz;
    group_report.predicted_compute_cycles = group.forecast.demand.compute_cycles;
    report.predicted_radio_hz_total += group_report.predicted_radio_hz;
    report.predicted_compute_total += group_report.predicted_compute_cycles;
    if (sink_ != nullptr) {
      sink_->on_group(group_report, interval_);
    }
  }

  // Interval housekeeping (as in batch mode).
  twins_->decay_preferences();
  popularity_.decay();

  if (sink_ != nullptr) {
    sink_->on_interval(report);
  }

  if (const std::optional<std::size_t> to = policy_.record(deadline_hit)) {
    const bool recovering = *to < level;
    if (recovering) {
      ++stats_.steps_up;
    } else {
      ++stats_.steps_down;
    }
    if (sink_ != nullptr) {
      DegradationEvent event;
      event.interval = interval_;
      event.from_level = level;
      event.to_level = *to;
      event.from_name = rung.name;
      event.to_name = policy_.at(*to).name;
      event.latency_ms = latency_ms;
      event.deadline_ms = config_.deadline_ms;
      event.recovering = recovering;
      sink_->on_degradation(event);
    }
  }

  ++interval_;
}

}  // namespace dtmsv::core
