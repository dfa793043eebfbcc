#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "util/error.hpp"

namespace dtmsv::core {

void validate(const SchemeConfig& config) {
  DTMSV_EXPECTS_MSG(config.user_count > 0, "SchemeConfig: user_count must be > 0");
  DTMSV_EXPECTS_MSG(config.interval_s > 0.0, "SchemeConfig: interval_s must be > 0");
  DTMSV_EXPECTS_MSG(config.tick_s > 0.0, "SchemeConfig: tick_s must be > 0");
  DTMSV_EXPECTS_MSG(config.tick_s <= config.interval_s,
                    "SchemeConfig: interval_s must be >= tick_s");
  DTMSV_EXPECTS_MSG(config.feature_window_s > 0.0,
                    "SchemeConfig: feature_window_s must be > 0");
  DTMSV_EXPECTS_MSG(config.feature_timesteps >= 8,
                    "SchemeConfig: feature_timesteps must be >= 8");
  DTMSV_EXPECTS_MSG(config.swiping_bins >= 2,
                    "SchemeConfig: swiping_bins must be >= 2");
  DTMSV_EXPECTS_MSG(
      config.swiping_forgetting > 0.0 && config.swiping_forgetting <= 1.0,
      "SchemeConfig: swiping_forgetting must be in (0, 1]");
  DTMSV_EXPECTS_MSG(
      config.popularity_forgetting > 0.0 && config.popularity_forgetting <= 1.0,
      "SchemeConfig: popularity_forgetting must be in (0, 1]");
  DTMSV_EXPECTS_MSG(
      config.affinity_drift_rate >= 0.0 && config.affinity_drift_rate <= 1.0,
      "SchemeConfig: affinity_drift_rate must be in [0, 1]");
  DTMSV_EXPECTS_MSG(config.grouping.k_min >= 1,
                    "SchemeConfig: grouping.k_min must be >= 1");
  DTMSV_EXPECTS_MSG(config.grouping.k_min <= config.grouping.k_max,
                    "SchemeConfig: grouping.k_min must be <= k_max");
  DTMSV_EXPECTS_MSG(config.demand.interval_s > 0.0,
                    "SchemeConfig: demand.interval_s must be > 0");
}

Simulation::Simulation(const SchemeConfig& config)
    : config_(config),
      rng_((validate(config), config.seed)),
      campus_(mobility::CampusMap::waterloo_campus()),
      catalog_(video::Catalog::generate(config.session.engagement.catalog, rng_)),
      content_(predict::ContentStats::from_catalog(catalog_)),
      twins_(config.user_count, config.feature_window_s + config.collection.latency_s),
      popularity_(config.popularity_forgetting),
      phy_(config.demand.efficiency_floor),
      playback_rng_(0),
      cluster_rng_(0),
      drift_rng_(0),
      handover_rng_(0) {
  util::Rng fork_source = rng_.fork(1);
  mobility_ = std::make_unique<mobility::MobilityField>(
      campus_, config.mobility, config.user_count, fork_source);
  util::Rng channel_rng = rng_.fork(2);
  channel_ = std::make_unique<wireless::ChannelModel>(campus_, config.radio,
                                                      config.user_count, channel_rng);
  collector_ = std::make_unique<twin::StatusCollector>(config.collection,
                                                       config.user_count, rng_.fork(3));

  affinities_.reserve(config.user_count);
  util::Rng affinity_rng = rng_.fork(4);
  for (std::size_t u = 0; u < config.user_count; ++u) {
    affinities_.push_back(
        behavior::sample_affinity(config.affinity_concentration, affinity_rng));
  }

  warmup_sessions_.reserve(config.user_count);
  util::Rng session_rng = rng_.fork(5);
  for (std::size_t u = 0; u < config.user_count; ++u) {
    warmup_sessions_.emplace_back(u, catalog_, config.session, affinities_[u],
                                  session_rng.fork(u));
  }

  // Stage construction order is part of the reproducible RNG schedule: the
  // feature stage may draw from rng_.fork(6), the grouping stage from
  // rng_.fork(7) (see StageRegistry docs).
  const StageRegistry& registry = StageRegistry::instance();
  feature_stage_ = registry.make_feature(feature_stage_key(config_), config_, rng_);
  grouping_stage_ = registry.make_grouping(grouping_stage_key(config_), config_, rng_);
  demand_stage_ = registry.make_demand(demand_stage_key(config_), config_, rng_);
  playback_rng_ = rng_.fork(8);
  cluster_rng_ = rng_.fork(9);
  drift_rng_ = rng_.fork(10);
  handover_rng_ = rng_.fork(11);
}

Simulation::~Simulation() = default;

const twin::CollectorStats& Simulation::collector_stats() const {
  return collector_->stats();
}

namespace {

[[noreturn]] void throw_group_out_of_range(const char* accessor, std::size_t g,
                                           std::size_t count) {
  throw util::RuntimeError(std::string(accessor) + ": group index " +
                           std::to_string(g) + " out of range (" +
                           std::to_string(count) + " active groups)");
}

}  // namespace

const std::vector<std::size_t>& Simulation::group_members(std::size_t g) const {
  if (g >= groups_.size()) {
    throw_group_out_of_range("group_members", g, groups_.size());
  }
  return groups_[g].members;
}

const analysis::SwipingDistribution& Simulation::group_swiping(std::size_t g) const {
  if (g >= groups_.size()) {
    throw_group_out_of_range("group_swiping", g, groups_.size());
  }
  return groups_[g].swiping;
}

const behavior::PreferenceVector& Simulation::group_preference(std::size_t g) const {
  if (g >= groups_.size()) {
    throw_group_out_of_range("group_preference", g, groups_.size());
  }
  return groups_[g].preference;
}

const analysis::Recommendation& Simulation::group_recommendation(std::size_t g) const {
  if (g >= groups_.size()) {
    throw_group_out_of_range("group_recommendation", g, groups_.size());
  }
  return groups_[g].recommendation;
}

std::size_t Simulation::most_preferring_group(video::Category category) const {
  if (groups_.empty()) {
    throw util::RuntimeError("most_preferring_group: no active multicast groups");
  }
  std::size_t best = 0;
  double best_weight = -1.0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const double w = groups_[g].preference[static_cast<std::size_t>(category)];
    if (w > best_weight) {
      best_weight = w;
      best = g;
    }
  }
  return best;
}

double Simulation::group_live_efficiency(const Group& g) const {
  std::vector<double> effs;
  effs.reserve(g.members.size());
  for (const std::size_t u : g.members) {
    effs.push_back(channel_->sample_of(u).efficiency_bps_hz);
  }
  return phy_.group_efficiency(effs);
}

void Simulation::start_group_video(Group& g, util::SimTime at) {
  const auto& playlist = g.recommendation.playlist;
  std::uint64_t video_id = 0;
  if (!playlist.empty()) {
    video_id = playlist[g.playlist_pos % playlist.size()];
    ++g.playlist_pos;
  } else {
    // Degenerate recommendation: fall back to a popularity sample.
    const auto cat = video::all_categories()[static_cast<std::size_t>(
        playback_rng_.uniform_int(0, static_cast<std::int64_t>(video::kCategoryCount) - 1))];
    video_id = catalog_.sample_from_category(cat, playback_rng_).id;
  }
  const video::Video& v = catalog_.video(video_id);
  g.current = &v;
  g.video_started = at;
  g.events_emitted = false;

  const double eff = group_live_efficiency(g);
  const double budget_kbps = config_.demand.group_bandwidth_budget_hz * eff / 1e3;
  g.rung = v.ladder.best_rung_within(budget_kbps);

  const auto cat_idx = static_cast<std::size_t>(v.category);
  g.member_watch_s.assign(g.members.size(), 0.0);
  double max_watch = 0.0;
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    const behavior::PreferenceVector aff =
        behavior::normalized(affinities_[g.members[i]]);
    const double frac = video::sample_watch_fraction(
        aff[cat_idx], config_.session.engagement, playback_rng_);
    g.member_watch_s[i] = std::min(frac, 1.0) * v.duration_s;
    max_watch = std::max(max_watch, g.member_watch_s[i]);
  }
  // Floor the on-air window at 0.2 s, but never above the clip length:
  // std::clamp with lo > hi (a sub-0.2 s clip) is undefined behaviour.
  const double min_on_air = std::min(0.2, v.duration_s);
  g.on_air_s =
      std::clamp(max_watch + config_.demand.prefetch_s, min_on_air, v.duration_s);
  // Members planning to outlast the on-air window are truncated to it so
  // watch events never exceed what was actually transmitted.
  for (double& w : g.member_watch_s) {
    w = std::min(w, g.on_air_s);
  }
}

void Simulation::advance_group(Group& g, util::SimTime from, double dt,
                               std::vector<behavior::ViewEvent>& events) {
  double remaining = dt;
  util::SimTime t = from;
  while (remaining > 1e-9) {
    if (g.gap_remaining_s > 0.0) {
      const double consume = std::min(g.gap_remaining_s, remaining);
      g.gap_remaining_s -= consume;
      t += consume;
      remaining -= consume;
      continue;
    }
    if (g.current == nullptr) {
      start_group_video(g, t);
    }
    const double elapsed = t - g.video_started;
    const double left_on_air = g.on_air_s - elapsed;
    if (left_on_air <= 1e-9) {
      // Video leaves the air: emit each member's watch event.
      for (std::size_t i = 0; i < g.members.size(); ++i) {
        behavior::ViewEvent ev;
        ev.user_id = g.members[i];
        ev.video_id = g.current->id;
        ev.category = g.current->category;
        ev.start_time = g.video_started;
        ev.duration_s = g.current->duration_s;
        ev.watch_seconds = g.member_watch_s[i];
        ev.watch_fraction =
            std::min(1.0, g.member_watch_s[i] / std::max(g.current->duration_s, 1e-9));
        ev.completed = g.member_watch_s[i] >= g.current->duration_s - 1e-9;
        events.push_back(ev);
      }
      ++g.videos_played;
      g.current = nullptr;
      g.gap_remaining_s = config_.demand.swipe_gap_s;
      continue;
    }

    const double step = std::min(left_on_air, remaining);
    const double eff = group_live_efficiency(g);
    const double bitrate_bps = g.current->ladder.kbps(g.rung) * 1e3;
    const double bits = bitrate_bps * step;
    g.bits += bits;
    g.hz_seconds += bits / eff;
    if (g.rung + 1 < g.current->ladder.rung_count()) {
      g.compute_cycles += config_.demand.transcode.cycles_per_bit * bits;
    }
    g.efficiency_time_integral += eff * step;
    g.on_air_time += step;

    // Unicast counterfactual: each member still watching would receive a
    // private stream link-adapted to their own channel.
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      if (elapsed >= g.member_watch_s[i]) {
        continue;  // member already swiped away
      }
      const double member_step = std::min(step, g.member_watch_s[i] - elapsed);
      const double member_eff =
          std::max(channel_->sample_of(g.members[i]).efficiency_bps_hz,
                   phy_.min_efficiency_floor());
      const double budget_kbps =
          config_.demand.group_bandwidth_budget_hz * member_eff / 1e3;
      const double member_bitrate_bps =
          g.current->ladder.kbps(g.current->ladder.best_rung_within(budget_kbps)) * 1e3;
      g.unicast_hz_seconds += member_bitrate_bps * member_step / member_eff;
    }
    t += step;
    remaining -= step;
  }
}

void Simulation::tick(std::vector<behavior::ViewEvent>& events, util::SimTime t0,
                      util::SimTime t1) {
  const double dt = t1 - t0;
  mobility_->advance(dt);
  channel_->step(mobility_->snapshot());

  if (groups_.empty()) {
    for (auto& session : warmup_sessions_) {
      session.advance(t0, dt, events);
    }
  } else {
    for (auto& g : groups_) {
      advance_group(g, t0, dt, events);
    }
  }
  now_ = t1;
  ++tick_count_;
  collector_->tick(now_, dt, twins_, *channel_, *mobility_, events);
  for (const auto& ev : events) {
    popularity_.observe(ev.video_id, ev.watch_seconds);
  }
}

void Simulation::drift_affinities() {
  const double rate = std::min(config_.affinity_drift_rate, 1.0);
  for (std::size_t u = 0; u < affinities_.size(); ++u) {
    // Drift targets come from a dedicated stream: drawing them from the
    // playback stream would make toggling affinity_drift_rate perturb
    // group playback, breaking A/B comparability across scenarios.
    const behavior::PreferenceVector target =
        behavior::sample_affinity(config_.affinity_concentration, drift_rng_);
    for (std::size_t c = 0; c < affinities_[u].size(); ++c) {
      affinities_[u][c] = (1.0 - rate) * affinities_[u][c] + rate * target[c];
    }
    // A convex combination of distributions already sums to 1 up to the
    // same rounding a renormalising divide would leave, so the vector is
    // used as-is; renormalising here would perturb bits even for drift
    // nudges small enough to be absorbed entirely.
    if (groups_.empty() && u < warmup_sessions_.size()) {
      warmup_sessions_[u].set_affinity(affinities_[u]);
    }
  }
}

behavior::PreferenceVector Simulation::handover_user(
    std::size_t slot, const behavior::PreferenceVector& incoming) {
  DTMSV_EXPECTS(slot < affinities_.size());
  behavior::PreferenceVector outgoing = affinities_[slot];
  // Stored verbatim (no renormalisation): a handover between cells must be
  // an exact exchange, so fleet-level churn conserves the population
  // bitwise. Callers pass affinities that are already distributions.
  affinities_[slot] = incoming;
  // The newcomer enters the cell at a fresh waypoint with fresh large- and
  // small-scale channel state; their twin starts empty (the serving BS has
  // no history for an arriving user, so the pipeline must re-learn them).
  mobility_->reseat(slot, handover_rng_.fork(slot));
  channel_->reset_user(slot, handover_rng_);
  twins_.reset_user(slot);
  if (slot < warmup_sessions_.size()) {
    warmup_sessions_[slot].set_affinity(affinities_[slot]);
  }
  return outgoing;
}

void Simulation::predict_next_interval(EpochReport& report) {
  TwinSnapshot snapshot;
  snapshot.twins = &twins_;
  snapshot.now = now_;
  snapshot.window_s = config_.feature_window_s;
  snapshot.timesteps = config_.feature_timesteps;
  snapshot.scaling =
      twin::FeatureScaling{campus_.width(), campus_.height(), 10.0, 40.0};
  snapshot.arena = &feature_arena_;
  PredictionPass pass =
      predict_groups(snapshot, *feature_stage_, *grouping_stage_, *demand_stage_,
                     cluster_rng_, {config_, catalog_, popularity_, content_});
  report.k = pass.k;
  report.silhouette = pass.silhouette;
  report.ddqn_epsilon = pass.epsilon;
  report.reconstruction_loss = pass.reconstruction_loss;
  timings_.feature_s += pass.feature_s;
  timings_.grouping_s += pass.grouping_s;
  timings_.demand_s += pass.demand_s;

  groups_.clear();
  for (GroupPrediction& prediction : pass.groups) {
    Group& group = groups_.emplace_back(std::move(prediction));
    if (!config_.online_bias_correction) {
      continue;
    }
    predict::ResourceDemand& predicted = group.forecast.demand;
    if (radio_bias_.has_value()) {
      const double f = std::clamp(radio_bias_.value(), 0.7, 1.3);
      predicted.radio_hz *= f;
      predicted.transmitted_bits *= f;
    }
    if (compute_bias_.has_value()) {
      predicted.compute_cycles *= std::clamp(compute_bias_.value(), 0.5, 1.5);
    }
  }
}

EpochReport Simulation::run_interval_impl(ReportSink* sink) {
  EpochReport report;
  report.interval = interval_;
  report.grouped = !groups_.empty();

  // Ticks are scheduled by integer index within the interval: accumulating
  // now_ += tick_s in floating point drifts after thousands of intervals
  // (tick counts change once the error outgrows the boundary guard), so
  // each tick's endpoints are computed from the index instead and the
  // interval lands exactly on its nominal boundary. When tick_s does not
  // divide interval_s the final tick is truncated to the boundary.
  const double t_sim0 = wall_s();
  const util::SimTime interval_start = now_;
  const util::SimTime interval_end =
      static_cast<double>(interval_ + 1) * config_.interval_s;
  const auto ticks = static_cast<std::size_t>(
      std::ceil((interval_end - interval_start) / config_.tick_s - 1e-9));
  std::vector<behavior::ViewEvent> events;
  for (std::size_t i = 0; i < ticks; ++i) {
    const util::SimTime t0 =
        interval_start + static_cast<double>(i) * config_.tick_s;
    const util::SimTime t1 =
        i + 1 == ticks
            ? interval_end
            : interval_start + static_cast<double>(i + 1) * config_.tick_s;
    events.clear();
    tick(events, t0, t1);
  }
  timings_.simulate_s += wall_s() - t_sim0;

  // Score the predictions made at the start of this interval.
  if (report.grouped) {
    report.has_prediction = true;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const Group& grp = groups_[g];
      GroupReport gr;
      gr.group_id = g;
      gr.size = grp.members.size();
      gr.rung = grp.rung;
      gr.predicted_efficiency = grp.forecast.efficiency;
      gr.realized_efficiency =
          grp.on_air_time > 0.0 ? grp.efficiency_time_integral / grp.on_air_time : 0.0;
      gr.predicted_radio_hz = grp.forecast.demand.radio_hz;
      gr.actual_radio_hz = grp.hz_seconds / config_.interval_s;
      gr.predicted_compute_cycles = grp.forecast.demand.compute_cycles;
      gr.actual_compute_cycles = grp.compute_cycles;
      gr.unicast_radio_hz = grp.unicast_hz_seconds / config_.interval_s;
      gr.videos_played = grp.videos_played;

      report.predicted_radio_hz_total += gr.predicted_radio_hz;
      report.actual_radio_hz_total += gr.actual_radio_hz;
      report.predicted_compute_total += gr.predicted_compute_cycles;
      report.actual_compute_total += gr.actual_compute_cycles;
      report.unicast_radio_hz_total += gr.unicast_radio_hz;
      if (sink != nullptr) {
        sink->on_group(gr, report.interval);
      } else {
        report.groups.push_back(gr);
      }
    }
    if (report.actual_radio_hz_total > 0.0) {
      report.radio_error =
          std::abs(report.predicted_radio_hz_total - report.actual_radio_hz_total) /
          report.actual_radio_hz_total;
    }
    if (report.actual_compute_total > 0.0) {
      report.compute_error =
          std::abs(report.predicted_compute_total - report.actual_compute_total) /
          report.actual_compute_total;
    }
    // Delayed reward for learning grouping stages (no-op otherwise).
    grouping_stage_->report_outcome(report.radio_error);
    // Online residual calibration: remember how far off this interval's
    // forecast was so the next one can be rescaled.
    if (config_.online_bias_correction) {
      if (report.predicted_radio_hz_total > 0.0 && report.actual_radio_hz_total > 0.0) {
        radio_bias_.add(std::clamp(
            report.actual_radio_hz_total / report.predicted_radio_hz_total, 0.5, 2.0));
      }
      if (report.predicted_compute_total > 0.0 && report.actual_compute_total > 0.0) {
        compute_bias_.add(std::clamp(
            report.actual_compute_total / report.predicted_compute_total, 0.5, 2.0));
      }
    }
  }

  // Interval housekeeping.
  twins_.decay_preferences();
  popularity_.decay();
  if (config_.affinity_drift_rate > 0.0) {
    drift_affinities();
  }

  // Re-cluster and predict for the next interval once warm-up is over.
  if (interval_ + 1 >= static_cast<util::IntervalId>(config_.warmup_intervals)) {
    predict_next_interval(report);
  }

  ++interval_;
  ++timings_.intervals;
  if (sink != nullptr) {
    sink->on_interval(report);
  }
  return report;
}

EpochReport Simulation::run_interval() { return run_interval_impl(nullptr); }

void Simulation::run_interval(ReportSink& sink) { run_interval_impl(&sink); }

void Simulation::save_models(std::ostream& os) const {
  const bool feature = feature_stage_->has_learned_state();
  const bool grouping = grouping_stage_->has_learned_state();
  DTMSV_EXPECTS_MSG(feature || grouping,
                    "save_models: no learned models in this configuration");
  os << (feature ? 1 : 0) << ' ' << (grouping ? 1 : 0) << '\n';
  if (feature) {
    feature_stage_->save_state(os);
  }
  if (grouping) {
    grouping_stage_->save_state(os);
  }
}

void Simulation::load_models(std::istream& is) {
  int has_feature = 0;
  int has_grouping = 0;
  is >> has_feature >> has_grouping;
  if (!is) {
    throw util::RuntimeError("load_models: malformed header");
  }
  if ((has_feature != 0) != feature_stage_->has_learned_state() ||
      (has_grouping != 0) != grouping_stage_->has_learned_state()) {
    throw util::RuntimeError(
        "load_models: saved models do not match this configuration");
  }
  if (has_feature != 0) {
    feature_stage_->load_state(is);
  }
  if (has_grouping != 0) {
    grouping_stage_->load_state(is);
  }
}

std::vector<EpochReport> Simulation::run(std::size_t n) {
  std::vector<EpochReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reports.push_back(run_interval());
  }
  return reports;
}

void Simulation::run(std::size_t n, ReportSink& sink) {
  for (std::size_t i = 0; i < n; ++i) {
    run_interval(sink);
  }
}

}  // namespace dtmsv::core
