#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/fleet.hpp"
#include "core/scenarios.hpp"
#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "core/simulation.hpp"
#include "decorators.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace dtmsv;

namespace {

// Episode lengths: long enough that every episode reaches the pipeline's
// steady state, short enough that a run repeats set-up several times.
constexpr std::size_t kCellIntervals = 24;
constexpr std::size_t kServeSteadyIntervals = 30;
constexpr std::size_t kServeIngestIntervals = 12;
constexpr std::size_t kFleetIntervals = 6;
constexpr std::size_t kFleetUsers = 10000;
constexpr std::size_t kFleetCells = 16;
constexpr std::size_t kServeUsers = 120;

/// FNV-1a over the exact bits of the digested values.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digests and checks everything the pipeline reports.
class CheckingSink final : public core::ReportSink {
 public:
  CheckingSink(const core::SchemeConfig& scheme, Episode& episode)
      : k_min_(scheme.grouping.k_min),
        k_max_(scheme.grouping.k_max),
        warmup_(scheme.warmup_intervals),
        episode_(episode) {}

  void on_group(const core::GroupReport& group, util::IntervalId interval) override {
    {
      const ScopedSpan span("sink");
      ++episode_.attempted;
      const bool sane = std::isfinite(group.predicted_radio_hz) &&
                        std::isfinite(group.predicted_compute_cycles) &&
                        group.predicted_radio_hz >= 0.0 &&
                        group.predicted_compute_cycles >= 0.0;
      if (!sane) {
        ++episode_.failed;
        error("interval " + std::to_string(interval) + " group " +
              std::to_string(group.group_id) + ": non-finite or negative demand");
      }
      digest_.add(static_cast<std::uint64_t>(interval));
      digest_.add(static_cast<std::uint64_t>(group.group_id));
      digest_.add(static_cast<std::uint64_t>(group.size));
      digest_.add(group.predicted_radio_hz);
      digest_.add(group.predicted_compute_cycles);
    }
    mark_abstraction_start();
  }

  void on_interval(const core::EpochReport& report) override {
    {
      const ScopedSpan span("sink");
      const bool grouped =
          report.interval + 1 >= static_cast<util::IntervalId>(warmup_);
      if (grouped && (report.k < k_min_ || report.k > k_max_)) {
        error("interval " + std::to_string(report.interval) + ": K=" +
              std::to_string(report.k) + " outside [" + std::to_string(k_min_) +
              ", " + std::to_string(k_max_) + "]");
      }
      digest_.add(static_cast<std::uint64_t>(report.interval));
      digest_.add(static_cast<std::uint64_t>(report.k));
      if (report.has_prediction) {
        radio_actual_.push_back(report.actual_radio_hz_total);
        radio_predicted_.push_back(report.predicted_radio_hz_total);
        compute_actual_.push_back(report.actual_compute_total);
        compute_predicted_.push_back(report.predicted_compute_total);
      }
    }
    mark_abstraction_start();
  }

  void on_handover(const core::HandoverEvent& event) override {
    digest_.add(static_cast<std::uint64_t>(event.shard_a));
    digest_.add(static_cast<std::uint64_t>(event.shard_b));
    digest_.add(static_cast<std::uint64_t>(event.slot_a));
    digest_.add(static_cast<std::uint64_t>(event.slot_b));
  }

  void error(std::string message) {
    if (episode_.errors.size() < 8) {
      episode_.errors.push_back(std::move(message));
    }
  }

  /// Accuracy over the intervals whose reports carried predictions (batch).
  void finish_accuracy() {
    episode_.radio_accuracy =
        util::prediction_accuracy(radio_actual_, radio_predicted_);
    episode_.compute_accuracy =
        util::volume_weighted_accuracy(compute_actual_, compute_predicted_);
  }

  std::uint64_t digest() const { return digest_.value(); }

 private:
  std::size_t k_min_;
  std::size_t k_max_;
  std::size_t warmup_;
  Episode& episode_;
  Digest digest_;
  std::vector<double> radio_actual_;
  std::vector<double> radio_predicted_;
  std::vector<double> compute_actual_;
  std::vector<double> compute_predicted_;
};

/// Times one reservation interval; when tracing, also opens its root span.
class IntervalTimer {
 public:
  IntervalTimer(Episode& episode, std::size_t interval, double simulated_s)
      : episode_(episode), simulated_s_(simulated_s) {
    Tracer& tracer = Tracer::instance();
    if (tracer.enabled()) {
      tracer.set_interval(interval, 0);
      root_ = tracer.open("interval");
      tracer.set_interval(interval, root_);
    }
    start_ = wall_s();
  }
  ~IntervalTimer() {
    const double elapsed = wall_s() - start_;
    if (root_ != 0) {
      Tracer::instance().close();
    }
    episode_.interval_ms.push_back(elapsed * 1e3);
    episode_.timed_s += elapsed;
    episode_.simulated_s += simulated_s_;
  }

  IntervalTimer(const IntervalTimer&) = delete;
  IntervalTimer& operator=(const IntervalTimer&) = delete;

 private:
  Episode& episode_;
  double simulated_s_;
  std::uint64_t root_ = 0;
  double start_ = 0.0;
};

void select_stages(core::SchemeConfig& scheme, bool traced) {
  if (traced) {
    scheme.feature_stage = traced_key(scheme.feature_stage);
    scheme.grouping_stage = traced_key(scheme.grouping_stage);
    scheme.demand_stage = traced_key(scheme.demand_stage);
  }
}

std::uint64_t collected_reports(const twin::CollectorStats& stats) {
  return stats.channel_reports + stats.location_reports + stats.watch_reports +
         stats.preference_reports;
}

// ------------------------------------------------------------- cell_paper

Episode cell_paper(std::uint64_t seed, bool traced) {
  core::SchemeConfig scheme;  // the paper's defaults
  scheme.seed = seed;
  select_stages(scheme, traced);

  Episode episode;
  CheckingSink sink(scheme, episode);
  const double t0 = wall_s();
  core::Simulation sim(scheme);
  episode.setup_s = wall_s() - t0;

  for (std::size_t i = 0; i < kCellIntervals; ++i) {
    const IntervalTimer timer(episode, i, scheme.interval_s);
    sim.run_interval(sink);
  }
  sink.finish_accuracy();
  episode.digest = sink.digest();
  episode.ingest_events = collected_reports(sim.collector_stats());
  episode.attempted += episode.ingest_events;
  return episode;
}

// ------------------------------------------------------------ fleet_churn

Episode fleet_churn(std::uint64_t seed, bool traced) {
  const core::ScenarioConfig scenario = core::make_scenario(
      core::ScenarioKind::kMobilityChurn, kFleetUsers, kFleetCells, seed);
  core::FleetConfig config;
  config.base = scenario.base;
  config.cell_count = scenario.cell_count;
  config.total_users = scenario.total_users;
  config.seed = scenario.seed;
  select_stages(config.base, traced);

  Episode episode;
  CheckingSink sink(config.base, episode);
  const double t0 = wall_s();
  core::SimulationFleet fleet(config);
  episode.setup_s = wall_s() - t0;

  std::vector<double> radio_actual;
  std::vector<double> radio_predicted;
  std::vector<double> compute_actual;
  std::vector<double> compute_predicted;
  for (std::size_t i = 0; i < kFleetIntervals; ++i) {
    core::FleetReport report;
    {
      const IntervalTimer timer(episode, i, config.base.interval_s);
      if (i > 0) {  // as run_scenario: churn before every interval but the first
        const ScopedSpan span("fleet.churn");
        episode.handovers += fleet.churn(scenario.churn_fraction, &sink);
      }
      report = fleet.run_interval(&sink);
    }
    if (!report.shard_radio_error.empty()) {
      radio_actual.push_back(report.actual_radio_hz_total);
      radio_predicted.push_back(report.predicted_radio_hz_total);
      compute_actual.push_back(report.actual_compute_total);
      compute_predicted.push_back(report.predicted_compute_total);
    }
  }
  episode.radio_accuracy = util::prediction_accuracy(radio_actual, radio_predicted);
  episode.compute_accuracy =
      util::volume_weighted_accuracy(compute_actual, compute_predicted);
  episode.digest = sink.digest();
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    episode.ingest_events += collected_reports(fleet.shard(s).collector_stats());
  }
  episode.attempted += episode.ingest_events;
  return episode;
}

// ------------------------------------------------------------------ serve

struct ServeShape {
  double interval_s = 10.0;
  double window_s = 60.0;
  std::size_t timesteps = 16;
  core::DegradationLevel rung;  // the ladder's only rung
  double rate_multiplier = 1.0;
  std::size_t intervals = 0;
};

Episode serve(const ServeShape& shape, std::uint64_t seed, bool traced) {
  core::ServeConfig config;
  config.scheme.seed = seed;
  config.scheme.user_count = kServeUsers;
  config.scheme.interval_s = shape.interval_s;
  config.scheme.demand.interval_s = shape.interval_s;
  config.scheme.warmup_intervals = 0;
  config.scheme.feature_window_s = shape.window_s;
  config.scheme.feature_timesteps = shape.timesteps;
  config.scheme.feature_stage = shape.rung.feature_stage;
  select_stages(config.scheme, traced);
  core::DegradationLevel rung = shape.rung;
  rung.feature_stage = config.scheme.feature_stage;
  config.degradation.ladder = {rung};

  Episode episode;
  CheckingSink sink(config.scheme, episode);
  core::SteadyServeClock clock;
  const double t0 = wall_s();
  core::ServeLoop loop(config, clock, &sink);
  episode.setup_s = wall_s() - t0;

  core::ServeWorkloadConfig traffic;
  traffic.seed = seed;
  traffic.user_count = kServeUsers;
  traffic.engagement = config.scheme.session.engagement;
  core::ServeWorkload workload(traffic, loop.catalog());
  workload.set_rate_multiplier(shape.rate_multiplier);

  const auto seconds = static_cast<std::size_t>(shape.interval_s);
  // One input buffer per process, reserved for twice the expected reports
  // per interval. Allocating it per episode, at an instance-dependent size,
  // moves the allocator between regimes, which shows up in set-up time and
  // peak memory.
  static std::vector<core::TwinEvent> events;
  const double reports_per_user_s =
      shape.rate_multiplier * (1.0 / traffic.channel_period_s +
                               1.0 / traffic.location_period_s +
                               1.0 / traffic.watch_period_s);
  events.reserve(static_cast<std::size_t>(2.0 * reports_per_user_s * kServeUsers *
                                          shape.interval_s));
  std::vector<std::size_t> second_end(seconds);
  std::uint64_t offered = 0;
  for (std::size_t i = 0; i < shape.intervals; ++i) {
    const double start = static_cast<double>(i) * shape.interval_s;
    const double boundary = start + shape.interval_s;
    events.clear();
    workload.generate(start, boundary, events);
    for (std::size_t s = 0; s < seconds; ++s) {
      const double until = start + static_cast<double>(s + 1);
      second_end[s] = static_cast<std::size_t>(
          std::partition_point(events.begin(), events.end(),
                               [until](const core::TwinEvent& e) { return e.time < until; }) -
          events.begin());
    }

    {
      const IntervalTimer timer(episode, i, shape.interval_s);
      std::size_t next = 0;
      for (std::size_t s = 0; s < seconds; ++s) {
        const ScopedSpan span("twin.ingest");
        for (; next < second_end[s]; ++next) {
          loop.offer(events[next]);
        }
        episode.queue_peak = std::max<std::uint64_t>(episode.queue_peak, loop.queue_size());
        // Drain everything up to the boundary first, so the boundary call
        // below carries only the prediction.
        const double until = start + static_cast<double>(s + 1);
        loop.advance_to(s + 1 == seconds ? std::nextafter(boundary, start) : until);
      }
      const double predict_start = wall_s();
      {
        const ScopedSpan span("serve.predict");
        loop.advance_to(boundary);
      }
      episode.predict_ms.push_back((wall_s() - predict_start) * 1e3);
    }
    offered += events.size();

    const core::ServeStats& stats = loop.stats();
    if (offered != stats.events_ingested + stats.events_dropped + loop.queue_size()) {
      sink.error("interval " + std::to_string(i) + ": offered " +
                 std::to_string(offered) + " != ingested + dropped + queued");
    }
  }
  const core::ServeStats& stats = loop.stats();
  episode.digest = sink.digest();
  episode.ingest_events = stats.events_ingested;
  episode.deadline_misses = stats.deadline_misses;
  episode.attempted += offered;
  episode.failed += stats.events_dropped;
  return episode;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"cell_paper",
       "the paper's headline path and accuracy: the environment tick loop and "
       "the 32-step CNN fit share the time",
       1, cell_paper},
      {"serve_steady",
       "nominal serve traffic: the CNN dominates each prediction and ingest "
       "barely registers",
       1,
       [](std::uint64_t seed, bool traced) {
         ServeShape shape;
         shape.rung = {"cnn_full", "cnn", /*full_extraction=*/true};
         shape.intervals = kServeSteadyIntervals;
         return serve(shape, seed, traced);
       }},
      {"serve_ingest",
       "8x report rates with the cheap summary rung: twin writes beside reads, "
       "and analysis plus grouping dominate the prediction",
       1,
       [](std::uint64_t seed, bool traced) {
         ServeShape shape;
         shape.interval_s = 30.0;
         shape.rung = {"summary", "summary", /*full_extraction=*/false};
         // Drained every second, the default 4096-report queue holds about
         // three seconds of 8x traffic, so it never sheds.
         shape.rate_multiplier = 8.0;
         shape.intervals = kServeIngestIntervals;
         return serve(shape, seed, traced);
       }},
      {"fleet_churn",
       "10k users over 16 cells with handovers: the only workload with "
       "parallel shards, stragglers and a serial set-up",
       0, fleet_churn},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench
