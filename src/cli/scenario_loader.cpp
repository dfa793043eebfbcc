#include "cli/scenario_loader.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/error.hpp"

namespace dtmsv::cli {

namespace {

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) {
      out += ", ";
    }
    out += item;
  }
  return out;
}

/// Stage keys must resolve in the registry *before* the run, so a config
/// typo fails with the key list instead of N intervals in.
void check_stage_keys(const std::vector<std::string>& features,
                      const std::string& grouping, const std::string& demand) {
  const core::StageRegistry& registry = core::StageRegistry::instance();
  const auto check = [](const char* kind, const std::string& key, bool known,
                        const std::vector<std::string>& keys) {
    if (!known) {
      throw util::RuntimeError(std::string("unknown ") + kind + " stage '" +
                               key + "' (known: " + join(keys) + ")");
    }
  };
  for (const std::string& feature : features) {
    check("feature", feature, registry.has_feature(feature),
          registry.feature_keys());
  }
  check("grouping", grouping, registry.has_grouping(grouping),
        registry.grouping_keys());
  check("demand", demand, registry.has_demand(demand), registry.demand_keys());
}

void read_run_settings(util::Config& config, RunSettings& run) {
  run.threads = config.get_size_or("run.threads", 0);
  run.report_path = config.get_or("run.report", "");
}

/// Called last: any key no getter read is a typo or belongs to the other
/// plan kind.
void reject_unread_keys(const util::Config& config) {
  const std::vector<std::string> unread = config.unread_keys();
  if (!unread.empty()) {
    throw util::RuntimeError("unknown config keys: " + join(unread));
  }
}

}  // namespace

core::ScenarioKind parse_scenario_kind(const std::string& name) {
  for (const core::ScenarioKind kind : core::all_scenarios()) {
    if (core::to_string(kind) == name) {
      return kind;
    }
  }
  std::vector<std::string> known;
  for (const core::ScenarioKind kind : core::all_scenarios()) {
    known.push_back(core::to_string(kind));
  }
  throw util::RuntimeError("unknown scenario kind '" + name +
                           "' (known: " + join(known) + ")");
}

SimPlan load_plan(util::Config& config) {
  SimPlan plan;
  read_run_settings(config, plan);

  // Grid dimensions: a [grid] list when present, otherwise the single value
  // from [scenario]/[stages] (empty stage key = the paper default wiring).
  // Setting both forms is an error — a single value silently shadowed by
  // the grid would defeat the "typos must not silently alter nothing"
  // contract for legitimate keys.
  const auto dimension = [&config](const std::string& grid_key,
                                   const std::string& single_key,
                                   const std::string& fallback) {
    std::vector<std::string> values = config.get_list(grid_key);
    if (!values.empty()) {
      if (config.has(single_key)) {
        throw util::RuntimeError("'" + grid_key + "' and '" + single_key +
                                 "' are both set; keep one");
      }
      return values;
    }
    values.push_back(config.get_or(single_key, fallback));
    return values;
  };

  std::vector<std::string> kinds = config.get_list("grid.scenario");
  if (kinds.empty()) {
    kinds.push_back(config.get("scenario.kind"));  // throws when absent
  } else if (config.has("scenario.kind")) {
    throw util::RuntimeError(
        "'grid.scenario' and 'scenario.kind' are both set; keep one");
  }
  const std::vector<std::string> seeds = dimension("grid.seed", "scenario.seed", "42");
  const std::vector<std::string> features =
      dimension("grid.feature", "stages.feature", "");
  const std::vector<std::string> groupings =
      dimension("grid.grouping", "stages.grouping", "");
  const std::vector<std::string> demands =
      dimension("grid.demand", "stages.demand", "");

  const std::size_t total_users = config.get_size_or("scenario.total_users", 240);
  const std::size_t cell_count = config.get_size_or("scenario.cell_count", 4);

  const bool stage_grid =
      features.size() > 1 || groupings.size() > 1 || demands.size() > 1;

  for (const std::string& kind_name : kinds) {
    const core::ScenarioKind kind = parse_scenario_kind(kind_name);
    for (const std::string& seed_text : seeds) {
      const std::uint64_t seed = util::parse_uint64(seed_text, "seed");
      for (const std::string& feature : features) {
        for (const std::string& grouping : groupings) {
          for (const std::string& demand : demands) {
            core::ScenarioConfig cfg =
                core::make_scenario(kind, total_users, cell_count, seed);
            cfg.intervals = config.get_size_or("scenario.intervals", cfg.intervals);
            cfg.surge_interval =
                config.get_size_or("scenario.surge_interval", cfg.surge_interval);
            cfg.surge_cell =
                config.get_size_or("scenario.surge_cell", cfg.surge_cell);
            cfg.surge_fraction =
                config.get_double_or("scenario.surge_fraction", cfg.surge_fraction);
            cfg.churn_fraction =
                config.get_double_or("scenario.churn_fraction", cfg.churn_fraction);
            cfg.drift_rate =
                config.get_double_or("scenario.drift_rate", cfg.drift_rate);
            cfg.drift_popularity_forgetting = config.get_double_or(
                "scenario.drift_popularity_forgetting",
                cfg.drift_popularity_forgetting);
            if (kind == core::ScenarioKind::kCatalogDrift) {
              // make_scenario folded its own defaults into the base; the
              // config-supplied rates must land there too.
              cfg.base.affinity_drift_rate = cfg.drift_rate;
              cfg.base.popularity_forgetting = cfg.drift_popularity_forgetting;
            }

            core::SchemeConfig& base = cfg.base;
            base.interval_s = config.get_double_or("scheme.interval_s", base.interval_s);
            base.demand.interval_s = base.interval_s;
            base.tick_s = config.get_double_or("scheme.tick_s", base.tick_s);
            base.warmup_intervals =
                config.get_size_or("scheme.warmup_intervals", base.warmup_intervals);
            base.feature_window_s = config.get_double_or("scheme.feature_window_s",
                                                         base.feature_window_s);
            base.feature_timesteps = config.get_size_or("scheme.feature_timesteps",
                                                        base.feature_timesteps);
            base.affinity_concentration = config.get_double_or(
                "scheme.affinity_concentration", base.affinity_concentration);
            base.affinity_drift_rate = config.get_double_or(
                "scheme.affinity_drift_rate", base.affinity_drift_rate);
            base.swiping_bins =
                config.get_size_or("scheme.swiping_bins", base.swiping_bins);
            base.swiping_forgetting = config.get_double_or(
                "scheme.swiping_forgetting", base.swiping_forgetting);
            base.popularity_forgetting = config.get_double_or(
                "scheme.popularity_forgetting", base.popularity_forgetting);
            base.online_bias_correction = config.get_bool_or(
                "scheme.online_bias_correction", base.online_bias_correction);
            base.session.engagement.catalog.videos_per_category =
                config.get_size_or("scheme.videos_per_category",
                                   base.session.engagement.catalog.videos_per_category);
            base.recommender.playlist_size = config.get_size_or(
                "scheme.playlist_size", base.recommender.playlist_size);

            base.grouping.k_min =
                config.get_size_or("grouping.k_min", base.grouping.k_min);
            base.grouping.k_max =
                config.get_size_or("grouping.k_max", base.grouping.k_max);
            base.grouping.kmeans.restarts = config.get_size_or(
                "grouping.kmeans_restarts", base.grouping.kmeans.restarts);

            // Empty grid/stage values keep the SchemeConfig defaults (the
            // paper wiring) — there is no empty-key fallback downstream.
            if (!feature.empty()) {
              base.feature_stage = feature;
            }
            if (!grouping.empty()) {
              base.grouping_stage = grouping;
            }
            if (!demand.empty()) {
              base.demand_stage = demand;
            }
            base.fixed_k = config.get_size_or("stages.fixed_k", base.fixed_k);
            check_stage_keys({base.feature_stage}, base.grouping_stage,
                             base.demand_stage);

            SimJob job;
            job.label = kind_name;
            if (seeds.size() > 1) {
              job.label += "/seed=" + seed_text;
            }
            if (stage_grid) {
              const auto name = [](const std::string& key) {
                return key.empty() ? std::string("default") : key;
              };
              job.label += "/";
              job.label += name(feature);
              job.label += "+";
              job.label += name(grouping);
              job.label += "+";
              job.label += name(demand);
            }
            job.scenario = std::move(cfg);
            plan.jobs.push_back(std::move(job));
          }
        }
      }
    }
  }

  reject_unread_keys(config);
  return plan;
}

ServePlan load_serve_plan(util::Config& config) {
  ServePlan plan;
  read_run_settings(config, plan);

  core::SchemeConfig& scheme = plan.serve.scheme;
  scheme.seed = config.get_uint64_or("serve.seed", scheme.seed);
  scheme.user_count = config.get_size_or("serve.user_count", 240);
  scheme.interval_s = config.get_double_or("serve.interval_s", 10.0);
  scheme.demand.interval_s = scheme.interval_s;
  // The serve loop never runs the tick simulator, but scheme validation
  // requires tick_s <= interval_s; keep it consistent for short intervals.
  scheme.tick_s = std::min(scheme.tick_s, scheme.interval_s);
  scheme.warmup_intervals = 0;
  scheme.feature_window_s =
      config.get_double_or("serve.feature_window_s", scheme.feature_window_s);
  scheme.feature_timesteps =
      config.get_size_or("serve.feature_timesteps", scheme.feature_timesteps);
  scheme.grouping_stage = config.get_or("serve.grouping", scheme.grouping_stage);
  scheme.demand_stage = config.get_or("serve.demand", scheme.demand_stage);
  scheme.fixed_k = config.get_size_or("serve.fixed_k", scheme.fixed_k);
  scheme.session.engagement.catalog.videos_per_category = config.get_size_or(
      "serve.videos_per_category",
      scheme.session.engagement.catalog.videos_per_category);

  plan.intervals = config.get_size_or("serve.intervals", plan.intervals);
  if (plan.intervals == 0) {
    throw util::RuntimeError("serve.intervals must be positive");
  }
  plan.serve.deadline_ms = config.get_double_or("serve.deadline_ms", 50.0);
  plan.serve.queue_capacity = config.get_size_or("serve.queue_capacity", 4096);

  // A ladder item is a feature key and names its own rung. Two rungs with
  // one key would do the same work, so stepping between them buys nothing.
  const std::vector<std::string> ladder = config.get_list("serve.ladder");
  for (auto it = ladder.begin(); it != ladder.end(); ++it) {
    if (std::find(ladder.begin(), it, *it) != it) {
      throw util::RuntimeError("serve.ladder lists feature stage '" + *it +
                               "' twice");
    }
  }
  check_stage_keys(ladder, scheme.grouping_stage, scheme.demand_stage);
  if (!ladder.empty()) {
    plan.serve.degradation.ladder.clear();
    for (const std::string& key : ladder) {
      plan.serve.degradation.ladder.push_back({key, key});
    }
  }
  plan.serve.degradation.step_down_after = config.get_size_or(
      "serve.step_down_after", plan.serve.degradation.step_down_after);
  plan.serve.degradation.step_up_after = config.get_size_or(
      "serve.step_up_after", plan.serve.degradation.step_up_after);

  core::ServeWorkloadConfig& workload = plan.workload;
  workload.seed = config.get_uint64_or("workload.seed", workload.seed);
  workload.user_count = scheme.user_count;
  workload.channel_period_s =
      config.get_double_or("workload.channel_period_s", workload.channel_period_s);
  workload.location_period_s = config.get_double_or("workload.location_period_s",
                                                    workload.location_period_s);
  workload.watch_period_s =
      config.get_double_or("workload.watch_period_s", workload.watch_period_s);
  workload.affinity_concentration = config.get_double_or(
      "workload.affinity_concentration", workload.affinity_concentration);
  // The workload samples videos from the loop's catalog, so share its
  // generation parameters; the walk extent matches the feature scaling.
  workload.engagement = scheme.session.engagement;
  workload.extent_x = plan.serve.scaling.pos_x_scale;
  workload.extent_y = plan.serve.scaling.pos_y_scale;

  plan.overload_start = config.get_size_or("workload.overload_start", 0);
  plan.overload_intervals = config.get_size_or("workload.overload_intervals", 0);
  plan.overload_multiplier =
      config.get_double_or("workload.overload_multiplier", 1.0);
  if (plan.overload_intervals > 0) {
    if (plan.overload_multiplier <= 0.0) {
      throw util::RuntimeError("workload.overload_multiplier must be positive");
    }
    if (plan.overload_start >= plan.intervals) {
      throw util::RuntimeError(
          "workload.overload_start (" + std::to_string(plan.overload_start) +
          ") must be below serve.intervals (" + std::to_string(plan.intervals) +
          "), or the overload window never fires");
    }
  }

  core::validate(plan.serve);
  reject_unread_keys(config);
  return plan;
}

ServeRun run_serve(const ServePlan& plan, core::ServeClock& clock,
                   core::ReportSink* sink) {
  core::ServeLoop loop(plan.serve, clock, sink);
  core::ServeWorkload workload(plan.workload, loop.catalog());

  const double interval_s = plan.serve.scheme.interval_s;
  std::vector<core::TwinEvent> events;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < plan.intervals; ++i) {
    const bool overload = plan.overload_intervals > 0 &&
                          i >= plan.overload_start &&
                          i < plan.overload_start + plan.overload_intervals;
    workload.set_rate_multiplier(overload ? plan.overload_multiplier : 1.0);
    events.clear();
    workload.generate(static_cast<double>(i) * interval_s,
                      static_cast<double>(i + 1) * interval_s, events);
    for (const core::TwinEvent& event : events) {
      loop.offer(event);
    }
    loop.advance_to(static_cast<double>(i + 1) * interval_s);
  }

  ServeRun run;
  run.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  run.stats = loop.stats();
  run.final_level = loop.degradation().level();
  return run;
}

}  // namespace dtmsv::cli
