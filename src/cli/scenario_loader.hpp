// Declarative configs -> runnable plans for the `dtmsv` CLI (tools/dtmsv.cpp).
//
// A util::Config parsed from an INI file becomes either a SimPlan (batch
// scenario jobs through the multi-cell fleet) or a ServePlan (the always-on
// serving loop under synthetic traffic), so a new workload variation is a
// 15-line config instead of a recompiled .cpp. Both loaders share one
// contract: typed getters with named errors, stage keys validated against
// core::StageRegistry up front, and any key left unread rejected, so a typo
// in a declarative config cannot silently alter nothing.
//
// Scenario keys (all optional unless stated; defaults come from
// core::make_scenario's smoke-friendly base):
//
//   [scenario] kind (required unless [grid] scenario is set) |
//              total_users | cell_count | intervals | seed |
//              surge_interval | surge_cell | surge_fraction |
//              churn_fraction | drift_rate | drift_popularity_forgetting
//   [stages]   feature | grouping | demand  (StageRegistry keys) | fixed_k
//   [scheme]   interval_s | tick_s | warmup_intervals | feature_window_s |
//              feature_timesteps | affinity_concentration |
//              affinity_drift_rate | swiping_bins | swiping_forgetting |
//              popularity_forgetting | online_bias_correction |
//              videos_per_category | playlist_size
//   [grouping] k_min | k_max | kmeans_restarts
//   [grid]     scenario | seed | feature | grouping | demand — comma lists;
//              the plan is the cross product (the ablation-grid config).
//              A grid list and its single-value form (grid.seed vs
//              scenario.seed, grid.feature vs stages.feature, ...) are
//              mutually exclusive — the single value would be silently
//              shadowed, so setting both is an error
//
// Serve keys: [serve] and [workload] (see configs/serve_steady.ini for the
// reference config and README.md ("Serving mode") for the key reference).
//
// Both: [run] threads (0 = hardware default) | report (NDJSON output path).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/scenarios.hpp"
#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "util/config.hpp"

namespace dtmsv::cli {

/// The [run] section, shared by both plan kinds.
struct RunSettings {
  std::size_t threads = 0;   // [run] threads; 0 = library default
  std::string report_path;   // [run] report; empty = no NDJSON stream
};

/// One scenario run of the plan. `label` is unique within the plan
/// ("flash_crowd", or "flash_crowd/seed=7/summary+elbow+mean" for grid
/// cells).
struct SimJob {
  std::string label;
  core::ScenarioConfig scenario;
};

/// Everything a driver needs to execute a scenario config file.
struct SimPlan : RunSettings {
  std::vector<SimJob> jobs;  // 1 for plain configs, the cross product for grids
};

/// One serve run: the loop config, the synthetic workload driving it, and
/// the overload phase (rate multiplier applied to a window of intervals).
struct ServePlan : RunSettings {
  std::size_t intervals = 12;       // [serve] intervals to fire
  core::ServeConfig serve{};
  core::ServeWorkloadConfig workload{};
  /// Overload phase: workload rate multiplied by `overload_multiplier`
  /// for intervals [overload_start, overload_start + overload_intervals).
  std::size_t overload_start = 0;
  std::size_t overload_intervals = 0;
  double overload_multiplier = 1.0;
};

/// "steady_state" -> ScenarioKind::kSteadyState etc.; throws
/// util::RuntimeError listing the valid names on anything else.
core::ScenarioKind parse_scenario_kind(const std::string& name);

/// Builds the scenario plan. Reads every recognised key from `config` and
/// then rejects the file if any key was left unread. Numeric values are
/// range-checked by core::validate at Simulation construction.
SimPlan load_plan(util::Config& config);

/// Parses the ladder item syntax "key" or "key:full" (e.g. "cnn:full, cnn,
/// summary"); the rung name is the item text itself.
core::DegradationLevel parse_ladder_level(const std::string& item);

/// Builds the serve plan, validating everything (registry keys, ladder
/// syntax, positive budgets, an overload window that fires) and throwing
/// util::RuntimeError on unknown keys.
ServePlan load_serve_plan(util::Config& config);

/// Outcome of run_serve: the loop's counters, the ladder rung it ended on,
/// and the wall time of the interval loop (construction excluded).
struct ServeRun {
  core::ServeStats stats;
  std::size_t final_level = 0;
  double wall_s = 0.0;
};

/// Drives one ServeLoop through `plan.intervals` intervals: per interval,
/// set the workload rate (overload window or nominal), generate its
/// reports, offer them, and advance to the boundary. `sink` may be null.
ServeRun run_serve(const ServePlan& plan, core::ServeClock& clock,
                   core::ReportSink* sink = nullptr);

}  // namespace dtmsv::cli
