// Serving-mode latency/throughput benchmark: drives a core::ServeLoop with
// ServeWorkload traffic (cli::run_serve, the loop behind `dtmsv` serve
// mode) under the production SteadyServeClock and reports
// per-prediction latency percentiles (p50/p95/p99) plus sustained ingestion
// throughput (events/sec). Two scenarios land in BENCH_serve.json (gated by
// tools/bench_diff.py in CI):
//
//   SERVE_steady    nominal traffic, paper pipeline at full fidelity
//   SERVE_overload  flash-crowd phase (8x rates into a small queue) that
//                   forces sheds and degradation-ladder activity
//
// Manual harness (no google-benchmark state loop): one serve run is the
// natural measurement unit, and the interesting numbers are the loop's own
// latency record, not an averaged wall time.
#include <string>
#include <utility>
#include <vector>

#include "bench_to_json.hpp"
#include "cli/scenario_loader.hpp"
#include "core/serve.hpp"
#include "util/table.hpp"

namespace {

using namespace dtmsv;

cli::ServePlan bench_plan() {
  cli::ServePlan plan;
  plan.intervals = 12;
  core::ServeConfig& cfg = plan.serve;
  cfg.scheme.seed = 42;
  cfg.scheme.user_count = 120;
  cfg.scheme.interval_s = 10.0;
  cfg.scheme.demand.interval_s = 10.0;
  cfg.scheme.warmup_intervals = 0;
  cfg.scheme.feature_window_s = 60.0;
  cfg.scheme.feature_timesteps = 16;
  cfg.deadline_ms = 50.0;
  plan.workload.seed = 7;
  plan.workload.user_count = cfg.scheme.user_count;
  plan.workload.engagement = cfg.scheme.session.engagement;
  return plan;
}

}  // namespace

int main() {
  cli::ServePlan overload = bench_plan();
  overload.serve.queue_capacity = 2048;  // small enough for the surge to shed
  overload.overload_start = 4;
  overload.overload_intervals = 4;
  overload.overload_multiplier = 8.0;
  const std::vector<std::pair<std::string, cli::ServePlan>> scenarios = {
      {"SERVE_steady", bench_plan()}, {"SERVE_overload", overload}};

  util::Table table({"scenario", "p50 ms", "p95 ms", "p99 ms", "events/s",
                     "miss rate", "dropped", "down", "up"});
  std::vector<bench::ManualBenchResult> json;
  core::SteadyServeClock clock;
  for (const auto& [name, plan] : scenarios) {
    const cli::ServeRun r = cli::run_serve(plan, clock);
    const double p50 = core::latency_percentile(r.stats.latencies_ms, 50.0);
    const double p95 = core::latency_percentile(r.stats.latencies_ms, 95.0);
    const double p99 = core::latency_percentile(r.stats.latencies_ms, 99.0);
    const double events_per_s =
        r.wall_s > 0.0 ? static_cast<double>(r.stats.events_ingested) / r.wall_s
                       : 0.0;
    const double miss_rate =
        r.stats.intervals > 0
            ? static_cast<double>(r.stats.deadline_misses) /
                  static_cast<double>(r.stats.intervals)
            : 0.0;
    table.add_row({name, util::fixed(p50, 2), util::fixed(p95, 2),
                   util::fixed(p99, 2), util::fixed(events_per_s, 0),
                   util::fixed(miss_rate, 3),
                   std::to_string(r.stats.events_dropped),
                   std::to_string(r.stats.steps_down),
                   std::to_string(r.stats.steps_up)});
    json.push_back(
        {name,
         r.wall_s,
         {{"p50_ms", p50},
          {"p95_ms", p95},
          {"p99_ms", p99},
          {"events_per_s", events_per_s},
          {"miss_rate", miss_rate},
          {"events_ingested", static_cast<double>(r.stats.events_ingested)},
          {"events_dropped", static_cast<double>(r.stats.events_dropped)},
          {"steps_down", static_cast<double>(r.stats.steps_down)},
          {"steps_up", static_cast<double>(r.stats.steps_up)}}});
  }
  table.print("serving-mode latency and throughput");
  bench::write_manual_benchmarks_json("BENCH_serve.json", json);
  return 0;
}
