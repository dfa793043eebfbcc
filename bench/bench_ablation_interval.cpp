// ABL-INT (README, *Experiment index*) — ablation of the resource
// reservation interval. The paper fixes it at 5 minutes; this bench sweeps
// it and reports prediction accuracy plus the provisioning consequences
// (how much spectrum a planner reserving prediction + 10% headroom wastes
// or misses), and the per-stage wall-time breakdown of the interval loop
// (compression vs. grouping vs. demand prediction vs. environment
// simulation) as a console table.
//
// Shape to reproduce: short intervals track the system closely but are
// noisy (few videos per interval); very long intervals average nicely but
// react slowly; a knee sits around the paper's choice.
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace dtmsv;

struct IntervalResult {
  double interval_s = 0.0;
  bench::RunSeries series;
  double waste_frac = 0.0;  // over-reserved fraction of actual demand
  double unmet_frac = 0.0;  // unmet fraction of actual demand
  core::StageTimings timings;  // measured over the reported intervals only
};

IntervalResult run_interval_config(double interval_s, double total_sim_s) {
  core::SchemeConfig config = bench::sweep_config(/*seed=*/5);
  config.interval_s = interval_s;
  config.demand.interval_s = interval_s;
  config.feature_window_s = 2.0 * interval_s;
  const auto intervals = static_cast<std::size_t>(total_sim_s / interval_s);

  core::Simulation sim(config);
  IntervalResult result;
  result.interval_s = interval_s;
  // Warm up one third, report the rest.
  const std::size_t warmup = intervals / 3;
  bench::run_series(sim, warmup);
  sim.reset_stage_timings();  // attribute stage cost to the scored slice only
  result.series = bench::run_series(sim, intervals - warmup);
  result.timings = sim.stage_timings();

  // Provisioning outcome for a planner reserving prediction x 1.1.
  double reserved_hz_s = 0.0;
  double actual_hz_s = 0.0;
  double waste = 0.0;
  double unmet = 0.0;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const double reserved = result.series.predicted_radio[i] * 1.1;
    const double actual = result.series.actual_radio[i];
    reserved_hz_s += reserved * interval_s;
    actual_hz_s += actual * interval_s;
    if (reserved >= actual) {
      waste += (reserved - actual) * interval_s;
    } else {
      unmet += (actual - reserved) * interval_s;
    }
  }
  if (actual_hz_s > 0.0) {
    result.waste_frac = waste / actual_hz_s;
    result.unmet_frac = unmet / actual_hz_s;
  }
  return result;
}

}  // namespace

int main() {
  // Equal simulated wall-clock per configuration so comparisons are fair.
  constexpr double kTotalSimS = 9000.0;  // 2.5 simulated hours

  const std::vector<double> intervals_s = {60.0, 120.0, 300.0, 600.0, 900.0};
  std::vector<IntervalResult> results;
  for (const double interval : intervals_s) {
    std::cout << "reservation interval " << interval << " s..." << std::endl;
    results.push_back(run_interval_config(interval, kTotalSimS));
  }

  util::Table table({"interval", "scored intervals", "radio accuracy",
                     "compute accuracy", "waste (10% headroom)", "unmet demand"});
  for (const auto& r : results) {
    table.add_row({util::fixed(r.interval_s, 0) + " s",
                   std::to_string(r.series.size()),
                   util::percent(r.series.radio_accuracy(), 2),
                   util::percent(r.series.compute_accuracy(), 2),
                   util::percent(r.waste_frac, 1), util::percent(r.unmet_frac, 1)});
  }
  table.print("ABL-INT: reservation interval sweep (paper uses 300 s)");

  // Per-stage wall-time breakdown: where each configuration's interval loop
  // actually spends its time (per simulated interval, milliseconds).
  util::Table stages({"interval", "simulate ms", "feature ms", "grouping ms",
                      "demand ms", "pipeline share"});
  for (const auto& r : results) {
    const auto n = static_cast<double>(std::max<std::size_t>(r.timings.intervals, 1));
    const double total = r.timings.total_s();
    stages.add_row({util::fixed(r.interval_s, 0) + " s",
                    util::fixed(1e3 * r.timings.simulate_s / n, 2),
                    util::fixed(1e3 * r.timings.feature_s / n, 2),
                    util::fixed(1e3 * r.timings.grouping_s / n, 2),
                    util::fixed(1e3 * r.timings.demand_s / n, 2),
                    total > 0.0 ? util::percent(r.timings.pipeline_s() / total, 1)
                                : "-"});
  }
  stages.print("ABL-INT: per-stage wall time per interval");
  return 0;
}
