// Cross-module accounting tests: the multicast bookkeeping identities that
// tie the simulator's ground truth to the demand model's predictions —
// bits/bandwidth/cycles relationships, report aggregation, and counter-
// factual (unicast) consistency, swept over seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.hpp"
#include "util/stats.hpp"

namespace {

using namespace dtmsv;

core::SchemeConfig tiny_config(std::uint64_t seed) {
  core::SchemeConfig cfg;
  cfg.seed = seed;
  cfg.user_count = 30;
  cfg.interval_s = 60.0;
  cfg.demand.interval_s = cfg.interval_s;
  cfg.warmup_intervals = 1;
  cfg.feature_window_s = 120.0;
  cfg.feature_timesteps = 16;
  cfg.session.engagement.catalog.videos_per_category = 30;
  cfg.compressor.epochs_per_fit = 1;
  cfg.grouping.k_min = 2;
  cfg.grouping.k_max = 5;
  cfg.grouping.ddqn.hidden = {16};
  cfg.grouping.kmeans.restarts = 1;
  cfg.recommender.playlist_size = 18;
  return cfg;
}

class AccountingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AccountingSweep, GroupTotalsEqualSumOfGroups) {
  core::Simulation sim(tiny_config(GetParam()));
  const auto reports = sim.run(4);
  for (const auto& r : reports) {
    if (!r.has_prediction) {
      continue;
    }
    double pred_radio = 0.0;
    double act_radio = 0.0;
    double pred_compute = 0.0;
    double act_compute = 0.0;
    double unicast = 0.0;
    for (const auto& g : r.groups) {
      pred_radio += g.predicted_radio_hz;
      act_radio += g.actual_radio_hz;
      pred_compute += g.predicted_compute_cycles;
      act_compute += g.actual_compute_cycles;
      unicast += g.unicast_radio_hz;
    }
    EXPECT_NEAR(pred_radio, r.predicted_radio_hz_total,
                1e-9 * std::max(1.0, pred_radio));
    EXPECT_NEAR(act_radio, r.actual_radio_hz_total,
                1e-9 * std::max(1.0, act_radio));
    EXPECT_NEAR(pred_compute, r.predicted_compute_total,
                1e-6 * std::max(1.0, pred_compute));
    EXPECT_NEAR(act_compute, r.actual_compute_total,
                1e-6 * std::max(1.0, act_compute));
    EXPECT_NEAR(unicast, r.unicast_radio_hz_total,
                1e-9 * std::max(1.0, unicast));
  }
}

TEST_P(AccountingSweep, DemandQuantitiesNonNegativeAndFinite) {
  core::Simulation sim(tiny_config(GetParam() + 100));
  const auto reports = sim.run(4);
  for (const auto& r : reports) {
    for (const auto& g : r.groups) {
      EXPECT_TRUE(std::isfinite(g.predicted_radio_hz));
      EXPECT_TRUE(std::isfinite(g.actual_radio_hz));
      EXPECT_GE(g.predicted_radio_hz, 0.0);
      EXPECT_GE(g.actual_radio_hz, 0.0);
      EXPECT_GE(g.predicted_compute_cycles, 0.0);
      EXPECT_GE(g.actual_compute_cycles, 0.0);
      EXPECT_GE(g.unicast_radio_hz, 0.0);
      EXPECT_LT(g.rung, 5u);
    }
  }
}

TEST_P(AccountingSweep, RealizedEfficiencyWithinPhysicalBounds) {
  core::Simulation sim(tiny_config(GetParam() + 200));
  const auto reports = sim.run(4);
  for (const auto& r : reports) {
    for (const auto& g : r.groups) {
      if (g.videos_played == 0) {
        continue;
      }
      // Realized efficiency averages the multicast operating points: floored
      // below and bounded by the top CQI efficiency above.
      EXPECT_GE(g.realized_efficiency,
                sim.config().demand.efficiency_floor - 1e-9);
      EXPECT_LE(g.realized_efficiency, 5.5547 + 1e-6);
      EXPECT_GE(g.predicted_efficiency,
                sim.config().demand.efficiency_floor - 1e-9);
      EXPECT_LE(g.predicted_efficiency, 5.5547 + 1e-6);
    }
  }
}

TEST_P(AccountingSweep, MulticastNeverCostsMoreThanUnicastForSharedViewing) {
  core::Simulation sim(tiny_config(GetParam() + 300));
  const auto reports = sim.run(4);
  for (const auto& r : reports) {
    if (!r.has_prediction || r.actual_radio_hz_total <= 0.0) {
      continue;
    }
    // The unicast counterfactual serves each member individually; with
    // multi-member groups it must cost at least as much in aggregate.
    // (Single-member groups are identical by construction up to rung
    // selection granularity, hence the small tolerance.)
    EXPECT_GE(r.unicast_radio_hz_total, r.actual_radio_hz_total * 0.95);
  }
}

TEST_P(AccountingSweep, WatchEventsRespectOnAirCap) {
  core::Simulation sim(tiny_config(GetParam() + 400));
  sim.run(3);
  const twin::WatchColumn& watch = sim.twins().watch_column();
  for (std::size_t u = 0; u < watch.user_count(); ++u) {
    for (std::size_t i = 0; i < watch.size(u); ++i) {
      const twin::WatchObservation s = watch.get(u, i);
      EXPECT_GE(s.watch_seconds, 0.0);
      EXPECT_LE(s.watch_seconds, s.duration_s + 1e-6);
      EXPECT_GE(s.watch_fraction, 0.0);
      EXPECT_LE(s.watch_fraction, 1.0 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingSweep, ::testing::Values(1, 2, 3));

}  // namespace
