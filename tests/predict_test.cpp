// Unit tests for dtmsv::predict — per-user efficiency predictors, group
// minimum composition, the structural demand model (monotonicity and
// closed-form checks), and the series baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <utility>
#include <vector>

#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "predict/baselines.hpp"
#include "predict/channel_predictor.hpp"
#include "predict/demand.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv::predict;
using dtmsv::behavior::PreferenceVector;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;
using dtmsv::video::Category;
using dtmsv::video::kCategoryCount;

using dtmsv::twin::ChannelObservation;
using dtmsv::twin::kKeepAll;
using dtmsv::twin::TwinColumnStore;
using Members = std::vector<std::size_t>;

/// A store with one user per (start, step) pair, each holding the
/// efficiency ramp start + step * t at t = 0 .. samples - 1.
TwinColumnStore efficiency_ramps(std::initializer_list<std::pair<double, double>> ramps,
                                 int samples) {
  TwinColumnStore store(ramps.size(), kKeepAll);
  std::size_t u = 0;
  for (const auto& [start, step] : ramps) {
    for (int t = 0; t < samples; ++t) {
      ChannelObservation obs;
      obs.efficiency_bps_hz = start + step * t;
      obs.snr_db = 10.0;
      store.record_channel(u, static_cast<double>(t), obs);
    }
    ++u;
  }
  return store;
}

TwinColumnStore efficiency_ramp(double start, double step, int samples) {
  return efficiency_ramps({{start, step}}, samples);
}

// -------------------------------------------------------- channel predictors

TEST(LastValuePredictor, ReturnsNewestSample) {
  const auto twin = efficiency_ramp(1.0, 0.1, 10);
  LastValuePredictor pred;
  EXPECT_NEAR(pred.predict(twin.channel_column(), 0, 10.0, 10.0, 0.5), 1.9, 1e-9);
}

TEST(LastValuePredictor, FallbackWhenEmpty) {
  const TwinColumnStore twin(1, kKeepAll);
  LastValuePredictor pred;
  EXPECT_DOUBLE_EQ(pred.predict(twin.channel_column(), 0, 10.0, 10.0, 0.7), 0.7);
}

TEST(LastValuePredictor, RejectsOutOfRangeUser) {
  const auto twin = efficiency_ramp(1.0, 0.1, 10);
  LastValuePredictor pred;
  EXPECT_THROW(pred.predict(twin.channel_column(), 1, 10.0, 10.0, 0.5),
               PreconditionError);
}

TEST(EwmaPredictor, WeighsRecentMore) {
  const auto twin = efficiency_ramp(1.0, 0.1, 10);
  EwmaPredictor pred(0.5);
  const double p = pred.predict(twin.channel_column(), 0, 10.0, 10.0, 0.5);
  // Between the window mean (1.45) and the last value (1.9), nearer the last.
  EXPECT_GT(p, 1.45);
  EXPECT_LT(p, 1.9);
}

TEST(EwmaPredictor, ConstantSeriesExact) {
  const auto twin = efficiency_ramp(2.5, 0.0, 20);
  EwmaPredictor pred(0.3);
  EXPECT_NEAR(pred.predict(twin.channel_column(), 0, 20.0, 20.0, 0.5), 2.5, 1e-9);
}

TEST(LinearTrendPredictor, ExtrapolatesRamp) {
  // efficiency(t) = 1 + 0.1 t; horizon is measured from `now` = 10, so the
  // forecast lands at t = 15 → 1 + 0.1·15 = 2.5.
  const auto twin = efficiency_ramp(1.0, 0.1, 10);
  LinearTrendPredictor pred(5.0);
  EXPECT_NEAR(pred.predict(twin.channel_column(), 0, 10.0, 10.0, 0.5), 2.5, 0.05);
}

TEST(LinearTrendPredictor, ClampsNegativeForecast) {
  const auto twin = efficiency_ramp(1.0, -0.2, 10);
  LinearTrendPredictor pred(100.0);
  EXPECT_GE(pred.predict(twin.channel_column(), 0, 10.0, 10.0, 0.5), 0.0);
}

TEST(MeanPredictor, WindowAverage) {
  const auto twin = efficiency_ramp(1.0, 0.1, 10);
  MeanPredictor pred;
  EXPECT_NEAR(pred.predict(twin.channel_column(), 0, 10.0, 10.0, 0.5), 1.45, 1e-9);
}

TEST(MeanPredictor, WindowRestriction) {
  const auto twin = efficiency_ramp(1.0, 0.1, 10);
  MeanPredictor pred;
  // Only samples t in [7, 10): 1.7, 1.8, 1.9.
  EXPECT_NEAR(pred.predict(twin.channel_column(), 0, 10.0, 3.0, 0.5), 1.8, 1e-9);
}

TEST(GroupEfficiency, TakesWorstMember) {
  const auto twins = efficiency_ramps({{4.0, 0.0}, {0.8, 0.0}}, 5);
  MeanPredictor pred;
  const double eff = predict_group_efficiency(twins, Members{0, 1}, pred, 5.0, 5.0, 0.05);
  EXPECT_NEAR(eff, 0.8, 1e-9);
}

TEST(GroupEfficiency, FloorApplied) {
  const auto outage = efficiency_ramp(0.0, 0.0, 5);
  MeanPredictor pred;
  const double eff = predict_group_efficiency(outage, Members{0}, pred, 5.0, 5.0, 0.05);
  EXPECT_DOUBLE_EQ(eff, 0.05);
}

TEST(GroupEfficiency, EmptyGroupRejected) {
  const TwinColumnStore twins(1, kKeepAll);
  MeanPredictor pred;
  EXPECT_THROW(predict_group_efficiency(twins, {}, pred, 5.0, 5.0, 0.05),
               PreconditionError);
}

TEST(GroupEfficiencyJoint, ConstantMembersGiveMin) {
  const auto twins = efficiency_ramps({{3.0, 0.0}, {1.5, 0.0}}, 10);
  const double eff =
      forecast_group_channel(twins, Members{0, 1}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_NEAR(eff, 1.5, 1e-9);
}

TEST(GroupEfficiencyJoint, RejectsOutOfRangeMember) {
  const auto twins = efficiency_ramps({{3.0, 0.0}, {1.5, 0.0}}, 10);
  EXPECT_THROW(forecast_group_channel(twins, Members{0, 2}, 10.0, 10.0, 0.05),
               PreconditionError);
}

TEST(GroupEfficiencyJoint, HarmonicMeanOfAlternatingSeries) {
  // One member alternates 1 and 3 each second: harmonic mean = 2/(1+1/3) = 1.5.
  TwinColumnStore twin(1, kKeepAll);
  for (int t = 0; t < 10; ++t) {
    ChannelObservation obs;
    obs.efficiency_bps_hz = (t % 2 == 0) ? 1.0 : 3.0;
    twin.record_channel(0, static_cast<double>(t), obs);
  }
  const double eff =
      forecast_group_channel(twin, Members{0}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_NEAR(eff, 1.5, 1e-9);
}

TEST(GroupEfficiencyJoint, BelowMinOfMeansForFluctuatingMembers) {
  // Two members fade out of phase: min-series is 1 everywhere, while each
  // member's own mean is 2 — the joint estimate must catch the min bias.
  TwinColumnStore twins(2, kKeepAll);
  for (int t = 0; t < 10; ++t) {
    ChannelObservation oa;
    ChannelObservation ob;
    oa.efficiency_bps_hz = (t % 2 == 0) ? 1.0 : 3.0;
    ob.efficiency_bps_hz = (t % 2 == 0) ? 3.0 : 1.0;
    twins.record_channel(0, static_cast<double>(t), oa);
    twins.record_channel(1, static_cast<double>(t), ob);
  }
  const double joint =
      forecast_group_channel(twins, Members{0, 1}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_NEAR(joint, 1.0, 1e-9);
  MeanPredictor pred;
  const double naive =
      predict_group_efficiency(twins, Members{0, 1}, pred, 10.0, 10.0, 0.05);
  EXPECT_NEAR(naive, 2.0, 1e-9);
  EXPECT_LT(joint, naive);
}

TEST(GroupEfficiencyJoint, HoldsThroughMissingSamples) {
  // Sparse reports (loss): gaps are held from the last sample.
  TwinColumnStore twin(1, kKeepAll);
  ChannelObservation obs;
  obs.efficiency_bps_hz = 2.0;
  twin.record_channel(0, 1.0, obs);  // only one report in a 10-s window
  const double eff =
      forecast_group_channel(twin, Members{0}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_NEAR(eff, 2.0, 1e-9);
}

TEST(GroupEfficiencyJoint, EmptyHistoryFallsToFloor) {
  const TwinColumnStore twin(1, kKeepAll);
  const double eff =
      forecast_group_channel(twin, Members{0}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_DOUBLE_EQ(eff, 0.05);
}

TEST(GroupConsumers, SharedStoreMembersMatchDedicatedStore) {
  // Members {1, 3} of a 4-user store must read exactly what a store holding
  // only those two users' histories reads: the member span picks slots and
  // nothing of users 0 and 2 leaks in.
  TwinColumnStore shared(4, kKeepAll);
  TwinColumnStore dedicated(2, kKeepAll);
  Rng rng(21);
  for (int t = 0; t < 120; ++t) {
    for (std::size_t u = 0; u < 4; ++u) {
      ChannelObservation obs{rng.uniform(-5.0, 25.0), rng.uniform(0.1, 5.0), 0};
      dtmsv::twin::WatchObservation watch;
      watch.category = dtmsv::video::all_categories()[(u + static_cast<std::size_t>(t)) %
                                                      kCategoryCount];
      watch.watch_seconds = rng.uniform(1.0, 20.0);
      watch.watch_fraction = rng.uniform();
      const bool reports_watch = (t + static_cast<int>(u)) % 7 == 0;
      shared.record_channel(u, t, obs);
      if (reports_watch) {
        shared.record_watch(u, t, watch);
      }
      if (u == 1 || u == 3) {
        const std::size_t d = u / 2;  // 1 -> 0, 3 -> 1
        dedicated.record_channel(d, t, obs);
        if (reports_watch) {
          dedicated.record_watch(d, t, watch);
        }
      }
    }
    if (t == 60) {
      shared.record_preference(3, t, shared.estimator(3).estimate());
      dedicated.record_preference(1, t, dedicated.estimator(1).estimate());
    }
  }
  const Members in_shared{1, 3};
  const Members in_dedicated{0, 1};

  const GroupChannelForecast a = forecast_group_channel(shared, in_shared, 120.0, 90.0);
  const GroupChannelForecast b =
      forecast_group_channel(dedicated, in_dedicated, 120.0, 90.0);
  EXPECT_EQ(a.efficiency, b.efficiency);
  EXPECT_EQ(a.min_series, b.min_series);

  const auto swipe_a = dtmsv::analysis::build_group_swiping(shared, in_shared, 120.0, 90.0);
  const auto swipe_b =
      dtmsv::analysis::build_group_swiping(dedicated, in_dedicated, 120.0, 90.0);
  double total_mass = 0.0;
  for (const Category c : dtmsv::video::all_categories()) {
    EXPECT_EQ(swipe_a.mass(c), swipe_b.mass(c));
    EXPECT_EQ(swipe_a.expected_watch_fraction(c), swipe_b.expected_watch_fraction(c));
    EXPECT_EQ(swipe_a.expected_max_watch_fraction(c, 2),
              swipe_b.expected_max_watch_fraction(c, 2));
    total_mass += swipe_a.mass(c);
  }
  EXPECT_GT(total_mass, 0.0);

  EXPECT_EQ(dtmsv::analysis::aggregate_group_preference(shared, in_shared),
            dtmsv::analysis::aggregate_group_preference(dedicated, in_dedicated));
  // And the shared store's other members do change the answer.
  EXPECT_NE(forecast_group_channel(shared, Members{0, 1, 2, 3}, 120.0, 90.0).min_series,
            a.min_series);
}

// ------------------------------------------------------------- ContentStats

TEST(ContentStats, FromCatalogMeans) {
  Rng rng(1);
  dtmsv::video::CatalogConfig cfg;
  cfg.videos_per_category = 100;
  cfg.min_duration_s = 10.0;
  cfg.max_duration_s = 10.0;  // degenerate: every clip exactly 10 s
  const auto catalog = dtmsv::video::Catalog::generate(cfg, rng);
  const ContentStats stats = ContentStats::from_catalog(catalog);
  for (const double d : stats.mean_duration_s) {
    EXPECT_NEAR(d, 10.0, 1e-9);
  }
  EXPECT_EQ(stats.ladder_kbps.size(), 5u);
}

// --------------------------------------------------------- expected_distinct

TEST(ExpectedDistinct, Extremes) {
  EXPECT_DOUBLE_EQ(expected_distinct(0.0, 10.0), 0.0);
  EXPECT_NEAR(expected_distinct(1.0, 10.0), 1.0, 1e-9);
  // Far more views than items → all items hit.
  EXPECT_NEAR(expected_distinct(10000.0, 10.0), 10.0, 1e-6);
}

TEST(ExpectedDistinct, BirthdayFormula) {
  // E[distinct] = R(1-(1-1/R)^N), R=20, N=20 → 20(1-0.95^20) ≈ 12.83.
  EXPECT_NEAR(expected_distinct(20.0, 20.0), 20.0 * (1.0 - std::pow(0.95, 20.0)),
              1e-9);
}

// ------------------------------------------------------ predict_group_demand

struct DemandFixture {
  dtmsv::analysis::SwipingDistribution swiping;
  ContentStats content;
  DemandModelConfig config;
  PreferenceVector mix{};
  std::array<std::size_t, kCategoryCount> playlist{};

  DemandFixture() {
    // Uniform mid-watch behaviour.
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
      for (const Category c : dtmsv::video::all_categories()) {
        swiping.observe(c, rng.beta(2.0, 2.0));
      }
    }
    content.mean_duration_s.fill(15.0);
    content.ladder_kbps = {750.0, 1200.0, 1850.0, 2850.0, 4300.0};
    mix.fill(1.0 / kCategoryCount);
    playlist.fill(5);
  }
};

TEST(PredictGroupDemand, PositiveAndFinite) {
  DemandFixture fx;
  const ResourceDemand d = predict_group_demand(10, fx.mix, fx.swiping, 2.0,
                                                fx.playlist, fx.content, fx.config);
  EXPECT_GT(d.radio_hz, 0.0);
  EXPECT_TRUE(std::isfinite(d.radio_hz));
  EXPECT_GT(d.transmitted_bits, 0.0);
  EXPECT_GT(d.distinct_videos, 0.0);
  EXPECT_GT(d.expected_views, d.distinct_videos);  // views = videos × members
}

TEST(PredictGroupDemand, RadioDemandDecreasesWithEfficiency) {
  DemandFixture fx;
  const ResourceDemand lo = predict_group_demand(10, fx.mix, fx.swiping, 0.5,
                                                 fx.playlist, fx.content, fx.config);
  const ResourceDemand hi = predict_group_demand(10, fx.mix, fx.swiping, 4.0,
                                                 fx.playlist, fx.content, fx.config);
  // Higher efficiency → either same bits over more capacity, or a higher
  // rung; per-Hz demand must not increase.
  EXPECT_LT(hi.radio_hz, lo.radio_hz * 1.5);
  EXPECT_GE(hi.rung, lo.rung);
}

TEST(PredictGroupDemand, RungSelectionFollowsBudget) {
  DemandFixture fx;
  fx.config.group_bandwidth_budget_hz = 1e6;
  // 0.5 b/s/Hz on 1 MHz → 500 kbps budget → rung 0.
  const ResourceDemand low = predict_group_demand(5, fx.mix, fx.swiping, 0.5,
                                                  fx.playlist, fx.content, fx.config);
  EXPECT_EQ(low.rung, 0u);
  // 5 b/s/Hz on 1 MHz → 5000 kbps → top rung.
  const ResourceDemand high = predict_group_demand(5, fx.mix, fx.swiping, 5.0,
                                                   fx.playlist, fx.content, fx.config);
  EXPECT_EQ(high.rung, 4u);
}

TEST(PredictGroupDemand, TopRungNeedsNoTranscode) {
  DemandFixture fx;
  fx.config.group_bandwidth_budget_hz = 100e6;
  const ResourceDemand d = predict_group_demand(5, fx.mix, fx.swiping, 5.0,
                                                fx.playlist, fx.content, fx.config);
  EXPECT_EQ(d.rung, 4u);
  EXPECT_DOUBLE_EQ(d.compute_cycles, 0.0);

  fx.config.group_bandwidth_budget_hz = 1e6;
  const ResourceDemand low = predict_group_demand(5, fx.mix, fx.swiping, 0.5,
                                                  fx.playlist, fx.content, fx.config);
  EXPECT_GT(low.compute_cycles, 0.0);
}

TEST(PredictGroupDemand, OnAirTimeGrowsWithGroupSize) {
  DemandFixture fx;
  const ResourceDemand small = predict_group_demand(2, fx.mix, fx.swiping, 2.0,
                                                    fx.playlist, fx.content, fx.config);
  const ResourceDemand large = predict_group_demand(50, fx.mix, fx.swiping, 2.0,
                                                    fx.playlist, fx.content, fx.config);
  // Larger groups keep clips on air longer (E[max watch] grows), so fewer
  // clips play but each transmits longer; total bits must grow.
  EXPECT_GT(large.transmitted_bits, small.transmitted_bits * 0.99);
  EXPECT_LE(large.distinct_videos, small.distinct_videos + 1e-9);
}

TEST(PredictGroupDemand, MixFallsBackToPreferenceWhenPlaylistEmpty) {
  DemandFixture fx;
  fx.playlist.fill(0);
  PreferenceVector news{};
  news[static_cast<std::size_t>(Category::kNews)] = 1.0;
  const ResourceDemand d = predict_group_demand(5, news, fx.swiping, 2.0,
                                                fx.playlist, fx.content, fx.config);
  EXPECT_GT(d.radio_hz, 0.0);
}

TEST(PredictGroupDemand, InvalidInputsRejected) {
  DemandFixture fx;
  EXPECT_THROW(predict_group_demand(0, fx.mix, fx.swiping, 2.0, fx.playlist,
                                    fx.content, fx.config),
               PreconditionError);
}

TEST(PredictGroupDemand, ForecastOverloadMatchesScalarForSingleBin) {
  DemandFixture fx;
  GroupChannelForecast forecast;
  forecast.efficiency = 2.0;
  forecast.min_series = {2.0};
  const ResourceDemand via_forecast = predict_group_demand(
      10, fx.mix, fx.swiping, forecast, fx.playlist, fx.content, fx.config);
  const ResourceDemand via_scalar = predict_group_demand(
      10, fx.mix, fx.swiping, 2.0, fx.playlist, fx.content, fx.config);
  EXPECT_DOUBLE_EQ(via_forecast.radio_hz, via_scalar.radio_hz);
  EXPECT_DOUBLE_EQ(via_forecast.compute_cycles, via_scalar.compute_cycles);
  EXPECT_EQ(via_forecast.rung, via_scalar.rung);
}

TEST(PredictGroupDemand, RungMixturePredictsPartialTranscode) {
  DemandFixture fx;
  fx.content.ladder_scale_quantiles = {1.0};
  fx.config.group_bandwidth_budget_hz = 1e6;
  // Half the bins at the top rung (eff 5 → 5000 kbps budget), half at a
  // lower rung (eff 2 → 2000 kbps): compute demand is the lower-rung share.
  GroupChannelForecast mixed;
  mixed.min_series = {5.0, 5.0, 2.0, 2.0};
  mixed.efficiency = 4.0 / (1.0 / 5.0 + 1.0 / 5.0 + 1.0 / 2.0 + 1.0 / 2.0);
  const ResourceDemand d = predict_group_demand(10, fx.mix, fx.swiping, mixed,
                                                fx.playlist, fx.content, fx.config);
  EXPECT_GT(d.compute_cycles, 0.0);
  // Pure top-rung forecast has zero compute; pure low has full. Mixed sits
  // strictly between.
  GroupChannelForecast top;
  top.min_series = {5.0, 5.0};
  top.efficiency = 5.0;
  GroupChannelForecast low;
  low.min_series = {2.0, 2.0};
  low.efficiency = 2.0;
  const ResourceDemand d_top = predict_group_demand(10, fx.mix, fx.swiping, top,
                                                    fx.playlist, fx.content, fx.config);
  const ResourceDemand d_low = predict_group_demand(10, fx.mix, fx.swiping, low,
                                                    fx.playlist, fx.content, fx.config);
  EXPECT_DOUBLE_EQ(d_top.compute_cycles, 0.0);
  EXPECT_GT(d_low.compute_cycles, d.compute_cycles);
}

TEST(PredictGroupDemand, LadderScaleQuantilesSoftenRungBoundaries) {
  DemandFixture fx;
  fx.config.group_bandwidth_budget_hz = 1e6;
  GroupChannelForecast forecast;
  // Budget sits exactly at the top rung (4300 kbps at eff 4.3): without
  // jitter everything lands on the top rung; with the catalog's scale
  // spread some videos need transcoding.
  forecast.min_series = {4.3};
  forecast.efficiency = 4.3;
  fx.content.ladder_scale_quantiles = {1.0};
  const ResourceDemand sharp = predict_group_demand(10, fx.mix, fx.swiping, forecast,
                                                    fx.playlist, fx.content, fx.config);
  fx.content.ladder_scale_quantiles = {0.9, 1.0, 1.1};
  const ResourceDemand soft = predict_group_demand(10, fx.mix, fx.swiping, forecast,
                                                   fx.playlist, fx.content, fx.config);
  EXPECT_DOUBLE_EQ(sharp.compute_cycles, 0.0);
  EXPECT_GT(soft.compute_cycles, 0.0);
}

TEST(PredictGroupDemand, EmptyForecastRejected) {
  DemandFixture fx;
  GroupChannelForecast empty;
  empty.min_series.clear();
  EXPECT_THROW(predict_group_demand(10, fx.mix, fx.swiping, empty, fx.playlist,
                                    fx.content, fx.config),
               PreconditionError);
}

TEST(ResourceDemand, AccumulationOperator) {
  ResourceDemand a;
  a.radio_hz = 1.0;
  a.compute_cycles = 10.0;
  a.rung = 2;
  ResourceDemand b;
  b.radio_hz = 2.0;
  b.compute_cycles = 5.0;
  b.rung = 1;
  a += b;
  EXPECT_DOUBLE_EQ(a.radio_hz, 3.0);
  EXPECT_DOUBLE_EQ(a.compute_cycles, 15.0);
  EXPECT_EQ(a.rung, 2u);
}

// ----------------------------------------------------------- series baselines

TEST(LastValueSeries, ForecastsPrevious) {
  LastValueSeries s;
  EXPECT_DOUBLE_EQ(s.forecast(3.0), 3.0);
  s.observe(10.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 10.0);
  s.observe(20.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 20.0);
}

TEST(EwmaSeries, Smooths) {
  EwmaSeries s(0.5);
  s.observe(0.0);
  s.observe(10.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 5.0);
}

TEST(MovingAverageSeries, SlidingWindow) {
  MovingAverageSeries s(3);
  s.observe(1.0);
  s.observe(2.0);
  s.observe(3.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 2.0);
  s.observe(7.0);  // window now {2,3,7}
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 4.0);
}

TEST(Ar1Series, LearnsLinearRecursion) {
  // x_{t+1} = 0.8 x_t + 2; fixed point 10.
  Ar1Series s(12);
  double x = 0.0;
  for (int i = 0; i < 12; ++i) {
    s.observe(x);
    x = 0.8 * x + 2.0;
  }
  const double forecast = s.forecast(0.0);
  EXPECT_NEAR(forecast, x, 0.2);
}

TEST(Ar1Series, ShortHistoryFallsBackToLast) {
  Ar1Series s(10);
  s.observe(5.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 5.0);
  s.observe(6.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 6.0);
}

TEST(SeriesBaselines, NamesDistinct) {
  LastValueSeries a;
  EwmaSeries b;
  MovingAverageSeries c;
  Ar1Series d;
  EXPECT_NE(a.name(), b.name());
  EXPECT_NE(b.name(), c.name());
  EXPECT_NE(c.name(), d.name());
}

}  // namespace
