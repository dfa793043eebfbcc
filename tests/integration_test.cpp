// Integration tests: the full DT-assisted pipeline (mobility -> channel ->
// group viewing -> UDT collection -> CNN compression -> DDQN+K-means++ ->
// abstraction -> demand prediction) run end-to-end on a reduced scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "core/simulation.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace {

using namespace dtmsv;
using core::EpochReport;
using core::SchemeConfig;
using core::Simulation;

/// Reduced-size configuration so the integration suite stays fast.
SchemeConfig fast_config(std::uint64_t seed = 42) {
  SchemeConfig cfg;
  cfg.seed = seed;
  cfg.user_count = 40;
  cfg.interval_s = 60.0;
  cfg.tick_s = 1.0;
  cfg.warmup_intervals = 1;
  cfg.feature_window_s = 120.0;
  cfg.feature_timesteps = 16;
  cfg.session.engagement.catalog.videos_per_category = 40;
  cfg.compressor.epochs_per_fit = 1;
  cfg.grouping.k_min = 2;
  cfg.grouping.k_max = 6;
  cfg.grouping.ddqn.hidden = {32};
  cfg.grouping.kmeans.restarts = 2;
  cfg.demand.interval_s = cfg.interval_s;
  cfg.recommender.playlist_size = 24;
  return cfg;
}

TEST(Simulation, WarmupThenGroups) {
  Simulation sim(fast_config());
  const EpochReport r0 = sim.run_interval();
  EXPECT_EQ(r0.interval, 0);
  EXPECT_FALSE(r0.grouped);          // warm-up interval: individual sessions
  EXPECT_FALSE(r0.has_prediction);
  EXPECT_GT(r0.k, 0u);               // grouping decided at interval end
  EXPECT_GT(sim.group_count(), 0u);

  const EpochReport r1 = sim.run_interval();
  EXPECT_TRUE(r1.grouped);
  EXPECT_TRUE(r1.has_prediction);
  EXPECT_GT(r1.actual_radio_hz_total, 0.0);
  EXPECT_GT(r1.predicted_radio_hz_total, 0.0);
}

TEST(Simulation, GroupsPartitionUsers) {
  Simulation sim(fast_config(7));
  sim.run(3);
  std::set<std::size_t> seen;
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    for (const std::size_t u : sim.group_members(g)) {
      EXPECT_TRUE(seen.insert(u).second) << "user " << u << " in two groups";
    }
  }
  EXPECT_EQ(seen.size(), sim.config().user_count);
}

TEST(Simulation, DeterministicPerSeed) {
  Simulation a(fast_config(123));
  Simulation b(fast_config(123));
  const auto ra = a.run(3);
  const auto rb = b.run(3);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].k, rb[i].k);
    EXPECT_DOUBLE_EQ(ra[i].actual_radio_hz_total, rb[i].actual_radio_hz_total);
    EXPECT_DOUBLE_EQ(ra[i].predicted_radio_hz_total, rb[i].predicted_radio_hz_total);
    EXPECT_DOUBLE_EQ(ra[i].silhouette, rb[i].silhouette);
  }
}

TEST(Simulation, DifferentSeedsDiverge) {
  Simulation a(fast_config(1));
  Simulation b(fast_config(2));
  const auto ra = a.run(2);
  const auto rb = b.run(2);
  EXPECT_NE(ra[1].actual_radio_hz_total, rb[1].actual_radio_hz_total);
}

TEST(Simulation, ReportInternalConsistency) {
  Simulation sim(fast_config(9));
  const auto reports = sim.run(4);
  for (const auto& r : reports) {
    if (!r.grouped) {
      continue;
    }
    double pred_sum = 0.0;
    double act_sum = 0.0;
    std::size_t members = 0;
    for (const auto& g : r.groups) {
      EXPECT_GT(g.size, 0u);
      EXPECT_GE(g.predicted_radio_hz, 0.0);
      EXPECT_GE(g.actual_radio_hz, 0.0);
      EXPECT_GE(g.predicted_efficiency, sim.config().demand.efficiency_floor - 1e-9);
      EXPECT_GT(g.videos_played, 0u);
      pred_sum += g.predicted_radio_hz;
      act_sum += g.actual_radio_hz;
      members += g.size;
    }
    EXPECT_EQ(members, sim.config().user_count);
    EXPECT_NEAR(pred_sum, r.predicted_radio_hz_total, 1e-9);
    EXPECT_NEAR(act_sum, r.actual_radio_hz_total, 1e-9);
    if (r.actual_radio_hz_total > 0.0) {
      const double err = std::abs(r.predicted_radio_hz_total - r.actual_radio_hz_total) /
                         r.actual_radio_hz_total;
      EXPECT_NEAR(r.radio_error, err, 1e-9);
    }
  }
}

TEST(Simulation, PredictionTracksActualAfterLearning) {
  SchemeConfig cfg = fast_config(11);
  Simulation sim(cfg);
  const auto reports = sim.run(8);
  // Average radio accuracy over the last 5 grouped intervals must beat a
  // loose floor (full calibration is validated in the bench harness).
  std::vector<double> pred;
  std::vector<double> act;
  for (std::size_t i = 3; i < reports.size(); ++i) {
    if (reports[i].has_prediction) {
      pred.push_back(reports[i].predicted_radio_hz_total);
      act.push_back(reports[i].actual_radio_hz_total);
    }
  }
  ASSERT_GE(pred.size(), 3u);
  const auto acc = util::prediction_accuracy(act, pred);
  ASSERT_TRUE(acc.has_value());
  EXPECT_GT(*acc, 0.5) << "end-to-end prediction grossly off";
}

TEST(Simulation, CollectorReceivesAllAttributeKinds) {
  Simulation sim(fast_config(13));
  sim.run(2);
  const auto& stats = sim.collector_stats();
  EXPECT_GT(stats.channel_reports, 0u);
  EXPECT_GT(stats.location_reports, 0u);
  EXPECT_GT(stats.watch_reports, 0u);
  EXPECT_GT(stats.preference_reports, 0u);
}

TEST(Simulation, TwinsHoldFreshData) {
  Simulation sim(fast_config(15));
  sim.run(2);
  const auto& twins = sim.twins();
  const auto& channel = twins.channel_column();
  std::size_t with_channel = 0;
  std::size_t with_watch = 0;
  for (std::size_t u = 0; u < twins.user_count(); ++u) {
    // Staleness: age of the newest channel report.
    if (!channel.empty(u) &&
        sim.now() - channel.time(u, channel.size(u) - 1) < 5.0) {
      ++with_channel;
    }
    if (!twins.watch_column().empty(u)) {
      ++with_watch;
    }
  }
  EXPECT_EQ(with_channel, twins.user_count());
  EXPECT_GT(with_watch, twins.user_count() / 2);
}

TEST(Simulation, SwipingDistributionsAreProper) {
  Simulation sim(fast_config(17));
  sim.run(3);
  ASSERT_GT(sim.group_count(), 0u);
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    const auto& dist = sim.group_swiping(g);
    double prev = -1.0;
    for (double t = 0.0; t <= 1.0; t += 0.1) {
      const double cdf =
          dist.cumulative_swipe_probability(video::Category::kNews, t);
      EXPECT_GE(cdf, prev - 1e-12);
      EXPECT_GE(cdf, 0.0);
      EXPECT_LE(cdf, 1.0);
      prev = cdf;
    }
  }
}

TEST(Simulation, GroupPreferencesNormalised) {
  Simulation sim(fast_config(19));
  sim.run(3);
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    const auto& pref = sim.group_preference(g);
    double total = 0.0;
    for (const double p : pref) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(Simulation, MostPreferringGroupIsArgmax) {
  Simulation sim(fast_config(21));
  sim.run(3);
  const std::size_t g = sim.most_preferring_group(video::Category::kNews);
  const double w =
      sim.group_preference(g)[static_cast<std::size_t>(video::Category::kNews)];
  for (std::size_t other = 0; other < sim.group_count(); ++other) {
    EXPECT_GE(w + 1e-12,
              sim.group_preference(other)[static_cast<std::size_t>(
                  video::Category::kNews)]);
  }
}

TEST(Simulation, RecommendationsServeGroupTaste) {
  Simulation sim(fast_config(23));
  sim.run(4);
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    const auto& rec = sim.group_recommendation(g);
    EXPECT_EQ(rec.playlist.size(), sim.config().recommender.playlist_size);
    // Top preferred category gets the largest quota.
    const auto& pref = sim.group_preference(g);
    const std::size_t top = behavior::top_category(pref);
    for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
      EXPECT_GE(rec.per_category_counts[top], rec.per_category_counts[c]);
    }
  }
}

// -------------------------------------------- alternative pipeline variants

TEST(SimulationVariants, RawWindowFeatureStage) {
  SchemeConfig cfg = fast_config(25);
  cfg.feature_stage = "raw";
  Simulation sim(cfg);
  const auto reports = sim.run(3);
  EXPECT_TRUE(reports[2].grouped);
  EXPECT_EQ(reports[2].reconstruction_loss, 0.0f);  // no CNN in this mode
}

TEST(SimulationVariants, SummaryStatsFeatureStage) {
  SchemeConfig cfg = fast_config(27);
  cfg.feature_stage = "summary";
  Simulation sim(cfg);
  const auto reports = sim.run(3);
  EXPECT_TRUE(reports[2].grouped);
}

TEST(SimulationVariants, FixedKMode) {
  SchemeConfig cfg = fast_config(29);
  cfg.grouping_stage = "fixed";
  cfg.fixed_k = 3;
  Simulation sim(cfg);
  const auto reports = sim.run(3);
  EXPECT_EQ(reports[2].k, 3u);
  EXPECT_EQ(sim.group_count(), 3u);
}

TEST(SimulationVariants, RandomKStage) {
  SchemeConfig cfg = fast_config(31);
  cfg.grouping_stage = "random";
  Simulation sim(cfg);
  const auto reports = sim.run(3);
  EXPECT_GE(reports[2].k, cfg.grouping.k_min);
  EXPECT_LE(reports[2].k, cfg.grouping.k_max);
}

TEST(SimulationVariants, ElbowKStage) {
  SchemeConfig cfg = fast_config(33);
  cfg.grouping_stage = "elbow";
  cfg.user_count = 24;  // keep the elbow sweep cheap
  Simulation sim(cfg);
  const auto reports = sim.run(3);
  EXPECT_TRUE(reports[2].grouped);
}

TEST(SimulationVariants, PerMemberDemandStages) {
  for (const std::string key : {"last_value", "ewma", "linear_trend", "mean"}) {
    SchemeConfig cfg = fast_config(35);
    cfg.user_count = 20;
    cfg.demand_stage = key;
    Simulation sim(cfg);
    const auto reports = sim.run(2);
    EXPECT_TRUE(reports[1].grouped);
    EXPECT_GT(reports[1].predicted_radio_hz_total, 0.0);
  }
}

// -------------------------------------------------------- failure injection

TEST(Simulation, ModelSaveLoadRoundTrip) {
  // Train one scheme, transplant its models into a fresh one: both must
  // produce identical grouping decisions on the same twin state.
  SchemeConfig cfg = fast_config(51);
  Simulation trained(cfg);
  trained.run(3);

  std::stringstream models;
  trained.save_models(models);

  Simulation fresh(cfg);
  fresh.load_models(models);
  // Run both one more interval; identical seeds + identical models keep the
  // trajectories in lock-step.
  const EpochReport a = trained.run_interval();
  // The fresh sim lags three intervals of environment state, so we cannot
  // compare report values — instead verify the loaded models are usable and
  // the pipeline runs.
  const EpochReport b = fresh.run_interval();
  EXPECT_GE(a.k, cfg.grouping.k_min);
  EXPECT_GE(b.k, 0u);
}

TEST(Simulation, ModelLoadRejectsWrongConfiguration) {
  SchemeConfig cnn_cfg = fast_config(53);
  Simulation with_cnn(cnn_cfg);
  std::stringstream models;
  with_cnn.save_models(models);

  SchemeConfig raw_cfg = fast_config(53);
  raw_cfg.feature_stage = "raw";  // no CNN
  Simulation without_cnn(raw_cfg);
  EXPECT_THROW(without_cnn.load_models(models), util::RuntimeError);
}

TEST(Simulation, ModelLoadRejectsGarbage) {
  Simulation sim(fast_config(55));
  std::stringstream garbage("not a model file");
  EXPECT_THROW(sim.load_models(garbage), util::RuntimeError);
}

TEST(FailureInjection, CollectionLossStillRuns) {
  SchemeConfig cfg = fast_config(37);
  cfg.collection.report_loss_prob = 0.5;
  Simulation sim(cfg);
  const auto reports = sim.run(3);
  EXPECT_TRUE(reports[2].grouped);
  EXPECT_GT(sim.collector_stats().dropped_reports, 0u);
  EXPECT_GT(reports[2].actual_radio_hz_total, 0.0);
}

TEST(FailureInjection, CollectionLatencyStillRuns) {
  SchemeConfig cfg = fast_config(39);
  cfg.collection.latency_s = 10.0;
  Simulation sim(cfg);
  const auto reports = sim.run(3);
  EXPECT_TRUE(reports[2].grouped);
}

TEST(FailureInjection, SingleUserPopulation) {
  SchemeConfig cfg = fast_config(41);
  cfg.user_count = 1;
  cfg.grouping.k_min = 1;
  cfg.grouping.k_max = 2;
  Simulation sim(cfg);
  const auto reports = sim.run(3);
  EXPECT_TRUE(reports[2].grouped);
  EXPECT_EQ(sim.group_count(), 1u);
  ASSERT_EQ(sim.group_members(0).size(), 1u);
}

TEST(Simulation, UnicastCounterfactualExceedsMulticast) {
  Simulation sim(fast_config(43));
  const auto reports = sim.run(4);
  for (const auto& r : reports) {
    if (!r.has_prediction) {
      continue;
    }
    EXPECT_GT(r.unicast_radio_hz_total, 0.0);
    // Serving every member a private stream can never be cheaper than one
    // shared multicast stream of the same content.
    EXPECT_GE(r.unicast_radio_hz_total, r.actual_radio_hz_total * 0.99);
    for (const auto& g : r.groups) {
      if (g.size > 1) {
        EXPECT_GE(g.unicast_radio_hz, 0.0);
      }
    }
  }
}

TEST(Simulation, AffinityDriftChangesGroundTruth) {
  SchemeConfig cfg = fast_config(45);
  cfg.affinity_drift_rate = 0.5;
  Simulation sim(cfg);
  const auto before = sim.true_affinities();
  sim.run(3);
  const auto& after = sim.true_affinities();
  double moved = 0.0;
  for (std::size_t u = 0; u < before.size(); ++u) {
    for (std::size_t c = 0; c < before[u].size(); ++c) {
      moved += std::abs(before[u][c] - after[u][c]);
    }
  }
  EXPECT_GT(moved, 1.0) << "drift rate 0.5 over 3 intervals must move tastes";
  // Affinities remain probability vectors.
  for (const auto& a : after) {
    double total = 0.0;
    for (const double v : a) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Simulation, ZeroDriftKeepsAffinitiesFixed) {
  SchemeConfig cfg = fast_config(47);
  cfg.affinity_drift_rate = 0.0;
  Simulation sim(cfg);
  const auto before = sim.true_affinities();
  sim.run(3);
  const auto& after = sim.true_affinities();
  for (std::size_t u = 0; u < before.size(); ++u) {
    for (std::size_t c = 0; c < before[u].size(); ++c) {
      EXPECT_DOUBLE_EQ(before[u][c], after[u][c]);
    }
  }
}

TEST(Simulation, PipelineSurvivesTasteDrift) {
  SchemeConfig cfg = fast_config(49);
  cfg.affinity_drift_rate = 0.2;
  Simulation sim(cfg);
  const auto reports = sim.run(6);
  std::vector<double> pred;
  std::vector<double> act;
  for (const auto& r : reports) {
    if (r.has_prediction) {
      pred.push_back(r.predicted_radio_hz_total);
      act.push_back(r.actual_radio_hz_total);
    }
  }
  ASSERT_GE(pred.size(), 3u);
  const auto acc = util::prediction_accuracy(act, pred);
  ASSERT_TRUE(acc.has_value());
  EXPECT_GT(*acc, 0.4) << "drifting tastes should degrade gracefully, not break";
}

TEST(Simulation, TickCountsExactOverLongHorizon) {
  // Regression: ticks used to be scheduled by accumulating now_ += tick_s
  // in floating point against an epsilon-guarded boundary, so tick counts
  // drifted after thousands of intervals at sub-second tick_s. Ticks are
  // now indexed within the interval and boundaries are exact.
  SchemeConfig cfg = fast_config(61);
  cfg.user_count = 2;
  cfg.interval_s = 5.0;
  cfg.tick_s = 0.1;
  cfg.warmup_intervals = 1000000;  // stay in warm-up: no clustering cost
  cfg.session.engagement.catalog.videos_per_category = 8;
  Simulation sim(cfg);
  const std::size_t intervals = 200;
  sim.run(intervals);
  EXPECT_EQ(sim.tick_count(), intervals * 50u);
  // Interval boundaries land exactly on their nominal times — bitwise.
  EXPECT_EQ(sim.now(), static_cast<double>(intervals) * cfg.interval_s);
}

TEST(Simulation, DriftToggleLeavesOtherStreamsUntouched) {
  // Regression: drift targets used to be drawn from the playback stream,
  // so merely enabling affinity_drift_rate perturbed group playback and
  // broke A/B comparability across scenarios. With a vanishing drift rate
  // (every nudge is absorbed by double rounding) the trajectories must now
  // be bit-identical to drift disabled — through grouping and playback.
  SchemeConfig off = fast_config(63);
  SchemeConfig on = off;
  on.affinity_drift_rate = 1e-300;  // draws drift targets, moves nothing
  Simulation a(off);
  Simulation b(on);
  const auto ra = a.run(4);
  const auto rb = b.run(4);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].k, rb[i].k);
    EXPECT_DOUBLE_EQ(ra[i].silhouette, rb[i].silhouette);
    EXPECT_DOUBLE_EQ(ra[i].actual_radio_hz_total, rb[i].actual_radio_hz_total);
    EXPECT_DOUBLE_EQ(ra[i].predicted_radio_hz_total,
                     rb[i].predicted_radio_hz_total);
    EXPECT_DOUBLE_EQ(ra[i].actual_compute_total, rb[i].actual_compute_total);
  }
}

TEST(FailureInjection, DegradedCollectionHurtsAccuracy) {
  // The DT premise: fresher twins → better predictions. Compare mean radio
  // error with pristine vs. heavily degraded collection over several seeds
  // (aggregated to damp variance).
  double err_good = 0.0;
  double err_bad = 0.0;
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    SchemeConfig good = fast_config(seed);
    good.user_count = 24;
    SchemeConfig bad = good;
    bad.collection.report_loss_prob = 0.9;
    bad.collection.channel_period_s = 20.0;
    bad.collection.latency_s = 30.0;

    Simulation sg(good);
    Simulation sb(bad);
    for (const auto& r : sg.run(6)) {
      if (r.has_prediction) {
        err_good += r.radio_error;
      }
    }
    for (const auto& r : sb.run(6)) {
      if (r.has_prediction) {
        err_bad += r.radio_error;
      }
    }
  }
  EXPECT_LT(err_good, err_bad)
      << "degrading twin freshness should not improve prediction";
}

}  // namespace
