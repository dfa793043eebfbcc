// Unit tests for dtmsv::twin — the columnar ring-buffer store (series
// semantics: ordering, eviction, half-open windows, staleness, truncation
// reporting; SoA layout, slot recycling, batch arena extraction and
// its thread-count invariance), UDT feature extraction,
// the twin store, and the per-attribute collector including loss/latency
// failure injection.
#include <gtest/gtest.h>

#include <cmath>

#include "behavior/session.hpp"
#include "mobility/random_waypoint.hpp"
#include "twin/collector.hpp"
#include "twin/column_store.hpp"
#include "twin/store.hpp"
#include "twin/udt.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "wireless/channel.hpp"

namespace {

using namespace dtmsv::twin;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;

// ------------------------------------------------------- columnar rings

ChannelObservation snr(double db) { return {db, 2.0, 0}; }

TEST(TwinColumnStore, RingRecordsLatestAndOldest) {
  ChannelColumn column(1, 8);
  const ChannelSeries series(&column, 0);
  EXPECT_TRUE(series.empty());
  EXPECT_THROW(series.latest(), PreconditionError);
  EXPECT_THROW(series.oldest(), PreconditionError);
  column.record(0, 1.0, snr(10.0));
  column.record(0, 2.0, snr(20.0));
  EXPECT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series.latest().value.snr_db, 20.0);
  EXPECT_DOUBLE_EQ(series.oldest().value.snr_db, 10.0);
}

TEST(TwinColumnStore, RingRejectsZeroCapacity) {
  EXPECT_THROW(ChannelColumn(1, 0), PreconditionError);
}

TEST(TwinColumnStore, RingWindowIsHalfOpen) {
  ChannelColumn column(1, 16);
  for (int i = 0; i < 10; ++i) {
    column.record(0, static_cast<double>(i), snr(i));
  }
  const auto window = ChannelSeries(&column, 0).window(3.0, 7.0);
  ASSERT_EQ(window.size(), 4u);  // t = 3,4,5,6
  EXPECT_DOUBLE_EQ(window.front().value.snr_db, 3.0);
  EXPECT_DOUBLE_EQ(window.back().value.snr_db, 6.0);
}

TEST(TwinColumnStore, RingWindowOutsideSamplesIsEmpty) {
  ChannelColumn column(1, 4);
  column.record(0, 10.0, snr(1.0));
  const ChannelSeries series(&column, 0);
  EXPECT_TRUE(series.window(0.0, 5.0).empty());
  EXPECT_TRUE(series.window(11.0, 20.0).empty());
}

TEST(TwinColumnStore, RingStaleness) {
  ChannelColumn column(1, 4);
  const ChannelSeries series(&column, 0);
  EXPECT_TRUE(std::isinf(series.staleness(0.0)));
  column.record(0, 10.0, snr(1.0));
  EXPECT_DOUBLE_EQ(series.staleness(15.0), 5.0);
  EXPECT_DOUBLE_EQ(series.staleness(5.0), 0.0);  // clamped
}

TEST(TwinColumnStore, RingEvictsOldestAndReportsTruncation) {
  TwinColumnStore store(2, /*history_capacity=*/3);
  for (int i = 0; i < 6; ++i) {
    store.record_channel(0, static_cast<double>(i), {static_cast<double>(i), 2.0, 0});
  }
  const ChannelSeries series = store.channel(0);
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.capacity(), 3u);
  EXPECT_DOUBLE_EQ(series.oldest().time, 3.0);
  EXPECT_DOUBLE_EQ(series.latest().value.snr_db, 5.0);
  // A query starting inside the evicted range must say so instead of
  // silently returning the shorter retained window.
  EXPECT_TRUE(series.truncated_before(2.0));   // t=2 was evicted
  EXPECT_FALSE(series.truncated_before(2.5));  // everything >= 2.5 retained
  EXPECT_FALSE(series.truncated_before(3.0));
  const auto query = series.window_query(0.0, 10.0);
  EXPECT_TRUE(query.truncated);
  ASSERT_EQ(query.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(query.samples.front().value.snr_db, 3.0);
  EXPECT_FALSE(series.window_query(3.0, 10.0).truncated);
  // The neighbouring user's ring is untouched (fixed-stride slots).
  EXPECT_TRUE(store.channel(1).empty());
  EXPECT_FALSE(store.channel(1).truncated_before(0.0));
  // Before any eviction a non-empty ring is not truncated either.
  store.record_channel(1, 1.0, snr(1.0));
  EXPECT_FALSE(store.channel(1).truncated_before(0.0));
  EXPECT_FALSE(store.channel(1).window_query(0.0, 2.0).truncated);
  // Recycling the slot forgets the eviction history with the samples.
  store.reset_user(0);
  EXPECT_FALSE(store.channel(0).truncated_before(0.0));
}

TEST(TwinColumnStore, RingRejectsTimeTravelPerUser) {
  TwinColumnStore store(2, 4);
  store.record_channel(0, 5.0, {1.0, 1.0, 0});
  EXPECT_THROW(store.record_channel(0, 4.0, {1.0, 1.0, 0}), PreconditionError);
  store.record_channel(0, 5.0, {2.0, 1.0, 0});  // equal timestamps allowed
  store.record_channel(1, 1.0, {3.0, 1.0, 0});  // other users independent
}

TEST(TwinColumnStore, BatchRowsMatchPerTwinExtraction) {
  TwinStore store(3);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  for (int t = 0; t < 30; ++t) {
    store.twin(0).record_channel(t, {10.0 + t, 2.0, 0});
    if (t % 3 == 0) {
      store.twin(1).record_location(t, {50.0, 25.0});
    }
  }
  WatchObservation w;
  w.category = dtmsv::video::Category::kMusic;
  w.watch_seconds = 12.0;
  w.watch_fraction = 0.6;
  store.twin(2).record_watch(5.0, w);

  FeatureArena arena;
  const WindowSpec spec{30.0, 30.0, 8, scaling};
  const WindowBatch windows = store.columns().feature_windows(spec, arena);
  const SummaryBatch summaries =
      store.columns().summary_features({30.0, 30.0, scaling}, arena);
  ASSERT_EQ(windows.size(), 3u);
  ASSERT_EQ(summaries.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto row = windows.row(u);
    const auto single = store.twin(u).feature_window(30.0, 30.0, 8, scaling);
    ASSERT_EQ(row.size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(row[i], single[i]) << "user " << u << " element " << i;
    }
    const auto srow = summaries.row(u);
    const auto ssingle = store.twin(u).summary_features(30.0, 30.0, scaling);
    ASSERT_EQ(srow.size(), ssingle.size());
    for (std::size_t i = 0; i < ssingle.size(); ++i) {
      EXPECT_EQ(srow[i], ssingle[i]) << "user " << u << " element " << i;
    }
  }
}

TEST(TwinColumnStore, HandoverSlotRecyclingLeavesNoHistoryBehind) {
  TwinStore store(3);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  for (int t = 0; t < 40; ++t) {
    store.twin(1).record_channel(t, {25.0, 4.0, 0});
  }
  WatchObservation w;
  w.category = dtmsv::video::Category::kGame;
  w.watch_seconds = 30.0;
  w.watch_fraction = 0.9;
  store.twin(1).record_watch(10.0, w);
  store.twin(1).record_preference(20.0, store.twin(1).preference_estimator().estimate());

  FeatureArena arena;
  const WindowSpec spec{40.0, 40.0, 8, scaling};
  const WindowBatch before = store.columns().feature_windows(spec, arena);
  bool any_nonzero = false;
  for (const float v : before.row(1)) {
    any_nonzero |= v != 0.0f;
  }
  ASSERT_TRUE(any_nonzero);

  // Handover: the slot is recycled in place — no history, no estimator
  // evidence, no stale truncation flag.
  store.reset_user(1);
  EXPECT_TRUE(store.twin(1).channel().empty());
  EXPECT_TRUE(store.twin(1).watch().empty());
  EXPECT_TRUE(store.twin(1).preference().empty());
  EXPECT_DOUBLE_EQ(store.twin(1).preference_estimator().evidence_seconds(), 0.0);
  EXPECT_FALSE(store.twin(1).channel().truncated_before(0.0));

  // The next snapshot must not leak the previous user's rows: the
  // recycled slot's row is all-zero, exactly a never-used slot's row.
  const WindowBatch after = store.columns().feature_windows(spec, arena);
  TwinStore fresh_store(3);
  FeatureArena fresh_arena;
  const WindowBatch fresh = fresh_store.columns().feature_windows(spec, fresh_arena);
  ASSERT_EQ(after.window_size(), fresh.window_size());
  for (std::size_t i = 0; i < after.window_size(); ++i) {
    EXPECT_EQ(after.row(1)[i], 0.0f) << "element " << i;
    EXPECT_EQ(after.row(1)[i], fresh.row(1)[i]) << "element " << i;
  }
  // Recording for the newcomer restarts cleanly from an empty ring.
  store.twin(1).record_channel(41.0, {12.0, 2.0, 0});
  EXPECT_EQ(store.twin(1).channel().size(), 1u);
}

TEST(TwinColumnStore, BatchExtractionThreadCountInvariant) {
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  const WindowSpec spec{60.0, 60.0, 16, scaling};
  const auto run_with_threads = [&](std::size_t threads) {
    dtmsv::util::set_thread_count(threads);
    TwinStore store(64);
    for (std::size_t u = 0; u < 64; ++u) {
      for (int t = 0; t < 60; ++t) {
        store.twin(u).record_channel(
            t, {5.0 + 0.1 * static_cast<double>(u * 60 + t), 2.0, 0});
      }
    }
    for (std::size_t u = 0; u < 64; u += 7) {
      store.columns().record_channel(u, 59.5, {30.0, 5.0, 0});
    }
    FeatureArena arena;
    const WindowBatch batch = store.columns().feature_windows(spec, arena);
    std::vector<float> bytes(batch.data(),
                             batch.data() + batch.size() * batch.window_size());
    dtmsv::util::set_thread_count(0);  // restore env/hardware default
    return bytes;
  };
  const auto single = run_with_threads(1);
  const auto pooled = run_with_threads(5);
  ASSERT_EQ(single.size(), pooled.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    ASSERT_EQ(single[i], pooled[i]) << "element " << i;
  }
}

// -------------------------------------------------------------------- UDT

TEST(UserDigitalTwin, RecordsAllFourAttributes) {
  UserDigitalTwin twin(3);
  EXPECT_EQ(twin.user_id(), 3u);
  twin.record_channel(1.0, {12.0, 2.5, 0});
  twin.record_location(1.0, {100.0, 200.0});
  WatchObservation w;
  w.category = dtmsv::video::Category::kNews;
  w.watch_seconds = 10.0;
  w.watch_fraction = 0.5;
  w.duration_s = 20.0;
  twin.record_watch(2.0, w);
  twin.record_preference(3.0, twin.preference_estimator().estimate());

  EXPECT_EQ(twin.channel().size(), 1u);
  EXPECT_EQ(twin.location().size(), 1u);
  EXPECT_EQ(twin.watch().size(), 1u);
  EXPECT_EQ(twin.preference().size(), 1u);
}

TEST(UserDigitalTwin, WatchIngestionFeedsPreferenceEstimator) {
  UserDigitalTwin twin(0);
  WatchObservation w;
  w.category = dtmsv::video::Category::kMusic;
  w.watch_seconds = 42.0;
  twin.record_watch(1.0, w);
  const auto est = twin.preference_estimator().estimate();
  EXPECT_GT(est[static_cast<std::size_t>(dtmsv::video::Category::kMusic)], 0.5);
  EXPECT_DOUBLE_EQ(twin.preference_estimator().evidence_seconds(), 42.0);
}

TEST(UserDigitalTwin, FeatureWindowShapeAndRange) {
  UserDigitalTwin twin(0);
  const FeatureScaling scaling{1200.0, 1000.0, 10.0, 40.0};
  for (int t = 0; t < 60; ++t) {
    twin.record_channel(static_cast<double>(t), {15.0, 3.0, 0});
    twin.record_location(static_cast<double>(t), {600.0, 500.0});
  }
  const auto window = twin.feature_window(60.0, 60.0, 16, scaling);
  ASSERT_EQ(window.size(), UserDigitalTwin::kFeatureChannels * 16);
  for (const float v : window) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, -0.01f);
    EXPECT_LE(v, 1.5f);
  }
  // Channel 0 (normalised SNR) should be (15+10)/40 = 0.625 in every bin.
  for (std::size_t b = 0; b < 16; ++b) {
    EXPECT_NEAR(window[b], 0.625f, 1e-5);
  }
  // Channel 2 (x/width) = 0.5.
  for (std::size_t b = 0; b < 16; ++b) {
    EXPECT_NEAR(window[2 * 16 + b], 0.5f, 1e-5);
  }
}

TEST(UserDigitalTwin, FeatureWindowZeroOrderHold) {
  UserDigitalTwin twin(0);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  // One sample early in the window; later bins must hold its value.
  twin.record_channel(1.0, {10.0, 2.0, 0});
  const auto window = twin.feature_window(32.0, 32.0, 8, scaling);
  const float expected = (10.0f + 10.0f) / 40.0f;
  EXPECT_NEAR(window[0], expected, 1e-5);
  EXPECT_NEAR(window[7], expected, 1e-5);  // held forward
}

TEST(UserDigitalTwin, FeatureWindowEmptyTwinAllZero) {
  UserDigitalTwin twin(0);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  const auto window = twin.feature_window(100.0, 50.0, 8, scaling);
  // Preference channels hold zeros too (no snapshots yet).
  for (const float v : window) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(UserDigitalTwin, SummaryFeaturesContent) {
  UserDigitalTwin twin(0);
  const FeatureScaling scaling{1000.0, 1000.0, 10.0, 40.0};
  for (int t = 0; t < 10; ++t) {
    twin.record_channel(static_cast<double>(t), {10.0, 2.0, 0});
    twin.record_location(static_cast<double>(t), {500.0, 250.0});
  }
  const auto features = twin.summary_features(10.0, 10.0, scaling);
  ASSERT_EQ(features.size(), 6u + dtmsv::video::kCategoryCount);
  EXPECT_NEAR(features[0], 0.5, 1e-9);   // mean snr normalised
  EXPECT_NEAR(features[1], 0.0, 1e-9);   // snr stddev
  EXPECT_NEAR(features[2], 0.5, 1e-9);   // x
  EXPECT_NEAR(features[3], 0.25, 1e-9);  // y
}

// ------------------------------------------------------------------- Store

TEST(TwinStore, OwnsOneTwinPerUser) {
  TwinStore store(5);
  EXPECT_EQ(store.user_count(), 5u);
  for (std::uint64_t u = 0; u < 5; ++u) {
    EXPECT_EQ(store.twin(u).user_id(), u);
  }
  EXPECT_THROW(store.twin(5), PreconditionError);
}

TEST(TwinStore, BulkFeatureExtraction) {
  TwinStore store(3);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  store.twin(0).record_channel(1.0, {20.0, 4.0, 0});
  // The WindowBatch/SummaryBatch views are the only bulk surface; their
  // rows must be bit-identical to the per-twin single-row extraction.
  FeatureArena arena;
  const WindowBatch batch =
      store.columns().feature_windows({10.0, 10.0, 8, scaling}, arena);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto row = batch.row(u);
    ASSERT_EQ(row.size(), UserDigitalTwin::kFeatureChannels * 8);
    const std::vector<float> single = store.twin(u).feature_window(10.0, 10.0, 8, scaling);
    ASSERT_EQ(single.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(single[i], row[i]);
    }
  }
  const SummaryBatch summaries =
      store.columns().summary_features({10.0, 10.0, scaling}, arena);
  ASSERT_EQ(summaries.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto row = summaries.row(u);
    const std::vector<double> single = store.twin(u).summary_features(10.0, 10.0, scaling);
    ASSERT_EQ(single.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(single[i], row[i]);
    }
  }
}

TEST(TwinStore, DecayPreferencesAcrossAllTwins) {
  TwinStore store(2);
  WatchObservation w;
  w.category = dtmsv::video::Category::kGame;
  w.watch_seconds = 100.0;
  store.twin(0).record_watch(1.0, w);
  store.twin(1).record_watch(1.0, w);
  const double before = store.twin(0).preference_estimator().evidence_seconds();
  store.decay_preferences();
  EXPECT_LT(store.twin(0).preference_estimator().evidence_seconds(), before);
  EXPECT_LT(store.twin(1).preference_estimator().evidence_seconds(), before);
}

// --------------------------------------------------------------- Collector

struct CollectorFixture {
  dtmsv::mobility::CampusMap map = dtmsv::mobility::CampusMap::waterloo_campus();
  dtmsv::mobility::MobilityConfig mob_cfg{};
  Rng rng{99};
  std::size_t users = 4;
  dtmsv::mobility::MobilityField field{map, mob_cfg, users, rng};
  dtmsv::wireless::RadioConfig radio{};
  Rng channel_rng{100};
  dtmsv::wireless::ChannelModel channel{map, radio, users, channel_rng};
  TwinStore store{users};

  void run(StatusCollector& collector, int seconds) {
    for (int t = 0; t < seconds; ++t) {
      field.advance(1.0);
      channel.step(field.snapshot());
      collector.tick(static_cast<double>(t + 1), 1.0, store, channel, field, {});
    }
  }
};

TEST(StatusCollector, RespectsPerAttributePeriods) {
  CollectorFixture fx;
  CollectionPolicy policy;
  policy.channel_period_s = 1.0;
  policy.location_period_s = 5.0;
  policy.preference_period_s = 20.0;
  StatusCollector collector(policy, fx.users, Rng(1));
  fx.run(collector, 20);

  const auto& stats = collector.stats();
  EXPECT_EQ(stats.channel_reports, 20u * fx.users);
  // Location fires at t=1 (first due) then every 5 s: t=1,5,10,15,20 → 5.
  EXPECT_EQ(stats.location_reports, 5u * fx.users);
  EXPECT_EQ(stats.dropped_reports, 0u);
  EXPECT_EQ(fx.store.twin(0).channel().size(), 20u);
}

TEST(StatusCollector, ReportLossDropsShare) {
  CollectorFixture fx;
  CollectionPolicy policy;
  policy.report_loss_prob = 0.5;
  StatusCollector collector(policy, fx.users, Rng(2));
  fx.run(collector, 100);

  const auto& stats = collector.stats();
  const std::size_t delivered = stats.channel_reports + stats.location_reports +
                                stats.preference_reports;
  const double loss_rate =
      static_cast<double>(stats.dropped_reports) /
      static_cast<double>(delivered + stats.dropped_reports);
  EXPECT_NEAR(loss_rate, 0.5, 0.1);
  // Twins still usable, just sparser.
  EXPECT_GT(fx.store.twin(0).channel().size(), 20u);
  EXPECT_LT(fx.store.twin(0).channel().size(), 80u);
}

TEST(StatusCollector, LatencyShiftsVisibility) {
  CollectorFixture fx;
  CollectionPolicy policy;
  policy.latency_s = 10.0;
  StatusCollector collector(policy, fx.users, Rng(3));
  fx.run(collector, 5);
  // Measurements at t=1..5 are stamped 11..15: not visible in [0, 6).
  EXPECT_TRUE(fx.store.twin(0).channel().window(0.0, 6.0).empty());
  EXPECT_EQ(fx.store.twin(0).channel().window(0.0, 16.0).size(), 5u);
}

TEST(StatusCollector, WatchEventsAreEventDriven) {
  CollectorFixture fx;
  CollectionPolicy policy;
  StatusCollector collector(policy, fx.users, Rng(4));

  fx.field.advance(1.0);
  fx.channel.step(fx.field.snapshot());
  dtmsv::behavior::ViewEvent ev;
  ev.user_id = 2;
  ev.video_id = 17;
  ev.category = dtmsv::video::Category::kComedy;
  ev.start_time = 0.2;
  ev.duration_s = 12.0;
  ev.watch_seconds = 6.0;
  ev.watch_fraction = 0.5;
  collector.tick(1.0, 1.0, fx.store, fx.channel, fx.field, {ev});

  EXPECT_EQ(collector.stats().watch_reports, 1u);
  ASSERT_EQ(fx.store.twin(2).watch().size(), 1u);
  const auto& obs = fx.store.twin(2).watch().latest().value;
  EXPECT_EQ(obs.video_id, 17u);
  EXPECT_DOUBLE_EQ(obs.watch_fraction, 0.5);
  // Other twins untouched.
  EXPECT_EQ(fx.store.twin(0).watch().size(), 0u);
}

TEST(StatusCollector, InvalidPolicyRejected) {
  CollectionPolicy policy;
  policy.channel_period_s = 0.0;
  EXPECT_THROW(StatusCollector(policy, 2, Rng(5)), PreconditionError);
  CollectionPolicy p2;
  p2.report_loss_prob = 1.5;
  EXPECT_THROW(StatusCollector(p2, 2, Rng(6)), PreconditionError);
}

}  // namespace
