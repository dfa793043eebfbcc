// Unit tests for dtmsv::twin — the columnar ring-buffer store (ring
// semantics: ordering, horizon eviction, lane growth across the wrap,
// half-open window scans, truncation reporting; SoA layout, slot
// recycling, batch arena extraction, its spec checks and its thread-count
// invariance), one-user feature extraction, the per-attribute collector
// including loss/latency failure injection, and retention end to end: the
// Simulation and ServeLoop windows stay complete and the fleet's lanes stay
// within twice their in-horizon sample count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "behavior/session.hpp"
#include "core/fleet.hpp"
#include "core/scenarios.hpp"
#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "core/simulation.hpp"
#include "mobility/random_waypoint.hpp"
#include "twin/collector.hpp"
#include "twin/column_store.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "wireless/channel.hpp"

namespace {

using namespace dtmsv::twin;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;

// ------------------------------------------------------- columnar rings

ChannelObservation snr(double db) { return {db, 2.0, 0}; }

/// SNRs of user `u`'s channel samples in [from, to), oldest first.
std::vector<double> window_snr(const ChannelColumn& column, std::size_t u, double from,
                               double to) {
  std::vector<double> out;
  column.for_each_in_window(u, from, to,
                            [&](std::size_t at) { out.push_back(column.snr()[at]); });
  return out;
}

/// Single-row extraction into owning vectors.
std::vector<float> window_row(const TwinColumnStore& store, std::size_t u,
                              const WindowSpec& spec) {
  std::vector<float> out(TwinColumnStore::kFeatureChannels * spec.timesteps);
  store.extract_window_row(u, spec, out.data());
  return out;
}

std::vector<double> summary_row(const TwinColumnStore& store, std::size_t u,
                                const SummarySpec& spec) {
  std::vector<double> out(TwinColumnStore::kSummaryDim);
  store.extract_summary_row(u, spec, out.data());
  return out;
}

TEST(TwinColumnStore, RingRecordsLatestAndOldest) {
  ChannelColumn column(1, kKeepAll);
  EXPECT_TRUE(column.empty(0));
  EXPECT_THROW(column.get(0, 0), PreconditionError);
  EXPECT_THROW(column.time(0, 0), PreconditionError);
  column.record(0, 1.0, snr(10.0));
  column.record(0, 2.0, snr(20.0));
  EXPECT_EQ(column.size(0), 2u);
  EXPECT_DOUBLE_EQ(column.get(0, 1).snr_db, 20.0);
  EXPECT_DOUBLE_EQ(column.get(0, 0).snr_db, 10.0);
  EXPECT_THROW(column.get(0, 2), PreconditionError);
}

TEST(TwinColumnStore, RingRejectsNonPositiveRetention) {
  EXPECT_THROW(ChannelColumn(1, 0.0), PreconditionError);
  EXPECT_THROW(ChannelColumn(1, -1.0), PreconditionError);
  EXPECT_THROW(ChannelColumn(1, std::nan("")), PreconditionError);
  EXPECT_THROW(TwinColumnStore(1, 0.0), PreconditionError);
}

TEST(TwinColumnStore, RingWindowIsHalfOpen) {
  ChannelColumn column(1, kKeepAll);
  for (int i = 0; i < 10; ++i) {
    column.record(0, static_cast<double>(i), snr(i));
  }
  const auto window = window_snr(column, 0, 3.0, 7.0);
  ASSERT_EQ(window.size(), 4u);  // t = 3,4,5,6
  EXPECT_DOUBLE_EQ(window.front(), 3.0);
  EXPECT_DOUBLE_EQ(window.back(), 6.0);
  EXPECT_THROW(window_snr(column, 0, 7.0, 3.0), PreconditionError);
}

TEST(TwinColumnStore, RingWindowOutsideSamplesIsEmpty) {
  ChannelColumn column(1, kKeepAll);
  column.record(0, 10.0, snr(1.0));
  EXPECT_TRUE(window_snr(column, 0, 0.0, 5.0).empty());
  EXPECT_TRUE(window_snr(column, 0, 11.0, 20.0).empty());
}

TEST(TwinColumnStore, RingNewestTimestamp) {
  ChannelColumn column(1, kKeepAll);
  EXPECT_TRUE(column.empty(0));
  column.record(0, 10.0, snr(1.0));
  column.record(0, 12.0, snr(1.0));
  EXPECT_DOUBLE_EQ(column.time(0, column.size(0) - 1), 12.0);
  EXPECT_DOUBLE_EQ(column.time(0, 0), 10.0);
}

TEST(RingColumn, WindowScanIsHalfOpenAcrossWrap) {
  // A 3 s horizon over 1 Hz samples fits the initial 4 slots, so 7
  // samples at t = 0..6 leave t = 3..6 with the head mid-buffer: the
  // retained run wraps the physical slots.
  ChannelColumn column(2, 3.0);
  for (int i = 0; i < 7; ++i) {
    column.record(0, static_cast<double>(i), snr(10.0 * i));
  }
  ASSERT_EQ(column.capacity(), RingColumnBase::kInitialSlots);
  ASSERT_EQ(column.size(0), 4u);
  ASSERT_NE(column.slot(0, 0), 0u);  // head != 0
  ASSERT_LT(column.slot(0, 3), column.slot(0, 0));  // wrapped
  const auto visit = [&](double from, double to) {
    std::vector<double> times;
    column.for_each_in_window(0, from, to, [&](std::size_t at) {
      times.push_back(column.times()[at]);
      EXPECT_DOUBLE_EQ(column.snr()[at], 10.0 * column.times()[at]);
    });
    return times;
  };
  EXPECT_EQ(visit(3.0, 7.0), (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
  EXPECT_EQ(visit(4.0, 6.0), (std::vector<double>{4.0, 5.0}));  // to excluded
  EXPECT_EQ(visit(4.5, 6.0), (std::vector<double>{5.0}));
  EXPECT_EQ(visit(0.0, 100.0), (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
  EXPECT_TRUE(visit(5.0, 5.0).empty());
  EXPECT_TRUE(visit(0.0, 3.0).empty());  // evicted samples are gone
  // The neighbouring user's slots are never visited.
  std::size_t other = 0;
  column.for_each_in_window(1, 0.0, 100.0, [&](std::size_t) { ++other; });
  EXPECT_EQ(other, 0u);
}

TEST(TwinColumnStore, RingEvictsOldestAndReportsTruncation) {
  // A 2.5 s horizon over 1 Hz samples: a sample is overwritten once it is
  // more than 2.5 s older than the newest, so t = 0..6 leave t = 3..6.
  TwinColumnStore store(2, /*retention_s=*/2.5);
  for (int i = 0; i < 7; ++i) {
    store.record_channel(0, static_cast<double>(i), {static_cast<double>(i), 2.0, 0});
  }
  const ChannelColumn& column = store.channel_column();
  EXPECT_EQ(column.size(0), 4u);
  EXPECT_EQ(column.capacity(), RingColumnBase::kInitialSlots);
  EXPECT_DOUBLE_EQ(column.time(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(column.get(0, column.size(0) - 1).snr_db, 6.0);
  // A window starting inside the evicted range must say so instead of
  // silently reading the shorter retained window.
  EXPECT_TRUE(column.truncated_before(0, 2.0));   // t=2 was evicted
  EXPECT_FALSE(column.truncated_before(0, 2.5));  // everything >= 2.5 retained
  EXPECT_FALSE(column.truncated_before(0, 3.0));
  EXPECT_TRUE(column.truncated_before(0, 0.0));
  const auto window = window_snr(column, 0, 0.0, 10.0);
  ASSERT_EQ(window.size(), 4u);
  EXPECT_DOUBLE_EQ(window.front(), 3.0);
  // The neighbouring user's ring is untouched (per-user slots).
  EXPECT_TRUE(column.empty(1));
  EXPECT_FALSE(column.truncated_before(1, 0.0));
  // Before any eviction a non-empty ring is not truncated either.
  store.record_channel(1, 1.0, snr(1.0));
  EXPECT_FALSE(column.truncated_before(1, 0.0));
  // Recycling the slot forgets the eviction history with the samples.
  store.reset_user(0);
  EXPECT_FALSE(column.truncated_before(0, 0.0));
}

TEST(TwinColumnStore, RingRejectsTimeTravelPerUser) {
  TwinColumnStore store(2, kKeepAll);
  EXPECT_THROW(store.record_channel(0, std::nan(""), {1.0, 1.0, 0}), PreconditionError);
  store.record_channel(0, 5.0, {1.0, 1.0, 0});
  EXPECT_THROW(store.record_channel(0, 4.0, {1.0, 1.0, 0}), PreconditionError);
  EXPECT_THROW(store.record_channel(0, std::nan(""), {1.0, 1.0, 0}), PreconditionError);
  store.record_channel(0, 5.0, {2.0, 1.0, 0});  // equal timestamps allowed
  store.record_channel(1, 1.0, {3.0, 1.0, 0});  // other users independent
}

TEST(TwinColumnStore, BatchRowsMatchSingleRowExtraction) {
  TwinColumnStore store(3, kKeepAll);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  for (int t = 0; t < 30; ++t) {
    store.record_channel(0, t, {10.0 + t, 2.0, 0});
    if (t % 3 == 0) {
      store.record_location(1, t, {50.0, 25.0});
    }
  }
  WatchObservation w;
  w.category = dtmsv::video::Category::kMusic;
  w.watch_seconds = 12.0;
  w.watch_fraction = 0.6;
  store.record_watch(2, 5.0, w);

  FeatureArena arena;
  const WindowSpec spec{30.0, 30.0, 8, scaling};
  const SummarySpec summary_spec{30.0, 30.0, scaling};
  const WindowBatch windows = store.feature_windows(spec, arena);
  const SummaryBatch summaries = store.summary_features(summary_spec, arena);
  ASSERT_EQ(windows.size(), 3u);
  ASSERT_EQ(summaries.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto row = windows.row(u);
    const auto single = window_row(store, u, spec);
    ASSERT_EQ(row.size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(row[i], single[i]) << "user " << u << " element " << i;
    }
    const auto srow = summaries.row(u);
    const auto ssingle = summary_row(store, u, summary_spec);
    ASSERT_EQ(srow.size(), ssingle.size());
    for (std::size_t i = 0; i < ssingle.size(); ++i) {
      EXPECT_EQ(srow[i], ssingle[i]) << "user " << u << " element " << i;
    }
  }
}

TEST(TwinColumnStore, NonPositiveScalingRejectedByBothBatchPaths) {
  TwinColumnStore store(2, kKeepAll);
  store.record_location(0, 1.0, {50.0, 25.0});
  FeatureArena arena;
  std::vector<double> summary(TwinColumnStore::kSummaryDim);
  std::vector<float> window(TwinColumnStore::kFeatureChannels * 8);
  for (const FeatureScaling bad : {FeatureScaling{0.0, 100.0, 10.0, 40.0},
                                   FeatureScaling{100.0, -1.0, 10.0, 40.0},
                                   FeatureScaling{100.0, 100.0, 10.0, 0.0}}) {
    // The summary path would otherwise divide by zero into inf/NaN rows.
    EXPECT_THROW(store.summary_features({10.0, 10.0, bad}, arena), PreconditionError);
    EXPECT_THROW(store.extract_summary_row(0, {10.0, 10.0, bad}, summary.data()),
                 PreconditionError);
    EXPECT_THROW(store.feature_windows({10.0, 10.0, 8, bad}, arena), PreconditionError);
    EXPECT_THROW(store.extract_window_row(0, {10.0, 10.0, 8, bad}, window.data()),
                 PreconditionError);
  }
  EXPECT_THROW(store.summary_features({10.0, 0.0, {}}, arena), PreconditionError);
  EXPECT_THROW(store.feature_windows({10.0, 10.0, 0, {}}, arena), PreconditionError);
  // A valid spec still extracts finite rows.
  const SummaryBatch ok = store.summary_features({10.0, 10.0, {100.0, 100.0, 10.0, 40.0}},
                                                 arena);
  for (const double v : ok.row(0)) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(TwinColumnStore, HandoverSlotRecyclingLeavesNoHistoryBehind) {
  TwinColumnStore store(3, kKeepAll);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  for (int t = 0; t < 40; ++t) {
    store.record_channel(1, t, {25.0, 4.0, 0});
  }
  WatchObservation w;
  w.category = dtmsv::video::Category::kGame;
  w.watch_seconds = 30.0;
  w.watch_fraction = 0.9;
  store.record_watch(1, 10.0, w);
  store.record_preference(1, 20.0, store.estimator(1).estimate());

  FeatureArena arena;
  const WindowSpec spec{40.0, 40.0, 8, scaling};
  const WindowBatch before = store.feature_windows(spec, arena);
  bool any_nonzero = false;
  for (const float v : before.row(1)) {
    any_nonzero |= v != 0.0f;
  }
  ASSERT_TRUE(any_nonzero);

  // Handover: the slot is recycled in place — no history, no estimator
  // evidence, no stale truncation flag.
  store.reset_user(1);
  EXPECT_TRUE(store.channel_column().empty(1));
  EXPECT_TRUE(store.watch_column().empty(1));
  EXPECT_TRUE(store.preference_column().empty(1));
  EXPECT_DOUBLE_EQ(store.estimator(1).evidence_seconds(), 0.0);
  EXPECT_FALSE(store.channel_column().truncated_before(1, 0.0));

  // The next snapshot must not leak the previous user's rows: the
  // recycled slot's row is all-zero, exactly a never-used slot's row.
  const WindowBatch after = store.feature_windows(spec, arena);
  TwinColumnStore fresh_store(3, kKeepAll);
  FeatureArena fresh_arena;
  const WindowBatch fresh = fresh_store.feature_windows(spec, fresh_arena);
  ASSERT_EQ(after.window_size(), fresh.window_size());
  for (std::size_t i = 0; i < after.window_size(); ++i) {
    EXPECT_EQ(after.row(1)[i], 0.0f) << "element " << i;
    EXPECT_EQ(after.row(1)[i], fresh.row(1)[i]) << "element " << i;
  }
  // Recording for the newcomer restarts cleanly from an empty ring.
  store.record_channel(1, 41.0, {12.0, 2.0, 0});
  EXPECT_EQ(store.channel_column().size(1), 1u);
}

TEST(TwinColumnStore, BatchExtractionThreadCountInvariant) {
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  const WindowSpec spec{60.0, 60.0, 16, scaling};
  const auto run_with_threads = [&](std::size_t threads) {
    dtmsv::util::set_thread_count(threads);
    TwinColumnStore store(64, kKeepAll);
    for (std::size_t u = 0; u < 64; ++u) {
      for (int t = 0; t < 60; ++t) {
        store.record_channel(
            u, t, {5.0 + 0.1 * static_cast<double>(u * 60 + t), 2.0, 0});
      }
    }
    for (std::size_t u = 0; u < 64; u += 7) {
      store.record_channel(u, 59.5, {30.0, 5.0, 0});
    }
    FeatureArena arena;
    const WindowBatch batch = store.feature_windows(spec, arena);
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

// ---------------------------------------------------------- one-user twin

TEST(OneUserTwin, RecordsAllFourAttributes) {
  TwinColumnStore twin(1, kKeepAll);
  twin.record_channel(0, 1.0, {12.0, 2.5, 0});
  twin.record_location(0, 1.0, {100.0, 200.0});
  WatchObservation w;
  w.category = dtmsv::video::Category::kNews;
  w.watch_seconds = 10.0;
  w.watch_fraction = 0.5;
  w.duration_s = 20.0;
  twin.record_watch(0, 2.0, w);
  twin.record_preference(0, 3.0, twin.estimator(0).estimate());

  EXPECT_EQ(twin.channel_column().size(0), 1u);
  EXPECT_EQ(twin.location_column().size(0), 1u);
  EXPECT_EQ(twin.watch_column().size(0), 1u);
  EXPECT_EQ(twin.preference_column().size(0), 1u);
}

TEST(OneUserTwin, WatchIngestionFeedsPreferenceEstimator) {
  TwinColumnStore twin(1, kKeepAll);
  WatchObservation w;
  w.category = dtmsv::video::Category::kMusic;
  w.watch_seconds = 42.0;
  twin.record_watch(0, 1.0, w);
  const auto est = twin.estimator(0).estimate();
  EXPECT_GT(est[static_cast<std::size_t>(dtmsv::video::Category::kMusic)], 0.5);
  EXPECT_DOUBLE_EQ(twin.estimator(0).evidence_seconds(), 42.0);
  // Before any snapshot, the latest preference is the estimator's.
  EXPECT_EQ(twin.latest_preference(0), est);
  dtmsv::behavior::PreferenceVector snapshot{};
  snapshot[0] = 1.0;
  twin.record_preference(0, 2.0, snapshot);
  EXPECT_EQ(twin.latest_preference(0), snapshot);
}

TEST(OneUserTwin, FeatureWindowShapeAndRange) {
  TwinColumnStore twin(1, kKeepAll);
  const FeatureScaling scaling{1200.0, 1000.0, 10.0, 40.0};
  for (int t = 0; t < 60; ++t) {
    twin.record_channel(0, static_cast<double>(t), {15.0, 3.0, 0});
    twin.record_location(0, static_cast<double>(t), {600.0, 500.0});
  }
  const auto window = window_row(twin, 0, {60.0, 60.0, 16, scaling});
  ASSERT_EQ(window.size(), TwinColumnStore::kFeatureChannels * 16);
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

TEST(OneUserTwin, FeatureWindowZeroOrderHold) {
  TwinColumnStore twin(1, kKeepAll);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  // One sample early in the window; later bins must hold its value.
  twin.record_channel(0, 1.0, {10.0, 2.0, 0});
  const auto window = window_row(twin, 0, {32.0, 32.0, 8, scaling});
  const float expected = (10.0f + 10.0f) / 40.0f;
  EXPECT_NEAR(window[0], expected, 1e-5);
  EXPECT_NEAR(window[7], expected, 1e-5);  // held forward
}

TEST(OneUserTwin, FeatureWindowEmptyTwinAllZero) {
  const TwinColumnStore twin(1, kKeepAll);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  const auto window = window_row(twin, 0, {100.0, 50.0, 8, scaling});
  // Preference channels hold zeros too (no snapshots yet).
  for (const float v : window) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(OneUserTwin, SummaryFeaturesContent) {
  TwinColumnStore twin(1, kKeepAll);
  const FeatureScaling scaling{1000.0, 1000.0, 10.0, 40.0};
  for (int t = 0; t < 10; ++t) {
    twin.record_channel(0, static_cast<double>(t), {10.0, 2.0, 0});
    twin.record_location(0, static_cast<double>(t), {500.0, 250.0});
  }
  const auto features = summary_row(twin, 0, {10.0, 10.0, scaling});
  ASSERT_EQ(features.size(), 6u + dtmsv::video::kCategoryCount);
  EXPECT_NEAR(features[0], 0.5, 1e-9);   // mean snr normalised
  EXPECT_NEAR(features[1], 0.0, 1e-9);   // snr stddev
  EXPECT_NEAR(features[2], 0.5, 1e-9);   // x
  EXPECT_NEAR(features[3], 0.25, 1e-9);  // y
}

// ------------------------------------------------------------- population

TEST(TwinColumnStore, OneSlotPerUser) {
  TwinColumnStore store(5, kKeepAll);
  EXPECT_EQ(store.user_count(), 5u);
  for (std::size_t u = 0; u < 5; ++u) {
    store.record_channel(u, 1.0, snr(static_cast<double>(u)));
    EXPECT_DOUBLE_EQ(store.channel_column().get(u, 0).snr_db, static_cast<double>(u));
  }
  EXPECT_THROW(store.record_channel(5, 1.0, snr(0.0)), PreconditionError);
  EXPECT_THROW(store.latest_preference(5), PreconditionError);
  EXPECT_THROW(TwinColumnStore(0, kKeepAll), PreconditionError);
}

TEST(TwinColumnStore, BulkFeatureExtraction) {
  TwinColumnStore store(3, kKeepAll);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  store.record_channel(0, 1.0, {20.0, 4.0, 0});
  // The WindowBatch/SummaryBatch views are the only bulk surface; their
  // rows must be bit-identical to the single-row extraction.
  FeatureArena arena;
  const WindowBatch batch = store.feature_windows({10.0, 10.0, 8, scaling}, arena);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto row = batch.row(u);
    ASSERT_EQ(row.size(), TwinColumnStore::kFeatureChannels * 8);
    const std::vector<float> single = window_row(store, u, {10.0, 10.0, 8, scaling});
    ASSERT_EQ(single.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(single[i], row[i]);
    }
  }
  const SummaryBatch summaries = store.summary_features({10.0, 10.0, scaling}, arena);
  ASSERT_EQ(summaries.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto row = summaries.row(u);
    const std::vector<double> single = summary_row(store, u, {10.0, 10.0, scaling});
    ASSERT_EQ(single.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(single[i], row[i]);
    }
  }
}

TEST(TwinColumnStore, DecayPreferencesAcrossAllTwins) {
  TwinColumnStore store(2, kKeepAll);
  WatchObservation w;
  w.category = dtmsv::video::Category::kGame;
  w.watch_seconds = 100.0;
  store.record_watch(0, 1.0, w);
  store.record_watch(1, 1.0, w);
  const double before = store.estimator(0).evidence_seconds();
  store.decay_preferences();
  EXPECT_LT(store.estimator(0).evidence_seconds(), before);
  EXPECT_LT(store.estimator(1).evidence_seconds(), before);
  const double after_all = store.estimator(1).evidence_seconds();
  store.decay_preference(1);
  EXPECT_LT(store.estimator(1).evidence_seconds(), after_all);
  EXPECT_DOUBLE_EQ(store.estimator(0).evidence_seconds(), after_all);
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
  TwinColumnStore store{users, kKeepAll};

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
  EXPECT_EQ(fx.store.channel_column().size(0), 20u);
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
  EXPECT_GT(fx.store.channel_column().size(0), 20u);
  EXPECT_LT(fx.store.channel_column().size(0), 80u);
}

TEST(StatusCollector, LatencyShiftsVisibility) {
  CollectorFixture fx;
  CollectionPolicy policy;
  policy.latency_s = 10.0;
  StatusCollector collector(policy, fx.users, Rng(3));
  fx.run(collector, 5);
  // Measurements at t=1..5 are stamped 11..15: not visible in [0, 6).
  EXPECT_TRUE(window_snr(fx.store.channel_column(), 0, 0.0, 6.0).empty());
  EXPECT_EQ(window_snr(fx.store.channel_column(), 0, 0.0, 16.0).size(), 5u);
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
  const WatchColumn& watch = fx.store.watch_column();
  ASSERT_EQ(watch.size(2), 1u);
  const WatchObservation obs = watch.get(2, 0);
  EXPECT_EQ(obs.video_id, 17u);
  EXPECT_DOUBLE_EQ(obs.watch_fraction, 0.5);
  // Other twins untouched.
  EXPECT_EQ(watch.size(0), 0u);
}

TEST(StatusCollector, InvalidPolicyRejected) {
  CollectionPolicy policy;
  policy.channel_period_s = 0.0;
  EXPECT_THROW(StatusCollector(policy, 2, Rng(5)), PreconditionError);
  CollectionPolicy p2;
  p2.report_loss_prob = 1.5;
  EXPECT_THROW(StatusCollector(p2, 2, Rng(6)), PreconditionError);
}


// -------------------------------------------------------------- retention

/// Distinct, reproducible sample values per column type.
template <typename Column>
struct Samples;

template <>
struct Samples<ChannelColumn> {
  static ChannelObservation at(int k) {
    return {static_cast<double>(k), 0.5 * k, static_cast<std::size_t>(k % 3)};
  }
};

template <>
struct Samples<LocationColumn> {
  static dtmsv::mobility::Position at(int k) {
    return {static_cast<double>(k), -2.0 * k};
  }
};

template <>
struct Samples<WatchColumn> {
  static WatchObservation at(int k) {
    WatchObservation w;
    w.video_id = static_cast<std::uint64_t>(k);
    w.category = static_cast<dtmsv::video::Category>(
        static_cast<std::size_t>(k) % dtmsv::video::kCategoryCount);
    w.duration_s = k + 1.0;
    w.watch_seconds = 0.25 * k;
    w.watch_fraction = 1.0 / (k + 2.0);
    w.completed = k % 2 == 0;
    return w;
  }
};

template <>
struct Samples<PreferenceColumn> {
  static dtmsv::behavior::PreferenceVector at(int k) {
    dtmsv::behavior::PreferenceVector v{};
    for (std::size_t c = 0; c < v.size(); ++c) {
      v[c] = k + 0.1 * static_cast<double>(c);
    }
    return v;
  }
};

template <typename Column>
class RingGrowth : public ::testing::Test {};

using AllColumns =
    ::testing::Types<ChannelColumn, LocationColumn, WatchColumn, PreferenceColumn>;
TYPED_TEST_SUITE(RingGrowth, AllColumns);

TYPED_TEST(RingGrowth, WrappedRingKeepsOrderAndValues) {
  using Column = TypeParam;
  const auto value = [](int k) { return Samples<Column>::at(k); };
  // A 3 s horizon over 1 Hz samples: t = 0..6 leave t = 3..6 in the
  // initial 4 slots with the head mid-buffer (a wrapped ring).
  Column column(3, 3.0);
  for (int k = 0; k <= 6; ++k) {
    column.record(0, k, value(k));
  }
  column.record(1, 0.0, value(100));
  column.record(1, 1.0, value(101));
  ASSERT_EQ(column.capacity(), RingColumnBase::kInitialSlots);
  ASSERT_NE(column.slot(0, 0), 0u);
  ASSERT_LT(column.slot(0, 3), column.slot(0, 0));

  // A second sample at t = 6: the oldest (t = 3) is still inside the
  // horizon, so the lane doubles instead of evicting it.
  column.record(0, 6.0, value(7));
  EXPECT_EQ(column.capacity(), 2 * RingColumnBase::kInitialSlots);
  const std::vector<double> times{3.0, 4.0, 5.0, 6.0, 6.0};
  const std::vector<int> keys{3, 4, 5, 6, 7};
  ASSERT_EQ(column.size(0), times.size());
  EXPECT_EQ(column.slot(0, 0), 0u);  // linearised: oldest at the first slot
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(column.time(0, i), times[i]) << i;
    EXPECT_EQ(column.get(0, i), value(keys[i])) << i;
  }
  std::vector<double> scanned;
  column.for_each_in_window(0, 0.0, 100.0,
                            [&](std::size_t at) { scanned.push_back(column.times()[at]); });
  EXPECT_EQ(scanned, times);
  EXPECT_TRUE(column.truncated_before(0, 2.0));
  EXPECT_FALSE(column.truncated_before(0, 3.0));
  // The other users' rings moved with the lane.
  ASSERT_EQ(column.size(1), 2u);
  EXPECT_EQ(column.get(1, 0), value(100));
  EXPECT_EQ(column.get(1, 1), value(101));
  EXPECT_EQ(column.time(1, 1), 1.0);
  EXPECT_TRUE(column.empty(2));

  // The grown ring keeps evicting by horizon and wraps again.
  for (int k = 7; k <= 12; ++k) {
    column.record(0, k, value(10 + k));
  }
  EXPECT_EQ(column.capacity(), 2 * RingColumnBase::kInitialSlots);
  std::vector<double> tail;
  column.for_each_in_window(0, 9.0, 13.0,
                            [&](std::size_t at) { tail.push_back(column.times()[at]); });
  EXPECT_EQ(tail, (std::vector<double>{9.0, 10.0, 11.0, 12.0}));
  EXPECT_EQ(column.get(0, column.size(0) - 1), value(22));
  EXPECT_FALSE(column.truncated_before(0, 12.0 - 3.0));
}

TEST(RingColumn, EvictionDropsOnlyOutOfHorizonSamples) {
  // 1 Hz, then a 4 Hz burst, then 1 Hz again, against a 10 s horizon.
  // After every record the window [t - 10, t] must hold exactly the
  // samples ever recorded in it (the reference keeps everything).
  constexpr double kHorizon = 10.0;
  ChannelColumn column(1, kHorizon);
  std::vector<std::pair<double, double>> recorded;  // (time, snr)
  std::vector<double> times;
  for (int k = 0; k < 60; ++k) {
    times.push_back(k);
  }
  for (int k = 0; k < 40; ++k) {
    times.push_back(60.0 + 0.25 * k);
  }
  for (int k = 0; k < 30; ++k) {
    times.push_back(70.0 + k);
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double t = times[i];
    column.record(0, t, snr(static_cast<double>(i)));
    recorded.emplace_back(t, static_cast<double>(i));

    std::vector<std::pair<double, double>> expected;
    for (const auto& sample : recorded) {
      if (sample.first >= t - kHorizon) {
        expected.push_back(sample);
      }
    }
    std::vector<std::pair<double, double>> window;
    column.for_each_in_window(0, t - kHorizon, t + 1.0, [&](std::size_t at) {
      window.emplace_back(column.times()[at], column.snr()[at]);
    });
    ASSERT_EQ(window, expected) << "after t = " << t;
    ASSERT_FALSE(column.truncated_before(0, t - kHorizon)) << "t = " << t;
  }
  // Evictions did happen, just never inside the horizon.
  EXPECT_TRUE(column.truncated_before(0, 0.0));
  // The burst held 41 samples in one horizon: the lane grew to the next
  // power of two and never past twice that.
  EXPECT_EQ(column.capacity(), 64u);
}

TEST(TwinColumnStore, ResetUserAfterGrowth) {
  TwinColumnStore store(2, /*retention_s=*/5.0);
  WatchObservation w;
  w.category = dtmsv::video::Category::kMusic;
  w.watch_seconds = 2.0;
  w.watch_fraction = 0.4;
  // 4 Hz on every attribute over 10 s: every lane outgrows its 4 slots.
  for (int k = 0; k < 40; ++k) {
    const double t = 0.25 * k;
    for (std::size_t u = 0; u < 2; ++u) {
      store.record_channel(u, t, snr(k + 100.0 * u));
      store.record_location(u, t, {t, 2.0 * t});
      store.record_watch(u, t, w);
      store.record_preference(u, t, store.estimator(u).estimate());
    }
  }
  ASSERT_GT(store.channel_column().capacity(), RingColumnBase::kInitialSlots);
  ASSERT_GT(store.preference_column().capacity(), RingColumnBase::kInitialSlots);
  ASSERT_TRUE(store.channel_column().truncated_before(0, 0.0));

  store.reset_user(0);
  EXPECT_TRUE(store.channel_column().empty(0));
  EXPECT_TRUE(store.location_column().empty(0));
  EXPECT_TRUE(store.watch_column().empty(0));
  EXPECT_TRUE(store.preference_column().empty(0));
  EXPECT_FALSE(store.channel_column().truncated_before(0, 0.0));
  EXPECT_DOUBLE_EQ(store.estimator(0).evidence_seconds(), 0.0);
  // User 1 keeps its horizon, in order.
  const ChannelColumn& channel = store.channel_column();
  const std::vector<double> kept = window_snr(channel, 1, 9.75 - 5.0, 10.0);
  ASSERT_EQ(kept.size(), 21u);
  EXPECT_DOUBLE_EQ(kept.front(), 119.0);
  EXPECT_DOUBLE_EQ(kept.back(), 139.0);
  // The recycled slot restarts from an empty ring, at any time.
  store.record_channel(0, 1.0, snr(7.0));
  store.record_location(0, 1.0, {3.0, 4.0});
  ASSERT_EQ(channel.size(0), 1u);
  EXPECT_DOUBLE_EQ(channel.get(0, 0).snr_db, 7.0);
  EXPECT_EQ(store.location_column().get(0, 0), (dtmsv::mobility::Position{3.0, 4.0}));
}

/// Appends to `mirror` every sample of `live` newer than what it already
/// holds (`record` writes one sample of user u into the mirror). Called
/// once per interval, while the live store still holds everything recorded
/// since the previous call.
template <typename Column, typename Record>
void mirror_new_samples(const Column& live, const Column& mirror, Record&& record) {
  for (std::size_t u = 0; u < live.user_count(); ++u) {
    std::size_t i = 0;
    if (!mirror.empty(u)) {
      const double newest = mirror.time(u, mirror.size(u) - 1);
      while (i < live.size(u) && live.time(u, i) < newest) {
        ++i;
      }
      for (std::size_t j = mirror.size(u); j > 0 && mirror.time(u, j - 1) == newest; --j) {
        ++i;  // samples at `newest` the mirror already copied
      }
    }
    for (; i < live.size(u); ++i) {
      record(u, live.time(u, i), live.get(u, i));
    }
  }
}

/// Brings the keep-everything `mirror` up to date with `live`.
void mirror_store(const TwinColumnStore& live, TwinColumnStore& mirror) {
  mirror_new_samples(live.channel_column(), mirror.channel_column(),
                     [&](std::size_t u, double t, const ChannelObservation& v) {
                       mirror.record_channel(u, t, v);
                     });
  mirror_new_samples(live.location_column(), mirror.location_column(),
                     [&](std::size_t u, double t, const dtmsv::mobility::Position& v) {
                       mirror.record_location(u, t, v);
                     });
  mirror_new_samples(live.watch_column(), mirror.watch_column(),
                     [&](std::size_t u, double t, const WatchObservation& v) {
                       mirror.record_watch(u, t, v);
                     });
  mirror_new_samples(live.preference_column(), mirror.preference_column(),
                     [&](std::size_t u, double t, const dtmsv::behavior::PreferenceVector& v) {
                       mirror.record_preference(u, t, v);
                     });
}

/// The consumer window [now - window_s, now) of every user and lane is
/// complete in `live`, and its feature rows equal the keep-everything
/// mirror's bit for bit.
void expect_window_complete(const TwinColumnStore& live, TwinColumnStore& mirror,
                            double now, double window_s, std::size_t timesteps) {
  mirror_store(live, mirror);
  const double from = now - window_s;
  for (std::size_t u = 0; u < live.user_count(); ++u) {
    ASSERT_FALSE(live.channel_column().truncated_before(u, from)) << "user " << u;
    ASSERT_FALSE(live.location_column().truncated_before(u, from)) << "user " << u;
    ASSERT_FALSE(live.watch_column().truncated_before(u, from)) << "user " << u;
    ASSERT_FALSE(live.preference_column().truncated_before(u, from)) << "user " << u;
    const WindowSpec spec{now, window_s, timesteps, FeatureScaling{}};
    ASSERT_EQ(window_row(live, u, spec), window_row(mirror, u, spec)) << "user " << u;
  }
}

/// Runs `intervals` of `cfg` and checks every consumer window after each.
void expect_simulation_windows_complete(const dtmsv::core::SchemeConfig& cfg,
                                        std::size_t intervals) {
  ASSERT_LT(cfg.interval_s, cfg.feature_window_s);  // the mirror sees every sample
  dtmsv::core::Simulation sim(cfg);
  EXPECT_EQ(sim.twins().retention_s(),
            cfg.feature_window_s + cfg.collection.latency_s);
  TwinColumnStore mirror(cfg.user_count, kKeepAll);
  for (std::size_t i = 0; i < intervals; ++i) {
    sim.run_interval();
    expect_window_complete(sim.twins(), mirror, sim.now(), cfg.feature_window_s,
                           cfg.feature_timesteps);
  }
  EXPECT_TRUE(sim.twins().channel_column().truncated_before(0, 0.0));  // it evicted
}

TEST(Retention, PaperWindowSimulationReadsCompleteWindows) {
  // The paper's 600 s window, with reporting latency and report loss.
  dtmsv::core::SchemeConfig cfg;
  cfg.user_count = 16;
  cfg.collection.latency_s = 2.5;
  cfg.collection.report_loss_prob = 0.1;
  cfg.feature_timesteps = 16;
  cfg.compressor.epochs_per_fit = 1;
  ASSERT_EQ(cfg.feature_window_s, 600.0);
  expect_simulation_windows_complete(cfg, 5);  // 1500 s: evicting from 1024 s
  // A 126 s window without loss: 129 channel samples per 128.5 s horizon
  // need 256 slots, while the window alone would fit 128, so a horizon
  // that left out the latency would truncate the window's oldest samples.
  cfg.collection.report_loss_prob = 0.0;
  cfg.feature_window_s = 126.0;
  cfg.interval_s = 60.0;
  cfg.demand.interval_s = 60.0;
  expect_simulation_windows_complete(cfg, 8);
}

TEST(Retention, ServeLoopReadsCompleteWindowsThroughARateSurge) {
  dtmsv::core::ServeConfig cfg;
  cfg.scheme.seed = 5;
  cfg.scheme.user_count = 12;
  cfg.scheme.interval_s = 10.0;
  cfg.scheme.demand.interval_s = 10.0;
  cfg.scheme.warmup_intervals = 0;
  cfg.scheme.feature_window_s = 30.0;
  cfg.scheme.feature_timesteps = 8;
  cfg.scheme.session.engagement.catalog.videos_per_category = 3;
  cfg.scheme.grouping_stage = "fixed";
  cfg.scheme.fixed_k = 2;
  cfg.scheme.demand_stage = "mean";
  cfg.queue_capacity = 1 << 16;
  dtmsv::core::ManualServeClock clock;
  dtmsv::core::ServeLoop loop(cfg, clock, nullptr);
  dtmsv::core::ServeWorkloadConfig wl_cfg;
  wl_cfg.seed = 9;
  wl_cfg.user_count = cfg.scheme.user_count;
  dtmsv::core::ServeWorkload workload(wl_cfg, loop.catalog());
  EXPECT_EQ(loop.twins().retention_s(), 30.0);
  TwinColumnStore mirror(cfg.scheme.user_count, kKeepAll);
  std::vector<dtmsv::core::TwinEvent> events;
  std::size_t nominal_capacity = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    if (i == 6) {
      nominal_capacity = loop.twins().channel_column().capacity();
      workload.set_rate_multiplier(8.0);
    }
    const double to = 10.0 * static_cast<double>(i + 1);
    events.clear();
    workload.generate(to - 10.0, to, events);
    for (const dtmsv::core::TwinEvent& e : events) {
      loop.offer(e);
    }
    loop.advance_to(to);
    expect_window_complete(loop.twins(), mirror, to, cfg.scheme.feature_window_s,
                           cfg.scheme.feature_timesteps);
  }
  EXPECT_EQ(loop.stats().intervals, 12u);
  EXPECT_EQ(loop.stats().events_dropped, 0u);
  // The surge grew the lanes; the old samples were still evicted.
  EXPECT_GT(loop.twins().channel_column().capacity(), nominal_capacity);
  EXPECT_TRUE(loop.twins().channel_column().truncated_before(0, 0.0));
}

/// Most samples of one user inside one `horizon_s` span ending at one of
/// them, over the retained samples of `column`.
template <typename Column>
std::size_t peak_in_horizon(const Column& column, double horizon_s) {
  std::size_t peak = 0;
  for (std::size_t u = 0; u < column.user_count(); ++u) {
    std::size_t first = 0;
    for (std::size_t i = 0; i < column.size(u); ++i) {
      while (column.time(u, first) < column.time(u, i) - horizon_s) {
        ++first;
      }
      peak = std::max(peak, i - first + 1);
    }
  }
  return peak;
}

TEST(Retention, FleetChurnLanesStayWithinTwiceTheirHorizon) {
  // The fleet_churn shape at smoke scale: 120 s window, 1 Hz channel.
  dtmsv::core::ScenarioConfig scenario = dtmsv::core::make_scenario(
      dtmsv::core::ScenarioKind::kMobilityChurn, /*total_users=*/64, /*cell_count=*/2);
  ASSERT_EQ(scenario.base.feature_window_s, 120.0);
  // The span the consumers read back (the window plus reporting latency).
  const double horizon_s =
      scenario.base.feature_window_s + scenario.base.collection.latency_s;
  dtmsv::core::FleetConfig fleet_cfg;
  fleet_cfg.base = scenario.base;
  fleet_cfg.cell_count = scenario.cell_count;
  fleet_cfg.total_users = scenario.total_users;
  fleet_cfg.seed = scenario.seed;
  dtmsv::core::SimulationFleet fleet(fleet_cfg);
  // Per shard and lane: the peak in-horizon count seen after any interval.
  std::vector<std::array<std::size_t, 4>> peaks(fleet.shard_count(), {0, 0, 0, 0});
  for (std::size_t i = 0; i < 6; ++i) {
    if (i > 0) {
      fleet.churn(scenario.churn_fraction);
    }
    fleet.run_interval();
    for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
      const TwinColumnStore& twins = fleet.shard(s).twins();
      std::array<std::size_t, 4>& peak = peaks[s];
      peak[0] = std::max(peak[0], peak_in_horizon(twins.channel_column(), horizon_s));
      peak[1] = std::max(peak[1], peak_in_horizon(twins.location_column(), horizon_s));
      peak[2] = std::max(peak[2], peak_in_horizon(twins.watch_column(), horizon_s));
      peak[3] = std::max(peak[3], peak_in_horizon(twins.preference_column(), horizon_s));
    }
  }
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    const TwinColumnStore& twins = fleet.shard(s).twins();
    const std::array<std::size_t, 4> capacity = {
        twins.channel_column().capacity(), twins.location_column().capacity(),
        twins.watch_column().capacity(), twins.preference_column().capacity()};
    for (std::size_t lane = 0; lane < 4; ++lane) {
      EXPECT_LE(capacity[lane],
                std::max(RingColumnBase::kInitialSlots, 2 * peaks[s][lane]))
          << "shard " << s << " lane " << lane << " peak " << peaks[s][lane];
    }
    EXPECT_LE(twins.channel_column().capacity(), 256u) << "shard " << s;
  }
}

}  // namespace
