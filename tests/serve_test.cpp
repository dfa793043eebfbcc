// Serving-mode tests: EventQueue backpressure, DegradationPolicy ladder
// bookkeeping, ServeLoop deadline/degradation behaviour under a scripted
// ManualServeClock (bit-deterministic for any DTMSV_THREADS — the wall
// clock only decides fidelity, never arithmetic), ServeWorkload
// reproducibility, a pinned golden of the paper wiring, the [serve]
// config loader, and the cli::run_serve driver loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli/scenario_loader.hpp"
#include "core/event_queue.hpp"
#include "core/pipeline.hpp"
#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dtmsv;

core::TwinEvent channel_at(std::uint32_t user, double time, double snr_db = 15.0) {
  twin::ChannelObservation obs;
  obs.snr_db = snr_db;
  obs.efficiency_bps_hz = 3.0;
  return core::TwinEvent::channel_report(user, time, obs);
}

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, DrainsInArrivalOrderUpToHorizon) {
  core::EventQueue queue(8);
  for (int i = 0; i < 5; ++i) {
    queue.push(channel_at(static_cast<std::uint32_t>(i), 1.0 * i));
  }
  std::vector<std::uint32_t> drained_users;
  const std::size_t drained = queue.drain_until(
      2.5, [&](const core::TwinEvent& e) { drained_users.push_back(e.user); });
  EXPECT_EQ(drained, 3u);
  EXPECT_EQ(drained_users, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(queue.size(), 2u);
  // Remaining events (t=3, t=4) drain on the next horizon.
  EXPECT_EQ(queue.drain_until(10.0, [](const core::TwinEvent&) {}), 2u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.stats().offered, 5u);
  EXPECT_EQ(queue.stats().drained, 5u);
  EXPECT_EQ(queue.stats().dropped, 0u);
}

TEST(EventQueue, ShedsOldestWithExactCounts) {
  core::EventQueue queue(4);
  for (int i = 0; i < 7; ++i) {
    queue.push(channel_at(static_cast<std::uint32_t>(i), 1.0 * i));
  }
  // Capacity 4, 7 offered: users 0..2 shed, 3..6 retained.
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.stats().offered, 7u);
  EXPECT_EQ(queue.stats().dropped, 3u);
  std::vector<std::uint32_t> survivors;
  queue.drain_until(100.0,
                    [&](const core::TwinEvent& e) { survivors.push_back(e.user); });
  EXPECT_EQ(survivors, (std::vector<std::uint32_t>{3, 4, 5, 6}));
}

TEST(EventQueue, RejectsOutOfOrderPushAndZeroCapacity) {
  EXPECT_THROW(core::EventQueue(0), util::PreconditionError);
  core::EventQueue queue(4);
  queue.push(channel_at(0, 5.0));
  EXPECT_THROW(queue.push(channel_at(1, 4.0)), util::PreconditionError);
  queue.push(channel_at(1, 5.0));  // ties are fine
}

// ------------------------------------------------------ DegradationPolicy

/// Three rungs of distinct feature keys, each named after its key.
std::vector<core::DegradationLevel> three_rung_ladder() {
  return {{"cnn", "cnn"}, {"raw", "raw"}, {"summary", "summary"}};
}

TEST(DegradationPolicy, StepsDownOneRungPerMissStreak) {
  core::DegradationPolicyConfig cfg;
  cfg.ladder = three_rung_ladder();
  cfg.step_down_after = 2;
  core::DegradationPolicy policy(cfg);
  EXPECT_EQ(policy.level(), 0u);
  EXPECT_EQ(policy.record(false), std::nullopt);  // 1 miss: below threshold
  EXPECT_EQ(policy.record(false), std::optional<std::size_t>(1));
  EXPECT_EQ(policy.current().name, "raw");
  // The counter resets after a transition: two more misses for the next rung.
  EXPECT_EQ(policy.record(false), std::nullopt);
  EXPECT_EQ(policy.record(false), std::optional<std::size_t>(2));
  EXPECT_EQ(policy.current().name, "summary");
  // Clamped at the bottom rung.
  EXPECT_EQ(policy.record(false), std::nullopt);
  EXPECT_EQ(policy.record(false), std::nullopt);
  EXPECT_EQ(policy.level(), 2u);
}

TEST(DegradationPolicy, RecoversAfterSustainedHitsAndClampsAtTop) {
  core::DegradationPolicyConfig cfg;
  cfg.ladder = three_rung_ladder();
  cfg.step_down_after = 1;
  cfg.step_up_after = 3;
  core::DegradationPolicy policy(cfg);
  policy.record(false);
  policy.record(false);
  ASSERT_EQ(policy.level(), 2u);
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.record(true), std::optional<std::size_t>(1));
  // A miss resets the hit streak (and immediately steps back down here).
  EXPECT_EQ(policy.record(false), std::optional<std::size_t>(2));
  for (int i = 0; i < 6; ++i) {
    policy.record(true);
  }
  ASSERT_EQ(policy.level(), 0u);
  // Clamped at full fidelity.
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.level(), 0u);
}

TEST(DegradationPolicy, RejectsEmptyLadderAndZeroHysteresis) {
  core::DegradationPolicyConfig empty;
  empty.ladder.clear();
  EXPECT_THROW(core::DegradationPolicy{empty}, util::PreconditionError);
  core::DegradationPolicyConfig zero;
  zero.step_down_after = 0;
  EXPECT_THROW(core::DegradationPolicy{zero}, util::PreconditionError);
}

// -------------------------------------------------------------- utilities

TEST(LatencyPercentile, NearestRank) {
  const std::vector<double> values = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(core::latency_percentile(values, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(core::latency_percentile(values, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(core::latency_percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(core::latency_percentile(values, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(core::latency_percentile({}, 50.0), 0.0);
}

TEST(ManualServeClock, ScriptsPipelineCosts) {
  core::ManualServeClock clock;
  clock.queue_pipeline_cost(0.2);
  const double t0 = clock.now_s();
  const double t1 = clock.now_s();
  EXPECT_DOUBLE_EQ(t1 - t0, 0.2);
  // Queue exhausted: default_step applies.
  clock.default_step = 0.001;
  const double t2 = clock.now_s();
  EXPECT_DOUBLE_EQ(t2 - t1, 0.001);
}

// --------------------------------------------------------------- ServeLoop

core::ServeConfig small_serve(std::size_t users = 12) {
  core::ServeConfig cfg;
  cfg.scheme.seed = 11;
  cfg.scheme.user_count = users;
  cfg.scheme.interval_s = 10.0;
  cfg.scheme.demand.interval_s = 10.0;
  cfg.scheme.warmup_intervals = 0;
  cfg.scheme.feature_window_s = 30.0;
  cfg.scheme.feature_timesteps = 8;
  cfg.scheme.session.engagement.catalog.videos_per_category = 3;
  // Cheap deterministic non-feature stages: the ladder under test swaps
  // feature stages only.
  cfg.scheme.grouping_stage = "fixed";
  cfg.scheme.fixed_k = 2;
  cfg.scheme.demand_stage = "mean";
  cfg.deadline_ms = 50.0;
  return cfg;
}

/// Feeds `count` channel reports (one per user, round-robin) at time `t`.
void offer_reports(core::ServeLoop& loop, double t, std::size_t count) {
  const std::size_t users = loop.config().scheme.user_count;
  for (std::size_t i = 0; i < count; ++i) {
    loop.offer(channel_at(static_cast<std::uint32_t>(i % users), t));
  }
}

TEST(ServeLoop, DegradesDownTheLadderInOrderUnderOverload) {
  core::ServeConfig cfg = small_serve();
  cfg.degradation.ladder = three_rung_ladder();
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);

  // Script 3 expensive predictions (200 ms against a 50 ms budget), then let
  // default_step = 0 make everything after look instantaneous.
  for (int i = 0; i < 3; ++i) {
    clock.queue_pipeline_cost(0.2);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    offer_reports(loop, 10.0 * static_cast<double>(i), 6);
    loop.advance_to(10.0 * static_cast<double>(i + 1));
  }

  // step_down_after = 1: each miss steps exactly one rung, in ladder order
  // cnn -> raw -> summary.
  ASSERT_EQ(sink.degradations.size(), 2u);
  EXPECT_EQ(sink.degradations[0].from_name, "cnn");
  EXPECT_EQ(sink.degradations[0].to_name, "raw");
  EXPECT_EQ(sink.degradations[0].interval, 0u);
  EXPECT_FALSE(sink.degradations[0].recovering);
  EXPECT_DOUBLE_EQ(sink.degradations[0].latency_ms, 200.0);
  EXPECT_DOUBLE_EQ(sink.degradations[0].deadline_ms, 50.0);
  EXPECT_EQ(sink.degradations[1].from_name, "raw");
  EXPECT_EQ(sink.degradations[1].to_name, "summary");
  EXPECT_EQ(loop.degradation().level(), 2u);
  EXPECT_EQ(loop.stats().deadline_misses, 3u);
  EXPECT_EQ(loop.stats().steps_down, 2u);

  // The cnn interval carries a real autoencoder reconstruction loss; the
  // raw and summary rungs have none — observable proof the feature stage
  // swapped.
  ASSERT_EQ(sink.reports.size(), 3u);
  EXPECT_GT(sink.reports[0].reconstruction_loss, 0.0f);
  EXPECT_FLOAT_EQ(sink.reports[1].reconstruction_loss, 0.0f);

  // One more interval fires on the summary rung (clock now instantaneous).
  offer_reports(loop, 30.0, 6);
  loop.advance_to(40.0);
  ASSERT_EQ(sink.reports.size(), 4u);
  EXPECT_FLOAT_EQ(sink.reports[3].reconstruction_loss, 0.0f);
}

TEST(ServeLoop, RecoversUpTheLadderAfterSustainedHits) {
  core::ServeConfig cfg = small_serve();
  cfg.degradation.ladder = three_rung_ladder();
  cfg.degradation.step_up_after = 2;
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);

  // Two misses push the loop to the bottom rung; everything after hits.
  clock.queue_pipeline_cost(0.2);
  clock.queue_pipeline_cost(0.2);
  for (std::size_t i = 0; i < 7; ++i) {
    offer_reports(loop, 10.0 * static_cast<double>(i), 4);
    loop.advance_to(10.0 * static_cast<double>(i + 1));
  }

  // Intervals 0,1 miss (down to summary); 2..3 hit -> up to raw after
  // interval 3; 4..5 hit -> up to cnn after interval 5.
  ASSERT_EQ(sink.degradations.size(), 4u);
  EXPECT_FALSE(sink.degradations[0].recovering);
  EXPECT_FALSE(sink.degradations[1].recovering);
  EXPECT_TRUE(sink.degradations[2].recovering);
  EXPECT_EQ(sink.degradations[2].from_name, "summary");
  EXPECT_EQ(sink.degradations[2].to_name, "raw");
  EXPECT_EQ(sink.degradations[2].interval, 3u);
  EXPECT_TRUE(sink.degradations[3].recovering);
  EXPECT_EQ(sink.degradations[3].to_name, "cnn");
  EXPECT_EQ(loop.degradation().level(), 0u);
  EXPECT_EQ(loop.stats().steps_down, 2u);
  EXPECT_EQ(loop.stats().steps_up, 2u);
}

TEST(ServeLoop, QueueOverflowShedsOldestWithExactDropCounts) {
  core::ServeConfig cfg = small_serve();
  cfg.queue_capacity = 8;
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);

  offer_reports(loop, 1.0, 12);  // 12 offered into capacity 8
  loop.advance_to(10.0);

  EXPECT_EQ(loop.stats().events_ingested, 8u);
  EXPECT_EQ(loop.stats().events_dropped, 4u);
  ASSERT_EQ(sink.drops.size(), 1u);
  EXPECT_EQ(sink.drops[0].interval, 0u);
  EXPECT_EQ(sink.drops[0].dropped, 4u);
  EXPECT_EQ(sink.drops[0].queue_capacity, 8u);
  // All admitted events drained before the prediction fired.
  EXPECT_EQ(sink.drops[0].queue_size, 0u);
  EXPECT_EQ(loop.queue_size(), 0u);

  // No further sheds: no second DropEvent.
  offer_reports(loop, 11.0, 4);
  loop.advance_to(20.0);
  EXPECT_EQ(sink.drops.size(), 1u);
  EXPECT_EQ(loop.stats().events_ingested, 12u);
}

TEST(ServeLoop, RejectsBadConfigAndBadEvents) {
  core::ServeConfig cfg = small_serve();
  cfg.deadline_ms = 0.0;
  core::ManualServeClock clock;
  EXPECT_THROW(core::ServeLoop(cfg, clock), util::PreconditionError);

  cfg = small_serve();
  cfg.degradation.ladder[1].feature_stage = "no-such-stage";
  EXPECT_THROW(core::ServeLoop(cfg, clock), util::PreconditionError);

  cfg = small_serve();
  core::ServeLoop loop(cfg, clock);
  loop.advance_to(5.0);
  EXPECT_THROW(loop.advance_to(4.0), util::PreconditionError);
}

// Bad reports are refused at offer() and counted, one class per test: the
// loop keeps serving, good reports around them are ingested, and each
// interval record carries the count rejected since the previous one.

TEST(ServeLoop, RejectsOutOfRangeUserAndCountsIt) {
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(small_serve(), clock, &sink);
  loop.offer(channel_at(0, 1.0));
  EXPECT_NO_THROW(loop.offer(channel_at(12, 2.0)));  // user_count is 12
  EXPECT_NO_THROW(loop.offer(channel_at(99, 3.0)));
  loop.offer(channel_at(1, 4.0));
  EXPECT_EQ(loop.queue_size(), 2u);
  loop.advance_to(10.0);
  EXPECT_EQ(loop.stats().events_rejected, 2u);
  EXPECT_EQ(loop.stats().events_ingested, 2u);
  ASSERT_EQ(sink.reports.size(), 1u);
  EXPECT_EQ(sink.reports[0].events_rejected, std::optional<std::uint64_t>(2u));
}

TEST(ServeLoop, RejectsLateReportAndCountsIt) {
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(small_serve(), clock, &sink);
  loop.offer(channel_at(0, 5.0));
  loop.advance_to(6.0);  // user 0's channel column now ends at t = 5
  // Older than user 0's latest sample (the twin column's time check), and
  // older than the newest admitted report while the queue holds it.
  EXPECT_NO_THROW(loop.offer(channel_at(0, 4.0)));
  loop.offer(channel_at(1, 7.0));
  EXPECT_NO_THROW(loop.offer(channel_at(2, 6.5)));
  EXPECT_NO_THROW(loop.advance_to(10.0));
  EXPECT_EQ(loop.stats().events_rejected, 2u);
  EXPECT_EQ(loop.stats().events_ingested, 2u);
  ASSERT_EQ(sink.reports.size(), 1u);
  EXPECT_EQ(sink.reports[0].events_rejected, std::optional<std::uint64_t>(2u));
  loop.offer(channel_at(0, 12.0));
  loop.advance_to(20.0);
  ASSERT_EQ(sink.reports.size(), 2u);
  EXPECT_EQ(sink.reports[1].events_rejected, std::optional<std::uint64_t>(0u));
}

TEST(ServeLoop, RejectsNonFiniteReportAndCountsIt) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(small_serve(), clock, &sink);
  for (std::uint32_t u = 0; u < 12; ++u) {
    loop.offer(channel_at(u, 1.0 + 0.1 * u, 10.0 + u));
  }
  loop.offer(channel_at(3, 3.0, nan));
  loop.offer(channel_at(4, nan));
  loop.offer(core::TwinEvent::location_report(5, 3.0, {inf, 10.0}));
  twin::WatchObservation watch;
  watch.watch_seconds = nan;
  loop.offer(core::TwinEvent::watch_report(6, 3.0, watch));
  loop.advance_to(10.0);
  EXPECT_EQ(loop.stats().events_rejected, 4u);
  EXPECT_EQ(loop.stats().events_ingested, 12u);
  ASSERT_EQ(sink.reports.size(), 1u);
  EXPECT_EQ(sink.reports[0].events_rejected, std::optional<std::uint64_t>(4u));
  EXPECT_TRUE(std::isfinite(sink.reports[0].predicted_radio_hz_total));
  for (const core::GroupReport& group : sink.groups) {
    EXPECT_TRUE(std::isfinite(group.predicted_radio_hz));
    EXPECT_TRUE(std::isfinite(group.predicted_compute_cycles));
  }
}

/// A well-formed watch report of `video_id` as the loop's catalog holds it.
twin::WatchObservation catalog_watch(const core::ServeLoop& loop, std::uint64_t video_id) {
  const video::Video& video = loop.catalog().video(video_id);
  twin::WatchObservation watch;
  watch.video_id = video_id;
  watch.category = video.category;
  watch.duration_s = video.duration_s;
  watch.watch_fraction = 0.5;
  watch.watch_seconds = 0.5 * video.duration_s;
  return watch;
}

/// Offers one channel report per user and a valid watch report by user 7,
/// plus, by user 6, one watch report per `corrupt` applied to a valid one.
/// Every corrupt report must be rejected and counted without stopping the
/// next prediction, and user 6's twin must never see a watch row.
void expect_watch_reports_rejected(
    const std::vector<std::function<void(twin::WatchObservation&)>>& corrupt) {
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(small_serve(), clock, &sink);
  for (std::uint32_t u = 0; u < 12; ++u) {
    loop.offer(channel_at(u, 1.0 + 0.1 * u, 10.0 + u));
  }
  for (const auto& apply : corrupt) {
    twin::WatchObservation watch = catalog_watch(loop, 0);
    apply(watch);
    loop.offer(core::TwinEvent::watch_report(6, 3.0, watch));
  }
  loop.offer(core::TwinEvent::watch_report(7, 3.5, catalog_watch(loop, 1)));
  ASSERT_NO_THROW(loop.advance_to(10.0));
  EXPECT_EQ(loop.stats().events_rejected, corrupt.size());
  EXPECT_EQ(loop.stats().events_ingested, 13u);
  EXPECT_TRUE(loop.twins().twin(6).watch().empty());
  EXPECT_EQ(loop.twins().twin(7).watch().size(), 1u);
  ASSERT_EQ(sink.reports.size(), 1u);
  EXPECT_EQ(sink.reports[0].events_rejected,
            std::optional<std::uint64_t>(corrupt.size()));
  for (const core::GroupReport& group : sink.groups) {
    EXPECT_TRUE(std::isfinite(group.predicted_radio_hz));
  }
}

TEST(ServeLoop, RejectsUnknownVideoAndCountsIt) {
  expect_watch_reports_rejected({
      [](twin::WatchObservation& w) { w.video_id = 3 * video::kCategoryCount; },
      [](twin::WatchObservation& w) { w.video_id = ~std::uint64_t{0}; },
  });
}

TEST(ServeLoop, RejectsWrongOrOutOfRangeCategoryAndCountsIt) {
  expect_watch_reports_rejected({
      [](twin::WatchObservation& w) { w.category = static_cast<video::Category>(17); },
      [](twin::WatchObservation& w) {
        w.category = static_cast<video::Category>(
            (static_cast<std::size_t>(w.category) + 1) % video::kCategoryCount);
      },
  });
}

TEST(ServeLoop, RejectsNegativeWatchTimeAndCountsIt) {
  expect_watch_reports_rejected({
      [](twin::WatchObservation& w) { w.watch_seconds = -1.0; },
      [](twin::WatchObservation& w) { w.duration_s = -5.0; },
  });
}

TEST(ServeLoop, RejectsWatchFractionOutOfRangeAndCountsIt) {
  expect_watch_reports_rejected({
      [](twin::WatchObservation& w) { w.watch_fraction = 3.0; },
      [](twin::WatchObservation& w) { w.watch_fraction = 1.0 + 1e-8; },
      [](twin::WatchObservation& w) { w.watch_fraction = -0.1; },
  });
}

/// Runs the scripted overload scenario end to end and returns the sink.
core::CollectingSink run_serve_scenario(std::size_t threads) {
  util::set_thread_count(threads);
  core::ServeConfig cfg = small_serve(24);
  core::ManualServeClock clock;
  clock.queue_pipeline_cost(0.2);
  clock.queue_pipeline_cost(0.2);
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);
  core::ServeWorkloadConfig wl_cfg;
  wl_cfg.seed = 5;
  wl_cfg.user_count = cfg.scheme.user_count;
  wl_cfg.engagement = cfg.scheme.session.engagement;
  core::ServeWorkload workload(wl_cfg, loop.catalog());
  std::vector<core::TwinEvent> events;
  for (std::size_t i = 0; i < 5; ++i) {
    events.clear();
    workload.generate(10.0 * static_cast<double>(i),
                      10.0 * static_cast<double>(i + 1), events);
    for (const core::TwinEvent& e : events) {
      loop.offer(e);
    }
    loop.advance_to(10.0 * static_cast<double>(i + 1));
  }
  util::set_thread_count(0);
  return sink;
}

TEST(ServeLoop, ResultsAreBitIdenticalForAnyThreadCount) {
  const core::CollectingSink one = run_serve_scenario(1);
  const core::CollectingSink four = run_serve_scenario(4);

  ASSERT_EQ(one.reports.size(), four.reports.size());
  for (std::size_t i = 0; i < one.reports.size(); ++i) {
    EXPECT_EQ(one.reports[i].k, four.reports[i].k);
    EXPECT_EQ(one.reports[i].reconstruction_loss,
              four.reports[i].reconstruction_loss);
    EXPECT_EQ(one.reports[i].predicted_radio_hz_total,
              four.reports[i].predicted_radio_hz_total);
    EXPECT_EQ(one.reports[i].predicted_compute_total,
              four.reports[i].predicted_compute_total);
  }
  ASSERT_EQ(one.groups.size(), four.groups.size());
  for (std::size_t i = 0; i < one.groups.size(); ++i) {
    EXPECT_EQ(one.groups[i].predicted_efficiency,
              four.groups[i].predicted_efficiency);
    EXPECT_EQ(one.groups[i].predicted_radio_hz, four.groups[i].predicted_radio_hz);
  }
  // The fidelity trajectory is part of the deterministic contract too.
  ASSERT_EQ(one.degradations.size(), four.degradations.size());
  for (std::size_t i = 0; i < one.degradations.size(); ++i) {
    EXPECT_EQ(one.degradations[i].to_name, four.degradations[i].to_name);
    EXPECT_EQ(one.degradations[i].interval, four.degradations[i].interval);
  }
}

// ------------------------------------------------------------ serve golden

/// Same rule as pipeline_test's golden_regime(): the pinned doubles assume
/// the optimized FP regime they were captured in (-O3, -march=native), so
/// unoptimized builds skip the pin, and a host whose codegen diverges can
/// export DTMSV_SKIP_GOLDEN=1.
bool golden_regime() {
#if defined(__OPTIMIZE__)
  return std::getenv("DTMSV_SKIP_GOLDEN") == nullptr;
#else
  return false;
#endif
}

struct ServeGoldenInterval {
  std::size_t k;
  double silhouette;
  double predicted_radio;
  double predicted_compute;
};

/// The paper wiring (cnn + ddqn + joint) on a single `cnn` rung, fed
/// by a seeded ServeWorkload; a ManualServeClock keeps every prediction
/// instantaneous so the ladder never moves.
std::vector<core::EpochReport> run_serve_golden_scenario() {
  core::ServeConfig cfg = small_serve(24);
  cfg.scheme.grouping_stage = "ddqn";
  cfg.scheme.demand_stage = "joint";
  cfg.scheme.grouping.k_min = 2;
  cfg.scheme.grouping.k_max = 6;
  cfg.scheme.grouping.ddqn.hidden = {32};
  cfg.degradation.ladder = {{"cnn", "cnn"}};
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);
  core::ServeWorkloadConfig wl_cfg;
  wl_cfg.seed = 17;
  wl_cfg.user_count = cfg.scheme.user_count;
  wl_cfg.engagement = cfg.scheme.session.engagement;
  core::ServeWorkload workload(wl_cfg, loop.catalog());
  std::vector<core::TwinEvent> events;
  for (std::size_t i = 0; i < 6; ++i) {
    events.clear();
    workload.generate(10.0 * static_cast<double>(i),
                      10.0 * static_cast<double>(i + 1), events);
    for (const core::TwinEvent& e : events) {
      loop.offer(e);
    }
    loop.advance_to(10.0 * static_cast<double>(i + 1));
  }
  return sink.reports;
}

TEST(ServeRegression, PaperWiringReproducesPinnedStream) {
  if (!golden_regime()) {
    GTEST_SKIP() << "golden stream pinned for optimized FP regime only";
  }
  // Captured from the serve loop before batch and serve shared one
  // prediction pass; one entry per fired boundary.
  const std::vector<ServeGoldenInterval> golden = {
      {3, 0.31908263044432411, 1698830.8186931449, 2061175777.7220755},
      {4, 0.29796542355578109, 2268506.8941703588, 3008823009.2979193},
      {4, 0.2925729024023464, 2218064.287848074, 2832286569.8027096},
      {2, 0.43360092245607801, 1089666.4261919772, 994548343.29749799},
      {5, 0.17402173019259651, 2780830.3394110939, 3312150994.8915362},
      {3, 0.29970419339413568, 1913819.8271715064, 1567705840.750896},
  };
  const std::vector<core::EpochReport> reports = run_serve_golden_scenario();
  ASSERT_EQ(reports.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const core::EpochReport& r = reports[i];
    EXPECT_EQ(static_cast<std::size_t>(r.interval), i);
    EXPECT_EQ(r.k, golden[i].k) << "interval " << i;
    EXPECT_DOUBLE_EQ(r.silhouette, golden[i].silhouette) << "interval " << i;
    EXPECT_DOUBLE_EQ(r.predicted_radio_hz_total, golden[i].predicted_radio) << i;
    EXPECT_DOUBLE_EQ(r.predicted_compute_total, golden[i].predicted_compute) << i;
  }
}

// ------------------------------------------------------------ ServeWorkload

video::Catalog test_catalog(std::uint64_t seed = 3) {
  util::Rng rng(seed);
  video::CatalogConfig cfg;
  cfg.videos_per_category = 3;
  return video::Catalog::generate(cfg, rng);
}

TEST(ServeWorkload, StreamIsReproducibleAndTimeOrdered) {
  const video::Catalog catalog = test_catalog();
  core::ServeWorkloadConfig cfg;
  cfg.user_count = 10;
  core::ServeWorkload a(cfg, catalog);
  core::ServeWorkload b(cfg, catalog);
  std::vector<core::TwinEvent> ea;
  std::vector<core::TwinEvent> eb;
  a.generate(0.0, 30.0, ea);
  b.generate(0.0, 30.0, eb);

  ASSERT_FALSE(ea.empty());
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].user, eb[i].user);
    EXPECT_EQ(ea[i].time, eb[i].time);
    EXPECT_EQ(ea[i].channel.snr_db, eb[i].channel.snr_db);
    EXPECT_EQ(ea[i].watch.video_id, eb[i].watch.video_id);
  }
  for (std::size_t i = 1; i < ea.size(); ++i) {
    EXPECT_LE(ea[i - 1].time, ea[i].time);
  }
}

TEST(ServeWorkload, WindowSlicingDoesNotChangeTheStream) {
  const video::Catalog catalog = test_catalog();
  core::ServeWorkloadConfig cfg;
  cfg.user_count = 8;
  core::ServeWorkload whole(cfg, catalog);
  core::ServeWorkload sliced(cfg, catalog);
  std::vector<core::TwinEvent> ew;
  std::vector<core::TwinEvent> es;
  whole.generate(0.0, 40.0, ew);
  for (int i = 0; i < 4; ++i) {
    sliced.generate(10.0 * i, 10.0 * (i + 1), es);
  }
  ASSERT_EQ(ew.size(), es.size());
  for (std::size_t i = 0; i < ew.size(); ++i) {
    EXPECT_EQ(ew[i].user, es[i].user);
    EXPECT_EQ(ew[i].time, es[i].time);
    EXPECT_EQ(ew[i].kind, es[i].kind);
  }
}

TEST(ServeWorkload, RateMultiplierScalesEventVolume) {
  const video::Catalog catalog = test_catalog();
  core::ServeWorkloadConfig cfg;
  cfg.user_count = 12;
  core::ServeWorkload steady(cfg, catalog);
  core::ServeWorkload surging(cfg, catalog);
  surging.set_rate_multiplier(4.0);
  std::vector<core::TwinEvent> e_steady;
  std::vector<core::TwinEvent> e_surge;
  steady.generate(0.0, 60.0, e_steady);
  surging.generate(0.0, 60.0, e_surge);
  EXPECT_GT(e_surge.size(), 2 * e_steady.size());
  EXPECT_THROW(surging.set_rate_multiplier(0.0), util::PreconditionError);
}

TEST(ServeWorkload, TrafficPassesAdmission) {
  core::ManualServeClock clock;
  core::ServeLoop loop(small_serve(24), clock);
  core::ServeWorkloadConfig cfg;
  cfg.seed = 3;
  cfg.user_count = loop.config().scheme.user_count;
  cfg.engagement = loop.config().scheme.session.engagement;
  core::ServeWorkload workload(cfg, loop.catalog());
  workload.set_rate_multiplier(8.0);
  std::vector<core::TwinEvent> events;
  std::size_t watches = 0;
  for (int i = 0; i < 3; ++i) {
    events.clear();
    workload.generate(10.0 * i, 10.0 * (i + 1), events);
    for (const core::TwinEvent& e : events) {
      watches += e.kind == core::TwinEvent::Kind::kWatch ? 1 : 0;
      loop.offer(e);
    }
    loop.advance_to(10.0 * (i + 1));
  }
  EXPECT_GT(watches, 0u);
  EXPECT_EQ(loop.stats().events_rejected, 0u);
}

// -------------------------------------------------------------- serve_loader

constexpr const char* kServeIni = R"(
[serve]
user_count = 24
interval_s = 10
intervals = 6
deadline_ms = 25
queue_capacity = 512
ladder = cnn, raw, summary
grouping = fixed
fixed_k = 2
demand = mean
videos_per_category = 3

[workload]
channel_period_s = 2
overload_start = 2
overload_intervals = 2
overload_multiplier = 6

[run]
threads = 1
)";

TEST(ServeLoader, ParsesFullPlan) {
  util::Config config = util::Config::parse(kServeIni);
  const cli::ServePlan plan = cli::load_serve_plan(config);
  EXPECT_EQ(plan.serve.scheme.user_count, 24u);
  EXPECT_DOUBLE_EQ(plan.serve.scheme.interval_s, 10.0);
  EXPECT_DOUBLE_EQ(plan.serve.scheme.demand.interval_s, 10.0);
  EXPECT_EQ(plan.intervals, 6u);
  EXPECT_DOUBLE_EQ(plan.serve.deadline_ms, 25.0);
  EXPECT_EQ(plan.serve.queue_capacity, 512u);
  // Each ladder item is a feature key and names its rung.
  const std::vector<std::string> keys = {"cnn", "raw", "summary"};
  ASSERT_EQ(plan.serve.degradation.ladder.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(plan.serve.degradation.ladder[i].name, keys[i]);
    EXPECT_EQ(plan.serve.degradation.ladder[i].feature_stage, keys[i]);
  }
  EXPECT_EQ(plan.serve.scheme.grouping_stage, "fixed");
  EXPECT_EQ(plan.serve.scheme.demand_stage, "mean");
  EXPECT_DOUBLE_EQ(plan.workload.channel_period_s, 2.0);
  EXPECT_EQ(plan.workload.user_count, 24u);
  EXPECT_EQ(plan.overload_start, 2u);
  EXPECT_EQ(plan.overload_intervals, 2u);
  EXPECT_DOUBLE_EQ(plan.overload_multiplier, 6.0);
  EXPECT_EQ(plan.threads, 1u);
}

TEST(ServeLoader, RejectsUnknownKeysAndStages) {
  util::Config typo = util::Config::parse("[serve]\ndeadline_msec = 10\n");
  EXPECT_THROW(cli::load_serve_plan(typo), util::RuntimeError);

  util::Config bad_stage =
      util::Config::parse("[serve]\ngrouping = kmeanz\n");
  EXPECT_THROW(cli::load_serve_plan(bad_stage), util::RuntimeError);

  util::Config bad_ladder =
      util::Config::parse("[serve]\nladder = cnn, warp-drive\n");
  EXPECT_THROW(cli::load_serve_plan(bad_ladder), util::RuntimeError);

  // A key listed twice would make a rung that does its neighbour's work.
  const auto load_error = [](const char* text) {
    util::Config config = util::Config::parse(text);
    try {
      cli::load_serve_plan(config);
    } catch (const util::RuntimeError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string duplicate =
      load_error("[serve]\nladder = cnn, summary, cnn\n");
  EXPECT_NE(duplicate.find("'cnn'"), std::string::npos) << duplicate;
  EXPECT_NE(duplicate.find("twice"), std::string::npos) << duplicate;

  // The old extraction-mode suffix is not a feature key.
  const std::string old_syntax = load_error("[serve]\nladder = cnn:full, summary\n");
  EXPECT_NE(old_syntax.find("unknown feature stage 'cnn:full'"), std::string::npos)
      << old_syntax;

  // An overload window starting at or after the last interval never fires.
  util::Config late_window = util::Config::parse(
      "[serve]\nintervals = 4\n"
      "[workload]\noverload_start = 4\noverload_intervals = 2\n");
  EXPECT_THROW(cli::load_serve_plan(late_window), util::RuntimeError);
}

// ---------------------------------------------------------------- run_serve

TEST(RunServe, ShedsOnlyInsideTheOverloadWindow) {
  util::Config config = util::Config::parse(kServeIni);
  cli::ServePlan plan = cli::load_serve_plan(config);
  // Nominal traffic (~180 reports per interval) fits the 512-slot queue;
  // the 6x surge over intervals 2..3 does not.
  ASSERT_EQ(plan.serve.queue_capacity, 512u);
  ASSERT_EQ(plan.overload_start, 2u);
  ASSERT_EQ(plan.overload_intervals, 2u);

  core::ManualServeClock clock;
  core::CollectingSink sink;
  const cli::ServeRun run = cli::run_serve(plan, clock, &sink);

  EXPECT_EQ(run.stats.intervals, plan.intervals);
  EXPECT_EQ(sink.reports.size(), plan.intervals);
  ASSERT_FALSE(sink.drops.empty());
  std::uint64_t dropped = 0;
  for (const core::DropEvent& drop : sink.drops) {
    EXPECT_GE(drop.interval, plan.overload_start);
    EXPECT_LT(drop.interval, plan.overload_start + plan.overload_intervals);
    EXPECT_EQ(drop.queue_capacity, plan.serve.queue_capacity);
    dropped += drop.dropped;
  }
  EXPECT_EQ(dropped, run.stats.events_dropped);
  EXPECT_EQ(run.stats.events_rejected, 0u);
}

}  // namespace
