// Tests for the pluggable interval pipeline (core/pipeline.hpp): the
// string-keyed StageRegistry, enum-alias/key equivalence, the streaming
// ReportSink contract, an out-of-tree stage registered from this binary,
// the shared prediction pass's grouping validation and empty-cluster
// handling in batch and serve mode, per-stage wall-time accounting, and the
// bit-identity regression locking the refactored pipeline to the
// pre-refactor report stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "core/pipeline.hpp"
#include "core/serve.hpp"
#include "core/simulation.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv;
using core::EpochReport;
using core::SchemeConfig;
using core::Simulation;
using core::StageRegistry;

/// The exact configuration the pre-refactor golden reports were captured
/// with (seed path: monolithic run_interval, enums, vector reports).
SchemeConfig golden_config(std::uint64_t seed = 42) {
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

// ----------------------------------------------------------- registry keys

TEST(StageRegistry, BuiltinKeysRegistered) {
  const StageRegistry& reg = StageRegistry::instance();
  for (const char* key : {"cnn", "raw", "summary"}) {
    EXPECT_TRUE(reg.has_feature(key)) << key;
  }
  for (const char* key : {"ddqn", "fixed", "elbow", "random", "silhouette"}) {
    EXPECT_TRUE(reg.has_grouping(key)) << key;
  }
  for (const char* key : {"joint", "last_value", "ewma", "linear_trend", "mean"}) {
    EXPECT_TRUE(reg.has_demand(key)) << key;
  }
  // Sorted key listings include the builtins.
  const auto features = reg.feature_keys();
  EXPECT_TRUE(std::is_sorted(features.begin(), features.end()));
  EXPECT_GE(features.size(), 3u);
}

TEST(StageRegistry, UnknownKeyThrowsListingKnownKeys) {
  SchemeConfig cfg = golden_config();
  util::Rng rng(1);
  try {
    StageRegistry::instance().make_feature("no_such_stage", cfg, rng);
    FAIL() << "unknown key must throw";
  } catch (const util::RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_stage"), std::string::npos);
    EXPECT_NE(what.find("cnn"), std::string::npos);  // known keys listed
  }
}

TEST(StageRegistry, UnknownKeyOnConfigThrowsAtConstruction) {
  SchemeConfig cfg = golden_config();
  cfg.grouping_stage = "definitely_not_registered";
  EXPECT_THROW(Simulation{cfg}, util::RuntimeError);
}

TEST(StageRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(StageRegistry::instance().register_grouping(
                   "ddqn",
                   [](const SchemeConfig&, util::Rng&)
                       -> std::unique_ptr<core::GroupingStage> { return nullptr; }),
               util::RuntimeError);
}

TEST(StageRegistry, DefaultKeysArePaperWiring) {
  SchemeConfig cfg;
  EXPECT_EQ(core::feature_stage_key(cfg), "cnn");
  EXPECT_EQ(core::grouping_stage_key(cfg), "ddqn");
  EXPECT_EQ(core::demand_stage_key(cfg), "joint");

  cfg.feature_stage = "raw";
  cfg.grouping_stage = "random";
  cfg.demand_stage = "mean";
  EXPECT_EQ(core::feature_stage_key(cfg), "raw");
  EXPECT_EQ(core::grouping_stage_key(cfg), "random");
  EXPECT_EQ(core::demand_stage_key(cfg), "mean");

  // Keys are registry-only now: an emptied key is a precondition error,
  // not a fallback to some implicit default.
  cfg.feature_stage.clear();
  EXPECT_THROW(core::feature_stage_key(cfg), util::PreconditionError);
}

// ------------------------------------------------ default/key bit-equivalence

void expect_reports_identical(const std::vector<EpochReport>& a,
                              const std::vector<EpochReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].k, b[i].k) << "interval " << i;
    EXPECT_DOUBLE_EQ(a[i].silhouette, b[i].silhouette);
    EXPECT_DOUBLE_EQ(a[i].predicted_radio_hz_total, b[i].predicted_radio_hz_total);
    EXPECT_DOUBLE_EQ(a[i].actual_radio_hz_total, b[i].actual_radio_hz_total);
    EXPECT_DOUBLE_EQ(a[i].predicted_compute_total, b[i].predicted_compute_total);
    EXPECT_DOUBLE_EQ(a[i].actual_compute_total, b[i].actual_compute_total);
    EXPECT_DOUBLE_EQ(a[i].unicast_radio_hz_total, b[i].unicast_radio_hz_total);
    EXPECT_DOUBLE_EQ(a[i].radio_error, b[i].radio_error);
    EXPECT_EQ(a[i].reconstruction_loss, b[i].reconstruction_loss);
  }
}

TEST(PipelineEquivalence, ExplicitKeysMatchDefaultsPaperCombo) {
  SchemeConfig via_defaults = golden_config();
  SchemeConfig via_keys = golden_config();
  via_keys.feature_stage = "cnn";
  via_keys.grouping_stage = "ddqn";
  via_keys.demand_stage = "joint";
  Simulation a(via_defaults);
  Simulation b(via_keys);
  expect_reports_identical(a.run(6), b.run(6));
}

// --------------------------------------------------- seed-path regression

/// Golden values captured from the pre-refactor monolithic
/// Simulation::run_interval (seed path) on this machine, max-precision.
/// {interval, k, silhouette, predicted_radio, actual_radio,
///  predicted_compute, actual_compute}. Note: exact doubles are sensitive
/// to the FP-contraction regime (-march=native); regenerate on a different
/// host with tools mirroring golden_config() if this ever moves machines.
struct GoldenInterval {
  std::size_t interval;
  std::size_t k;
  double silhouette;
  double predicted_radio;
  double actual_radio;
  double predicted_compute;
  double actual_compute;
};

/// The pinned doubles assume the optimized FP regime they were captured in
/// (-O3 with default -ffp-contract=fast FMA contraction; -march=native).
/// Unoptimized builds (the ASan Debug job) skip the pin — the FP stream
/// legitimately differs without contraction — and rely on the equivalence
/// tests above, which are regime-independent. A host whose codegen
/// diverges from the capture machine can export DTMSV_SKIP_GOLDEN=1 and
/// regenerate the values from a pre-refactor checkout.
bool golden_regime() {
#if defined(__OPTIMIZE__)
  return std::getenv("DTMSV_SKIP_GOLDEN") == nullptr;
#else
  return false;
#endif
}

void expect_matches_golden(const std::vector<EpochReport>& reports,
                           const std::vector<GoldenInterval>& golden) {
  ASSERT_EQ(reports.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const EpochReport& r = reports[i];
    const GoldenInterval& g = golden[i];
    EXPECT_EQ(static_cast<std::size_t>(r.interval), g.interval);
    EXPECT_EQ(r.k, g.k) << "interval " << i;
    EXPECT_DOUBLE_EQ(r.silhouette, g.silhouette) << "interval " << i;
    EXPECT_DOUBLE_EQ(r.predicted_radio_hz_total, g.predicted_radio) << i;
    EXPECT_DOUBLE_EQ(r.actual_radio_hz_total, g.actual_radio) << i;
    EXPECT_DOUBLE_EQ(r.predicted_compute_total, g.predicted_compute) << i;
    EXPECT_DOUBLE_EQ(r.actual_compute_total, g.actual_compute) << i;
  }
}

TEST(PipelineRegression, DefaultRegistryReproducesSeedPathPaperCombo) {
  if (!golden_regime()) {
    GTEST_SKIP() << "golden stream pinned for optimized FP regime only";
  }
  // cnn + ddqn + joint: the paper's default wiring, 6 intervals (1 warm-up
  // + 5 scored) pinned bit-identically against the pre-refactor stream.
  const std::vector<GoldenInterval> golden = {
      {0, 3, 0.37080589802837122, 0, 0, 0, 0},
      {1, 3, 0.19256612642326607, 1594090.458026814, 1700035.901583116,
       22011686607.656975, 25188434614.166496},
      {2, 5, 0.30618587903555577, 1716633.3420408536, 1425833.409892238,
       25451595099.140926, 22221543146.339092},
      {3, 2, 0.38163696254932417, 2627874.5094029177, 2568280.4024920207,
       39438638034.095139, 41560912018.7118},
      {4, 2, 0.40744677879951752, 1057306.3638144904, 928955.88916782988,
       15789201409.098848, 13824538593.702339},
      {5, 2, 0.36136139596033429, 1026124.4737402808, 929508.85017736536,
       14852859569.659935, 13824538593.702339},
  };
  Simulation sim(golden_config(42));
  expect_matches_golden(sim.run(6), golden);
}

TEST(PipelineRegression, DefaultRegistryReproducesSeedPathAblationCombo) {
  if (!golden_regime()) {
    GTEST_SKIP() << "golden stream pinned for optimized FP regime only";
  }
  // summary + elbow + per-member mean: one ablation combo pinned the same
  // way, proving the adapters (not just the default stages) are faithful.
  const std::vector<GoldenInterval> golden = {
      {0, 4, 0.3460434332345691, 0, 0, 0, 0},
      {1, 5, 0.26621299875884419, 2052185.3318163499, 2214175.2924183607,
       32424342411.474434, 33744256119.761284},
      {2, 3, 0.22361615606284085, 2822015.5846807538, 2525939.8427901408,
       39762633446.074394, 40525183915.09462},
      {3, 5, 0.16871232669554209, 1597762.1637580111, 1576759.9318373175,
       24088700854.388634, 25069046717.823257},
      {4, 3, 0.28572353806989603, 2589304.8389322357, 2491900.6929028025,
       41124386319.15889, 38925138338.472107},
      {5, 3, 0.32598902107170913, 1536007.4468557693, 1437918.3983723612,
       24228575455.32579, 22206937923.813404},
  };
  SchemeConfig cfg = golden_config(42);
  cfg.feature_stage = "summary";
  cfg.grouping_stage = "elbow";
  cfg.demand_stage = "mean";
  Simulation sim(cfg);
  expect_matches_golden(sim.run(6), golden);
}

// ------------------------------------------------------- streaming contract

TEST(ReportStreaming, SinkStreamMatchesVectorRun) {
  Simulation batch(golden_config(7));
  const std::vector<EpochReport> reports = batch.run(5);

  Simulation streamed(golden_config(7));
  core::CollectingSink sink;
  streamed.run(5, sink);

  ASSERT_EQ(sink.reports.size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    // Streaming mode must not buffer groups inside the interval report...
    EXPECT_TRUE(sink.reports[i].groups.empty());
    EXPECT_EQ(sink.reports[i].k, reports[i].k);
    EXPECT_DOUBLE_EQ(sink.reports[i].predicted_radio_hz_total,
                     reports[i].predicted_radio_hz_total);
    EXPECT_DOUBLE_EQ(sink.reports[i].actual_radio_hz_total,
                     reports[i].actual_radio_hz_total);
    EXPECT_DOUBLE_EQ(sink.reports[i].silhouette, reports[i].silhouette);
  }
  // ...but every group flows through on_group, bit-identical to the
  // vector path's per-group reports.
  std::vector<core::GroupReport> batch_groups;
  for (const auto& r : reports) {
    batch_groups.insert(batch_groups.end(), r.groups.begin(), r.groups.end());
  }
  ASSERT_EQ(sink.groups.size(), batch_groups.size());
  for (std::size_t i = 0; i < batch_groups.size(); ++i) {
    EXPECT_EQ(sink.groups[i].size, batch_groups[i].size);
    EXPECT_DOUBLE_EQ(sink.groups[i].actual_radio_hz, batch_groups[i].actual_radio_hz);
    EXPECT_DOUBLE_EQ(sink.groups[i].predicted_radio_hz,
                     batch_groups[i].predicted_radio_hz);
  }
}

TEST(ReportStreaming, FleetSinkMatchesAggregates) {
  core::FleetConfig cfg;
  cfg.base = golden_config(11);
  cfg.base.interval_s = 30.0;
  cfg.base.demand.interval_s = 30.0;
  cfg.base.feature_window_s = 60.0;
  cfg.cell_count = 3;
  cfg.total_users = 36;
  cfg.seed = 11;
  core::SimulationFleet fleet(cfg);

  core::CollectingSink sink;
  for (int i = 0; i < 3; ++i) {
    const core::FleetReport report = fleet.run_interval(&sink);
    // One streamed interval report per shard, in fixed shard order, whose
    // totals reproduce the aggregate exactly.
    ASSERT_EQ(sink.reports.size(), report.shards.size());
    double streamed_pred = 0.0;
    double streamed_act = 0.0;
    for (std::size_t s = 0; s < sink.reports.size(); ++s) {
      streamed_pred += sink.reports[s].predicted_radio_hz_total;
      streamed_act += sink.reports[s].actual_radio_hz_total;
      EXPECT_EQ(sink.reports[s].k, report.shards[s].k);
    }
    EXPECT_DOUBLE_EQ(streamed_pred, report.predicted_radio_hz_total);
    EXPECT_DOUBLE_EQ(streamed_act, report.actual_radio_hz_total);
    sink.reports.clear();
    sink.groups.clear();
  }
}

// ------------------------------------------------- out-of-tree stage proof

/// A stub grouping stage defined in this test binary — outside src/core —
/// to prove the registry extension point: round-robin into a fixed number
/// of groups, no learning, no RNG.
class RoundRobinGroupingStage final : public core::GroupingStage {
 public:
  explicit RoundRobinGroupingStage(std::size_t k) : k_(k) {}

  core::GroupingOutcome group(const clustering::Points& features,
                              util::Rng&) override {
    core::GroupingOutcome out;
    out.k = std::min<std::size_t>(k_, features.size());
    out.assignment.resize(features.size());
    for (std::size_t u = 0; u < features.size(); ++u) {
      out.assignment[u] = u % out.k;
    }
    return out;
  }
  void report_outcome(double prediction_error) override {
    last_error = prediction_error;
    ++outcomes_reported;
  }
  std::string name() const override { return "test_round_robin"; }

  double last_error = -1.0;
  std::size_t outcomes_reported = 0;

 private:
  std::size_t k_;
};

/// The most recently constructed stub (the registry factory outlives any
/// one test body, so the handle must too — e.g. under --gtest_repeat).
RoundRobinGroupingStage*& live_round_robin_stage() {
  static RoundRobinGroupingStage* stage = nullptr;
  return stage;
}

TEST(CustomStage, OutOfTreeGroupingStageRunsFullInterval) {
  // Register from the test binary, exactly once per process; the factory
  // publishes the live stage so the feedback path is observable too.
  [[maybe_unused]] static const bool registered = [] {
    StageRegistry::instance().register_grouping(
        "test_round_robin", [](const SchemeConfig& config, util::Rng&) {
          auto stage = std::make_unique<RoundRobinGroupingStage>(config.fixed_k);
          live_round_robin_stage() = stage.get();
          return stage;
        });
    return true;
  }();
  RoundRobinGroupingStage*& live_stage = live_round_robin_stage();
  live_stage = nullptr;

  SchemeConfig cfg = golden_config(19);
  cfg.grouping_stage = "test_round_robin";
  cfg.fixed_k = 3;
  Simulation sim(cfg);
  EXPECT_EQ(sim.grouping_stage().name(), "test_round_robin");

  const std::vector<EpochReport> reports = sim.run(3);
  ASSERT_NE(live_stage, nullptr);

  // The stub's decisions drive the real pipeline end-to-end: K groups,
  // round-robin membership, demand predicted and scored.
  EXPECT_EQ(reports[1].k, 3u);
  EXPECT_TRUE(reports[1].grouped);
  EXPECT_TRUE(reports[2].has_prediction);
  EXPECT_GT(reports[2].actual_radio_hz_total, 0.0);
  ASSERT_EQ(sim.group_count(), 3u);
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    for (const std::size_t u : sim.group_members(g)) {
      EXPECT_EQ(u % 3, g);  // round-robin membership preserved
    }
  }
  // The delayed-reward feedback reaches custom stages as well.
  EXPECT_GT(live_stage->outcomes_reported, 0u);
  EXPECT_GE(live_stage->last_error, 0.0);
}

// ------------------------------------------------ shared prediction pass

/// A grouping stage defined in this test binary that returns a malformed
/// or gapped outcome on purpose: the prediction pass must validate what
/// out-of-tree stages hand it.
class ScriptedGroupingStage final : public core::GroupingStage {
 public:
  enum class Mode { kSkipCluster, kOutOfRange, kShortAssignment };
  explicit ScriptedGroupingStage(Mode mode) : mode_(mode) {}

  core::GroupingOutcome group(const clustering::Points& features,
                              util::Rng&) override {
    // Three clusters, users alternating between 0 and 2: cluster 1 empty.
    core::GroupingOutcome out;
    out.k = 3;
    out.assignment.resize(features.size());
    for (std::size_t u = 0; u < features.size(); ++u) {
      out.assignment[u] = u % 2 == 0 ? 0 : 2;
    }
    if (mode_ == Mode::kOutOfRange) {
      out.assignment[1] = 3;
    } else if (mode_ == Mode::kShortAssignment) {
      out.assignment.pop_back();
    }
    return out;
  }
  std::string name() const override { return "test_scripted"; }

 private:
  Mode mode_;
};

/// Registers the scripted stages once per process.
void register_scripted_stages() {
  [[maybe_unused]] static const bool registered = [] {
    using Mode = ScriptedGroupingStage::Mode;
    for (const auto& [key, mode] :
         {std::pair{"test_skip_cluster", Mode::kSkipCluster},
          std::pair{"test_out_of_range", Mode::kOutOfRange},
          std::pair{"test_short_assignment", Mode::kShortAssignment}}) {
      StageRegistry::instance().register_grouping(
          key, [mode = mode](const SchemeConfig&, util::Rng&) {
            return std::make_unique<ScriptedGroupingStage>(mode);
          });
    }
    return true;
  }();
}

core::ServeConfig pass_serve_config(const std::string& grouping_stage) {
  core::ServeConfig cfg;
  cfg.scheme.seed = 5;
  cfg.scheme.user_count = 12;
  cfg.scheme.interval_s = 10.0;
  cfg.scheme.demand.interval_s = 10.0;
  cfg.scheme.feature_window_s = 30.0;
  cfg.scheme.feature_timesteps = 8;
  cfg.scheme.session.engagement.catalog.videos_per_category = 3;
  cfg.scheme.grouping_stage = grouping_stage;
  cfg.degradation.ladder = {{"summary", "summary"}};
  return cfg;
}

TEST(PredictionPass, MalformedAssignmentThrowsInBothModes) {
  register_scripted_stages();
  for (const char* key : {"test_out_of_range", "test_short_assignment"}) {
    SchemeConfig cfg = golden_config(31);
    cfg.grouping_stage = key;  // golden_config predicts after interval 0
    Simulation sim(cfg);
    try {
      sim.run_interval();
      FAIL() << key << ": batch must reject the assignment";
    } catch (const util::RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("test_scripted"), std::string::npos)
          << e.what();
    }

    core::ManualServeClock clock;
    core::ServeLoop loop(pass_serve_config(key), clock);
    EXPECT_THROW(loop.advance_to(10.0), util::RuntimeError) << key;
  }
}

TEST(PredictionPass, EmptyClusterIsSkippedInBothModes) {
  register_scripted_stages();
  SchemeConfig cfg = golden_config(31);
  cfg.grouping_stage = "test_skip_cluster";
  Simulation sim(cfg);
  core::CollectingSink batch;
  sim.run(3, batch);

  // Two non-empty groups; batch numbers them by position (0, 1).
  ASSERT_EQ(sim.group_count(), 2u);
  for (std::size_t g = 0; g < 2; ++g) {
    for (const std::size_t u : sim.group_members(g)) {
      EXPECT_EQ(u % 2, g);
    }
  }
  EXPECT_EQ(batch.reports.back().k, 3u);
  ASSERT_FALSE(batch.groups.empty());
  for (const core::GroupReport& group : batch.groups) {
    EXPECT_LT(group.group_id, 2u);
  }

  // Serve numbers them by cluster index (0, 2).
  core::ManualServeClock clock;
  core::CollectingSink serve;
  core::ServeLoop loop(pass_serve_config("test_skip_cluster"), clock, &serve);
  loop.advance_to(10.0);
  ASSERT_EQ(serve.groups.size(), 2u);
  EXPECT_EQ(serve.groups[0].group_id, 0u);
  EXPECT_EQ(serve.groups[1].group_id, 2u);
  EXPECT_EQ(serve.groups[0].size, 6u);
  EXPECT_EQ(serve.groups[1].size, 6u);
  EXPECT_EQ(serve.reports.back().k, 3u);
}

// ----------------------------------------------------- per-stage timings

TEST(StageTimings, AccumulateAndReset) {
  Simulation sim(golden_config(23));
  sim.run(3);
  const core::StageTimings& t = sim.stage_timings();
  EXPECT_EQ(t.intervals, 3u);
  EXPECT_GT(t.simulate_s, 0.0);
  EXPECT_GT(t.feature_s, 0.0);   // CNN fit+embed every post-warmup interval
  EXPECT_GT(t.grouping_s, 0.0);  // DDQN + K-means
  EXPECT_GT(t.demand_s, 0.0);    // abstraction + demand model
  EXPECT_DOUBLE_EQ(t.total_s(), t.simulate_s + t.pipeline_s());

  sim.reset_stage_timings();
  EXPECT_EQ(sim.stage_timings().intervals, 0u);
  EXPECT_DOUBLE_EQ(sim.stage_timings().total_s(), 0.0);
}

// ------------------------------------------------------ model persistence

TEST(StagePersistence, SaveLoadRoundTripsThroughStageHooks) {
  // cnn+ddqn: both stages carry learned state through the stage hooks.
  SchemeConfig cfg = golden_config(29);
  Simulation trained(cfg);
  trained.run(2);
  std::stringstream models;
  trained.save_models(models);

  Simulation fresh(cfg);
  EXPECT_NO_THROW(fresh.load_models(models));

  // raw+fixed: no learned state anywhere -> save_models must refuse.
  SchemeConfig stateless = golden_config(29);
  stateless.feature_stage = "raw";
  stateless.grouping_stage = "fixed";
  Simulation plain(stateless);
  std::stringstream out;
  EXPECT_THROW(plain.save_models(out), util::PreconditionError);
}

}  // namespace
