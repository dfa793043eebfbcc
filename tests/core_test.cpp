// Unit tests for dtmsv::core — the 1D-CNN feature compressor (training,
// embedding, discrimination), the DDQN+K-means++ group constructor (state
// encoding, learning loop, decision validity), and scheme configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/feature_compressor.hpp"
#include "core/group_constructor.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv::core;
using dtmsv::clustering::Points;
using dtmsv::twin::WindowBatch;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;

// ------------------------------------------------------- FeatureCompressor

CompressorConfig small_compressor() {
  CompressorConfig cfg;
  cfg.channels = 3;
  cfg.timesteps = 16;
  cfg.embedding_dim = 4;
  cfg.conv1_filters = 8;
  cfg.conv2_filters = 8;
  cfg.decoder_hidden = 32;
  cfg.epochs_per_fit = 3;
  return cfg;
}

/// Row-major windows (one channels*timesteps row each) and the batch view
/// over them.
struct Windows {
  std::vector<float> data;
  std::size_t window_size = 0;

  WindowBatch batch() const {
    return WindowBatch(data.data(), data.size() / window_size, window_size);
  }
};

/// Windows with two latent modes: flat-low and oscillating-high.
Windows two_mode_windows(std::size_t per_mode, Rng& rng) {
  const CompressorConfig cfg = small_compressor();
  Windows windows;
  windows.window_size = cfg.channels * cfg.timesteps;
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t i = 0; i < per_mode; ++i) {
      for (std::size_t c = 0; c < cfg.channels; ++c) {
        for (std::size_t t = 0; t < cfg.timesteps; ++t) {
          const double base =
              m == 0 ? 0.2
                     : 0.8 + 0.2 * std::sin(2.0 * M_PI * static_cast<double>(t) / 8.0);
          windows.data.push_back(static_cast<float>(base + rng.normal(0.0, 0.02)));
        }
      }
    }
  }
  return windows;
}

TEST(FeatureCompressor, EmbeddingShape) {
  FeatureCompressor comp(small_compressor(), 1);
  Rng rng(1);
  const Windows data = two_mode_windows(5, rng);
  const WindowBatch windows = data.batch();
  const Points points = comp.embed(windows);
  ASSERT_EQ(points.size(), windows.size());
  for (const auto& p : points) {
    EXPECT_EQ(p.size(), 4u);
    for (const double v : p) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(FeatureCompressor, TrainingReducesReconstructionLoss) {
  FeatureCompressor comp(small_compressor(), 2);
  Rng rng(2);
  const Windows data = two_mode_windows(16, rng);
  const WindowBatch windows = data.batch();
  const float before = comp.reconstruction_loss(windows);
  for (int i = 0; i < 25; ++i) {
    comp.fit(windows);
  }
  const float after = comp.reconstruction_loss(windows);
  EXPECT_LT(after, 0.5f * before)
      << "autoencoder failed to learn: " << before << " -> " << after;
}

TEST(FeatureCompressor, EmbeddingSeparatesModes) {
  FeatureCompressor comp(small_compressor(), 3);
  Rng rng(3);
  const Windows data = two_mode_windows(12, rng);
  const WindowBatch windows = data.batch();
  for (int i = 0; i < 15; ++i) {
    comp.fit(windows);
  }
  const Points points = comp.embed(windows);
  // Mean intra-mode distance must be far below the inter-mode distance.
  const auto mean_dist = [&](std::size_t a_begin, std::size_t a_end,
                             std::size_t b_begin, std::size_t b_end) {
    double total = 0.0;
    std::size_t n = 0;
    for (std::size_t i = a_begin; i < a_end; ++i) {
      for (std::size_t j = b_begin; j < b_end; ++j) {
        if (i != j) {
          total += dtmsv::clustering::distance(points[i], points[j]);
          ++n;
        }
      }
    }
    return total / static_cast<double>(n);
  };
  const double intra = 0.5 * (mean_dist(0, 12, 0, 12) + mean_dist(12, 24, 12, 24));
  const double inter = mean_dist(0, 12, 12, 24);
  EXPECT_GT(inter, 2.0 * intra);
}

TEST(FeatureCompressor, DeterministicGivenSeed) {
  FeatureCompressor a(small_compressor(), 7);
  FeatureCompressor b(small_compressor(), 7);
  Rng rng(4);
  const Windows data = two_mode_windows(4, rng);
  const WindowBatch windows = data.batch();
  const Points pa = a.embed(windows);
  const Points pb = b.embed(windows);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t d = 0; d < pa[i].size(); ++d) {
      EXPECT_DOUBLE_EQ(pa[i][d], pb[i][d]);
    }
  }
}

TEST(FeatureCompressor, WindowSizeMismatchRejected) {
  FeatureCompressor comp(small_compressor(), 5);
  const std::vector<float> row = {1.0f, 2.0f};
  const WindowBatch bad(row.data(), 1, row.size());
  EXPECT_THROW(comp.embed(bad), PreconditionError);
  EXPECT_THROW(comp.fit(bad), PreconditionError);
}

TEST(FeatureCompressor, EmptyInputRejected) {
  FeatureCompressor comp(small_compressor(), 6);
  EXPECT_THROW(comp.embed(WindowBatch{}), PreconditionError);
  EXPECT_THROW(comp.fit(WindowBatch{}), PreconditionError);
  EXPECT_THROW(comp.reconstruction_loss(WindowBatch{}), PreconditionError);
}

// -------------------------------------------------------- GroupConstructor

GroupConstructorConfig small_grouping() {
  GroupConstructorConfig cfg;
  cfg.k_min = 2;
  cfg.k_max = 6;
  cfg.ddqn.hidden = {32};
  cfg.ddqn.min_replay_before_train = 8;
  cfg.ddqn.batch_size = 8;
  cfg.ddqn.epsilon_decay_steps = 50;
  cfg.train_steps_per_interval = 4;
  return cfg;
}

Points blob_points(std::size_t blobs, std::size_t per_blob, double sep, Rng& rng) {
  Points points;
  for (std::size_t b = 0; b < blobs; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      points.push_back({sep * static_cast<double>(b) + rng.normal(0.0, 0.3),
                        rng.normal(0.0, 0.3)});
    }
  }
  return points;
}

TEST(GroupConstructor, StateDimensionMatchesEncoder) {
  const GroupConstructorConfig cfg = small_grouping();
  GroupConstructor ctor(cfg, 1);
  Rng rng(1);
  const Points points = blob_points(3, 10, 10.0, rng);
  const auto state = ctor.encode_state(points, 3);
  EXPECT_EQ(state.size(), GroupConstructor::state_dimension(cfg));
  for (const float v : state) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(GroupConstructor, StateHistogramIsDistribution) {
  const GroupConstructorConfig cfg = small_grouping();
  GroupConstructor ctor(cfg, 2);
  Rng rng(2);
  const Points points = blob_points(2, 20, 5.0, rng);
  const auto state = ctor.encode_state(points, 2);
  double hist_sum = 0.0;
  for (std::size_t i = 0; i < cfg.distance_histogram_bins; ++i) {
    hist_sum += state[i];
  }
  EXPECT_NEAR(hist_sum, 1.0, 1e-5);
}

TEST(GroupConstructor, DecisionWithinConfiguredRange) {
  GroupConstructor ctor(small_grouping(), 3);
  Rng rng(3);
  const Points points = blob_points(3, 10, 8.0, rng);
  for (int i = 0; i < 10; ++i) {
    const GroupingDecision d = ctor.construct(points, rng);
    EXPECT_GE(d.k, 2u);
    EXPECT_LE(d.k, 6u);
    ASSERT_EQ(d.assignment.size(), points.size());
    for (const std::size_t a : d.assignment) {
      EXPECT_LT(a, d.k);
    }
    EXPECT_GE(d.silhouette, -1.0);
    EXPECT_LE(d.silhouette, 1.0);
  }
}

TEST(GroupConstructor, ClampsKToPointCount) {
  GroupConstructorConfig cfg = small_grouping();
  cfg.k_min = 4;
  cfg.k_max = 12;
  GroupConstructor ctor(cfg, 4);
  Rng rng(4);
  const Points tiny = blob_points(1, 3, 1.0, rng);  // 3 points
  const GroupingDecision d = ctor.construct(tiny, rng);
  EXPECT_LE(d.k, 3u);
}

TEST(GroupConstructor, LearningLoopRunsAndEpsilonDecays) {
  GroupConstructor ctor(small_grouping(), 5);
  Rng rng(5);
  const Points points = blob_points(3, 12, 10.0, rng);
  const double eps0 = ctor.construct(points, rng).epsilon;
  for (int i = 0; i < 60; ++i) {
    ctor.report_outcome(0.1);
    ctor.construct(points, rng);
  }
  const double eps1 = ctor.construct(points, rng).epsilon;
  EXPECT_LT(eps1, eps0);
  EXPECT_GT(ctor.agent().replay_size(), 30u);
  EXPECT_GT(ctor.agent().train_steps(), 0u);
}

TEST(GroupConstructor, LearnsTowardGoodKOnSeparableData) {
  // With three well-separated blobs, silhouette rewards K=3 strongly.
  // After exploration decays, the greedy decision should cluster near 3.
  GroupConstructorConfig cfg = small_grouping();
  cfg.ddqn.epsilon_decay_steps = 120;
  cfg.ddqn.learning_rate = 2e-3;
  cfg.k_cost_weight = 0.05;
  GroupConstructor ctor(cfg, 6);
  Rng rng(6);
  const Points points = blob_points(3, 15, 20.0, rng);

  for (int i = 0; i < 160; ++i) {
    ctor.report_outcome(0.05);
    ctor.construct(points, rng);
  }
  // Greedy phase: collect the last decisions.
  std::vector<std::size_t> ks;
  for (int i = 0; i < 10; ++i) {
    ctor.report_outcome(0.05);
    ks.push_back(ctor.construct(points, rng).k);
  }
  // Majority of late decisions in {3, 4} (silhouette at 3 dominates).
  std::size_t good = 0;
  for (const std::size_t k : ks) {
    if (k == 3 || k == 4) {
      ++good;
    }
  }
  EXPECT_GE(good, 6u) << "DDQN failed to concentrate on the separable K";
}

TEST(GroupConstructor, ReportOutcomeValidation) {
  GroupConstructor ctor(small_grouping(), 7);
  EXPECT_THROW(ctor.report_outcome(-0.1), PreconditionError);
  ctor.report_outcome(0.5);  // fine
}

TEST(GroupConstructor, EmptyEmbeddingsRejected) {
  GroupConstructor ctor(small_grouping(), 8);
  Rng rng(8);
  Points empty;
  EXPECT_THROW(ctor.construct(empty, rng), PreconditionError);
}

TEST(GroupConstructor, InvalidConfigRejected) {
  GroupConstructorConfig cfg = small_grouping();
  cfg.k_min = 0;
  EXPECT_THROW(GroupConstructor(cfg, 1), PreconditionError);
  cfg = small_grouping();
  cfg.k_max = 1;
  cfg.k_min = 3;
  EXPECT_THROW(GroupConstructor(cfg, 1), PreconditionError);
}

}  // namespace
