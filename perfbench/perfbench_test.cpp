// Tests of the benchmark's own code: the percentile rule, span self time,
// and the stage decorators.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "core/simulation.hpp"
#include "decorators.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace dtmsv;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(n - i);  // unsorted on purpose
  }
  return v;
}

TEST(Percentile, P95IsWithheldBelow200Samples) {
  EXPECT_FALSE(percentile(ramp(199), 95.0).has_value());
  ASSERT_TRUE(percentile(ramp(200), 95.0).has_value());
  EXPECT_EQ(*percentile(ramp(200), 95.0), 190.0);  // 10 samples lie beyond
}

TEST(Percentile, MedianNeedsTwentySamples) {
  EXPECT_FALSE(percentile(ramp(19), 50.0).has_value());
  ASSERT_TRUE(percentile(ramp(20), 50.0).has_value());
  EXPECT_EQ(*percentile(ramp(20), 50.0), 10.0);
  EXPECT_EQ(median(ramp(5)), 3.0);
}

Span span(std::uint64_t id, std::uint64_t parent, double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren) {
  const std::vector<Span> spans = {
      span(1, 0, 0.0, 10.0),  // root
      span(2, 1, 1.0, 4.0),   // child
      span(3, 2, 2.0, 3.0),   // grandchild
      span(4, 1, 5.0, 6.0),   // second child
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 6.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SelfTime, ConcurrentChildrenCountOnceAndAreClipped) {
  const std::vector<Span> spans = {
      span(1, 0, 0.0, 10.0),
      span(2, 1, 1.0, 5.0),   // worker A
      span(3, 1, 3.0, 7.0),   // worker B, overlaps A
      span(4, 1, 8.0, 12.0),  // runs past the parent: clipped to 8..10
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 6.0 - 2.0);
}

TEST(Tracer, WorkerSpansParentToTheAmbientRoot) {
  Tracer& tracer = Tracer::instance();
  tracer.collect();
  tracer.set_enabled(true);
  tracer.set_interval(7, 0);
  const std::uint64_t root = tracer.open("interval");
  tracer.set_interval(7, root);
  std::vector<std::thread> workers;
  for (std::uint32_t w = 0; w < 4; ++w) {
    workers.emplace_back([w] {
      const ScopedSpan outer("feature", w);
      const ScopedSpan inner("grouping", w);
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  tracer.close();
  tracer.set_enabled(false);
  const std::vector<Span> spans = tracer.collect();
  ASSERT_EQ(spans.size(), 9U);

  std::uint64_t covered_by_workers = 0;
  for (const Span& s : spans) {
    EXPECT_EQ(s.interval, 7U);
    EXPECT_LE(s.start, s.end);
    if (std::string(s.name) == "feature") {
      EXPECT_EQ(s.parent, root);
      ++covered_by_workers;
    } else if (std::string(s.name) == "grouping") {
      EXPECT_NE(s.parent, root);  // nested under its own thread's feature span
    }
  }
  EXPECT_EQ(covered_by_workers, 4U);
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(self[i], 0.0);
    EXPECT_LE(self[i], spans[i].duration());
  }
}

// ---------------------------------------------------------------- decorators

class FakeFeature final : public core::FeatureStage {
 public:
  core::FeatureOutput extract(const core::TwinSnapshot&) override { return {}; }
  std::string name() const override { return "fake-feature"; }
  bool has_learned_state() const override { return true; }
  void save_state(std::ostream& os) const override { os << "weights"; }
  void load_state(std::istream& is) override { is >> loaded; }
  std::string loaded;
};

class FakeGrouping final : public core::GroupingStage {
 public:
  core::GroupingOutcome group(const clustering::Points&, util::Rng&) override {
    return {};
  }
  void report_outcome(double error) override { *last_error = error; }
  std::string name() const override { return "fake-grouping"; }
  double* last_error = nullptr;
};

class FakeDemand final : public core::DemandStage {
 public:
  core::GroupDemandForecast predict(const core::GroupDemandContext&) override {
    return {};
  }
  std::string name() const override { return "fake-demand"; }
};

TEST(Decorators, ForwardNameStateHooksAndOutcome) {
  auto fake = std::make_unique<FakeFeature>();
  FakeFeature* raw = fake.get();
  TracedFeatureStage feature(std::move(fake), ArenaRows::kWindows, 0);
  EXPECT_EQ(feature.name(), "fake-feature");
  EXPECT_TRUE(feature.has_learned_state());
  std::ostringstream saved;
  feature.save_state(saved);
  EXPECT_EQ(saved.str(), "weights");
  std::istringstream restore("restored");
  feature.load_state(restore);
  EXPECT_EQ(raw->loaded, "restored");

  double last_error = 0.0;
  auto grouping_inner = std::make_unique<FakeGrouping>();
  grouping_inner->last_error = &last_error;
  TracedGroupingStage grouping(std::move(grouping_inner), 0);
  EXPECT_EQ(grouping.name(), "fake-grouping");
  EXPECT_FALSE(grouping.has_learned_state());
  grouping.report_outcome(0.125);
  EXPECT_EQ(last_error, 0.125);

  TracedDemandStage demand(std::make_unique<FakeDemand>(), 0);
  EXPECT_EQ(demand.name(), "fake-demand");
}

TEST(Decorators, TracedKeysReproduceTheBuiltInPipelineBitForBit) {
  register_traced_stages();
  core::SchemeConfig plain;
  plain.seed = 11;
  plain.user_count = 24;
  plain.interval_s = 60.0;
  plain.demand.interval_s = 60.0;
  plain.warmup_intervals = 1;
  plain.feature_window_s = 120.0;
  plain.feature_timesteps = 16;
  core::SchemeConfig traced = plain;
  traced.feature_stage = traced_key("cnn");
  traced.grouping_stage = traced_key("ddqn");
  traced.demand_stage = traced_key("joint");

  Tracer::instance().set_enabled(true);
  core::Simulation a(plain);
  core::Simulation b(traced);
  EXPECT_EQ(b.feature_stage().name(), "cnn");
  for (int i = 0; i < 4; ++i) {
    const core::EpochReport ra = a.run_interval();
    const core::EpochReport rb = b.run_interval();
    EXPECT_EQ(ra.k, rb.k);
    ASSERT_EQ(ra.groups.size(), rb.groups.size());
    for (std::size_t g = 0; g < ra.groups.size(); ++g) {
      EXPECT_EQ(ra.groups[g].predicted_radio_hz, rb.groups[g].predicted_radio_hz);
      EXPECT_EQ(ra.groups[g].predicted_compute_cycles,
                rb.groups[g].predicted_compute_cycles);
    }
  }
  Tracer::instance().set_enabled(false);
  EXPECT_FALSE(Tracer::instance().collect().empty());
}

}  // namespace
}  // namespace perfbench
