#include "decorators.hpp"

#include <mutex>

#include "trace.hpp"
#include "twin/arena.hpp"

namespace perfbench {

using namespace dtmsv;

namespace {

struct AbstractionMark {
  bool set = false;
  double at = 0.0;
};

thread_local AbstractionMark abstraction_mark;

}  // namespace

void StageCounters::reset() {
  rows_refreshed = 0;
  rows_reused = 0;
  groupings = 0;
  k_sum = 0;
  feature_owners = 0;
  grouping_owners = 0;
  demand_owners = 0;
}

StageCounters& stage_counters() {
  static StageCounters counters;
  return counters;
}

void mark_abstraction_start() {
  if (Tracer::instance().enabled()) {
    abstraction_mark = {true, wall_s()};
  }
}

core::FeatureOutput TracedFeatureStage::extract(const core::TwinSnapshot& snapshot) {
  abstraction_mark.set = false;
  core::FeatureOutput out;
  {
    const ScopedSpan span("feature", owner_);
    out = inner_->extract(snapshot);
  }
  if (snapshot.arena != nullptr) {
    const twin::ExtractStats& stats = rows_ == ArenaRows::kWindows
                                          ? snapshot.arena->window_stats()
                                          : snapshot.arena->summary_stats();
    StageCounters& counters = stage_counters();
    counters.rows_refreshed += stats.refreshed;
    counters.rows_reused += stats.reused;
  }
  return out;
}

core::GroupingOutcome TracedGroupingStage::group(const clustering::Points& features,
                                                 util::Rng& rng) {
  core::GroupingOutcome outcome;
  {
    const ScopedSpan span("grouping", owner_);
    outcome = inner_->group(features, rng);
  }
  StageCounters& counters = stage_counters();
  ++counters.groupings;
  counters.k_sum += outcome.k;
  mark_abstraction_start();
  return outcome;
}

core::GroupDemandForecast TracedDemandStage::predict(
    const core::GroupDemandContext& context) {
  Tracer& tracer = Tracer::instance();
  if (abstraction_mark.set && tracer.enabled()) {
    tracer.record("analysis", abstraction_mark.at, wall_s(), owner_);
  }
  core::GroupDemandForecast forecast;
  {
    const ScopedSpan span("predict", owner_);
    forecast = inner_->predict(context);
  }
  mark_abstraction_start();
  return forecast;
}

std::string traced_key(const std::string& key) { return "perfbench." + key; }

void register_traced_stages() {
  static std::once_flag once;
  std::call_once(once, [] {
    core::StageRegistry& registry = core::StageRegistry::instance();
    const auto feature = [&registry](const std::string& key, ArenaRows rows) {
      registry.register_feature(
          traced_key(key),
          [key, rows](const core::SchemeConfig& config, util::Rng& rng) {
            return std::make_unique<TracedFeatureStage>(
                core::StageRegistry::instance().make_feature(key, config, rng), rows,
                stage_counters().feature_owners++);
          });
    };
    feature("cnn", ArenaRows::kWindows);
    feature("summary", ArenaRows::kSummaries);
    registry.register_grouping(
        traced_key("ddqn"), [](const core::SchemeConfig& config, util::Rng& rng) {
          return std::make_unique<TracedGroupingStage>(
              core::StageRegistry::instance().make_grouping("ddqn", config, rng),
              stage_counters().grouping_owners++);
        });
    registry.register_demand(
        traced_key("joint"), [](const core::SchemeConfig& config, util::Rng& rng) {
          return std::make_unique<TracedDemandStage>(
              core::StageRegistry::instance().make_demand("joint", config, rng),
              stage_counters().demand_owners++);
        });
  });
}

}  // namespace perfbench
