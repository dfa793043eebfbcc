// Tracing decorators around the built-in pipeline stages.
//
// The traced run selects benchmark-owned StageRegistry keys
// ("perfbench.cnn", "perfbench.summary", "perfbench.ddqn", "perfbench.joint").
// Each factory builds the built-in stage with the same config and rng it
// received, so the wrapped stage draws exactly the streams it would have
// drawn unwrapped and results stay bit-identical. The decorators add spans
// ("feature", "grouping", "analysis", "predict") and counters, and forward
// everything else unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/pipeline.hpp"

namespace perfbench {

/// Counters the decorators fill during one episode. Atomic because fleet
/// shards run their stages on pool workers.
struct StageCounters {
  std::atomic<std::uint64_t> rows_refreshed{0};
  std::atomic<std::uint64_t> rows_reused{0};
  std::atomic<std::uint64_t> groupings{0};
  std::atomic<std::uint64_t> k_sum{0};
  // Owner ids: the n-th stage of a kind built in an episode belongs to the
  // n-th pipeline (fleet shard) constructed.
  std::atomic<std::uint32_t> feature_owners{0};
  std::atomic<std::uint32_t> grouping_owners{0};
  std::atomic<std::uint32_t> demand_owners{0};

  void reset();
};

StageCounters& stage_counters();

/// Marks, on the calling thread, the end of work that is not group
/// abstraction (a stage call or a sink callback). The next
/// DemandStage::predict on this thread records the time since the mark as
/// an "analysis" span: swiping, preference and recommendation for a group.
void mark_abstraction_start();

/// Which arena extraction statistics a wrapped feature stage produces.
enum class ArenaRows { kWindows, kSummaries };

class TracedFeatureStage final : public dtmsv::core::FeatureStage {
 public:
  TracedFeatureStage(std::unique_ptr<dtmsv::core::FeatureStage> inner,
                     ArenaRows rows, std::uint32_t owner)
      : inner_(std::move(inner)), rows_(rows), owner_(owner) {}

  dtmsv::core::FeatureOutput extract(const dtmsv::core::TwinSnapshot& snapshot) override;
  std::string name() const override { return inner_->name(); }
  bool has_learned_state() const override { return inner_->has_learned_state(); }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::unique_ptr<dtmsv::core::FeatureStage> inner_;
  ArenaRows rows_;
  std::uint32_t owner_;
};

class TracedGroupingStage final : public dtmsv::core::GroupingStage {
 public:
  TracedGroupingStage(std::unique_ptr<dtmsv::core::GroupingStage> inner,
                      std::uint32_t owner)
      : inner_(std::move(inner)), owner_(owner) {}

  dtmsv::core::GroupingOutcome group(const dtmsv::clustering::Points& features,
                                     dtmsv::util::Rng& rng) override;
  void report_outcome(double prediction_error) override {
    inner_->report_outcome(prediction_error);
  }
  std::string name() const override { return inner_->name(); }
  bool has_learned_state() const override { return inner_->has_learned_state(); }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::unique_ptr<dtmsv::core::GroupingStage> inner_;
  std::uint32_t owner_;
};

class TracedDemandStage final : public dtmsv::core::DemandStage {
 public:
  TracedDemandStage(std::unique_ptr<dtmsv::core::DemandStage> inner,
                    std::uint32_t owner)
      : inner_(std::move(inner)), owner_(owner) {}

  dtmsv::core::GroupDemandForecast predict(
      const dtmsv::core::GroupDemandContext& context) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<dtmsv::core::DemandStage> inner_;
  std::uint32_t owner_;
};

/// Registry key of the traced decorator around built-in key `key`.
std::string traced_key(const std::string& key);

/// Registers the decorators around "cnn", "summary", "ddqn" and "joint"
/// (once per process).
void register_traced_stages();

}  // namespace perfbench
