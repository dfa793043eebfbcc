#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <utility>

#include "clustering/metrics.hpp"
#include "clustering/selectors.hpp"
#include "core/feature_compressor.hpp"
#include "core/group_constructor.hpp"
#include "core/simulation.hpp"
#include "nn/serialize.hpp"
#include "predict/channel_predictor.hpp"
#include "util/error.hpp"

namespace dtmsv::core {

// ------------------------------------------------------------ TwinSnapshot

twin::WindowBatch TwinSnapshot::feature_windows() const {
  DTMSV_EXPECTS_MSG(twins != nullptr && arena != nullptr,
                    "TwinSnapshot: feature_windows() needs a twin store and the "
                    "Simulation-owned arena");
  return twins->feature_windows({now, window_s, timesteps, scaling}, *arena);
}

twin::SummaryBatch TwinSnapshot::summary_features() const {
  DTMSV_EXPECTS_MSG(twins != nullptr && arena != nullptr,
                    "TwinSnapshot: summary_features() needs a twin store and the "
                    "Simulation-owned arena");
  return twins->summary_features({now, window_s, scaling}, *arena);
}

clustering::Points to_points(const twin::SummaryBatch& batch) {
  clustering::Points points(batch.size(), batch.dim());
  std::copy(batch.data(), batch.data() + batch.size() * batch.dim(), points.data());
  return points;
}

namespace {

// ---------------------------------------------------- built-in FeatureStages

/// The paper's stage: 1D-CNN autoencoder trained online; the bottleneck
/// embedding is the user feature.
class CnnFeatureStage final : public FeatureStage {
 public:
  CnnFeatureStage(const SchemeConfig& config, util::Rng& rng) {
    CompressorConfig cc = config.compressor;
    cc.channels = twin::TwinColumnStore::kFeatureChannels;
    cc.timesteps = config.feature_timesteps;
    compressor_ = std::make_unique<FeatureCompressor>(cc, rng.fork(6).next());
  }

  FeatureOutput extract(const TwinSnapshot& snapshot) override {
    const twin::WindowBatch windows = snapshot.feature_windows();
    FeatureOutput out;
    out.reconstruction_loss = compressor_->fit(windows);
    out.points = compressor_->embed(windows);
    return out;
  }

  std::string name() const override { return "cnn"; }
  bool has_learned_state() const override { return true; }
  void save_state(std::ostream& os) const override {
    nn::save_parameters(compressor_->encoder(), os);
    nn::save_parameters(compressor_->decoder(), os);
  }
  void load_state(std::istream& is) override {
    nn::load_parameters(compressor_->encoder(), is);
    nn::load_parameters(compressor_->decoder(), is);
  }

 private:
  std::unique_ptr<FeatureCompressor> compressor_;
};

/// Ablation: the flattened raw window, no compression.
class RawWindowFeatureStage final : public FeatureStage {
 public:
  FeatureOutput extract(const TwinSnapshot& snapshot) override {
    const twin::WindowBatch windows = snapshot.feature_windows();
    FeatureOutput out;
    if (windows.empty()) {
      return out;
    }
    clustering::Points points(windows.size(), windows.window_size());
    double* rows = points.data();
    const float* flat = windows.data();
    const std::size_t total = windows.size() * windows.window_size();
    for (std::size_t i = 0; i < total; ++i) {
      rows[i] = static_cast<double>(flat[i]);
    }
    out.points = std::move(points);
    return out;
  }
  std::string name() const override { return "raw"; }
};

/// Ablation: hand-rolled summary statistics per user.
class SummaryStatsFeatureStage final : public FeatureStage {
 public:
  FeatureOutput extract(const TwinSnapshot& snapshot) override {
    FeatureOutput out;
    out.points = to_points(snapshot.summary_features());
    return out;
  }
  std::string name() const override { return "summary"; }
};

// --------------------------------------------------- built-in GroupingStages

/// The paper's stage: DDQN-empowered K selection + K-means++ clustering with
/// online learning across reservation intervals.
class DdqnGroupingStage final : public GroupingStage {
 public:
  DdqnGroupingStage(const SchemeConfig& config, util::Rng& rng)
      : constructor_(std::make_unique<GroupConstructor>(config.grouping,
                                                        rng.fork(7).next())) {}

  GroupingOutcome group(const clustering::Points& features,
                        util::Rng& rng) override {
    const GroupingDecision decision = constructor_->construct(features, rng);
    GroupingOutcome out;
    out.k = decision.k;
    out.assignment = decision.assignment;
    out.silhouette = decision.silhouette;
    out.epsilon = decision.epsilon;
    return out;
  }

  void report_outcome(double prediction_error) override {
    constructor_->report_outcome(prediction_error);
  }

  std::string name() const override { return "ddqn"; }
  bool has_learned_state() const override { return true; }
  void save_state(std::ostream& os) const override {
    nn::save_parameters(constructor_->agent().online_network(), os);
  }
  void load_state(std::istream& is) override {
    nn::load_parameters(constructor_->agent().online_network(), is);
    nn::copy_parameters(constructor_->agent().online_network(),
                        constructor_->agent().target_network());
  }

 private:
  std::unique_ptr<GroupConstructor> constructor_;
};

/// Baseline stages: a clustering::KSelector chooses K, then K-means++ and a
/// sampled silhouette — the non-DDQN grouping keys behind one adapter.
class SelectorGroupingStage final : public GroupingStage {
 public:
  SelectorGroupingStage(std::string key,
                        std::unique_ptr<clustering::KSelector> selector,
                        const SchemeConfig& config)
      : key_(std::move(key)),
        selector_(std::move(selector)),
        kmeans_(config.grouping.kmeans),
        silhouette_sample_cap_(config.grouping.silhouette_sample_cap) {}

  GroupingOutcome group(const clustering::Points& features,
                        util::Rng& rng) override {
    GroupingOutcome out;
    std::size_t k = selector_->select_k(features, rng);
    k = std::clamp<std::size_t>(k, 1, features.size());
    const auto result = clustering::k_means(features, k, rng, kmeans_);
    out.k = k;
    out.assignment = result.assignment;
    out.silhouette = clustering::silhouette_sampled(
        features, out.assignment, silhouette_sample_cap_, rng);
    return out;
  }

  std::string name() const override { return key_; }

 private:
  std::string key_;
  std::unique_ptr<clustering::KSelector> selector_;
  clustering::KMeansOptions kmeans_;
  std::size_t silhouette_sample_cap_;
};

// ----------------------------------------------------- built-in DemandStages

/// The paper's stage: joint min-over-members channel forecast (harmonic
/// mean, unbiased for the multicast accounting) feeding the rung-mixture
/// demand model.
class JointDemandStage final : public DemandStage {
 public:
  explicit JointDemandStage(const SchemeConfig& config)
      : window_s_(config.feature_window_s), demand_(config.demand) {}

  GroupDemandForecast predict(const GroupDemandContext& context) override {
    const predict::GroupChannelForecast forecast = predict::forecast_group_channel(
        *context.twins, context.members, context.now, window_s_,
        demand_.efficiency_floor);
    GroupDemandForecast out;
    out.efficiency = forecast.efficiency;
    out.demand = predict::predict_group_demand(
        context.members.size(), *context.preference, *context.swiping, forecast,
        *context.playlist_per_category, *context.content, demand_);
    return out;
  }

  std::string name() const override { return "joint"; }

 private:
  double window_s_;
  predict::DemandModelConfig demand_;
};

/// Ablation: min over per-member forecasts from one EfficiencyPredictor
/// (optimistically biased — min(E[X_i]) >= E[min X_i]).
class PerMemberDemandStage final : public DemandStage {
 public:
  PerMemberDemandStage(std::string key,
                       std::unique_ptr<predict::EfficiencyPredictor> predictor,
                       const SchemeConfig& config)
      : key_(std::move(key)),
        predictor_(std::move(predictor)),
        window_s_(config.feature_window_s),
        demand_(config.demand) {}

  GroupDemandForecast predict(const GroupDemandContext& context) override {
    predict::GroupChannelForecast forecast;
    forecast.efficiency = predict::predict_group_efficiency(
        *context.twins, context.members, *predictor_, context.now, window_s_,
        demand_.efficiency_floor);
    forecast.min_series = {forecast.efficiency};
    GroupDemandForecast out;
    out.efficiency = forecast.efficiency;
    out.demand = predict::predict_group_demand(
        context.members.size(), *context.preference, *context.swiping, forecast,
        *context.playlist_per_category, *context.content, demand_);
    return out;
  }

  std::string name() const override { return key_; }

 private:
  std::string key_;
  std::unique_ptr<predict::EfficiencyPredictor> predictor_;
  double window_s_;
  predict::DemandModelConfig demand_;
};

std::string known_keys_hint(const std::vector<std::string>& keys) {
  std::string hint = " (known keys:";
  for (const auto& k : keys) {
    hint += ' ';
    hint += k;
  }
  hint += ')';
  return hint;
}

}  // namespace

// ----------------------------------------------------------------- registry

struct StageRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, FeatureFactory> feature;
  std::map<std::string, GroupingFactory> grouping;
  std::map<std::string, DemandFactory> demand;

  template <typename Map, typename Factory>
  void add(Map& map, const char* kind, const std::string& key, Factory factory) {
    DTMSV_EXPECTS_MSG(!key.empty(), "StageRegistry: empty stage key");
    const std::scoped_lock lock(mutex);
    if (!map.emplace(key, std::move(factory)).second) {
      throw util::RuntimeError(std::string("StageRegistry: duplicate ") + kind +
                               " stage key \"" + key + "\"");
    }
  }

  template <typename Map>
  const typename Map::mapped_type& find(const Map& map, const char* kind,
                                        const std::string& key) const {
    const std::scoped_lock lock(mutex);
    const auto it = map.find(key);
    if (it == map.end()) {
      throw util::RuntimeError(std::string("StageRegistry: unknown ") + kind +
                               " stage key \"" + key + "\"" +
                               known_keys_hint(keys_of(map)));
    }
    return it->second;
  }

  template <typename Map>
  static std::vector<std::string> keys_of(const Map& map) {
    std::vector<std::string> keys;
    keys.reserve(map.size());
    for (const auto& [key, factory] : map) {
      keys.push_back(key);
    }
    return keys;  // std::map iteration is already sorted
  }
};

StageRegistry::StageRegistry() : impl_(std::make_unique<Impl>()) {}
StageRegistry::~StageRegistry() = default;

StageRegistry& StageRegistry::instance() {
  static StageRegistry& registry = []() -> StageRegistry& {
    static StageRegistry r;
    r.register_feature("cnn", [](const SchemeConfig& config, util::Rng& rng) {
      return std::make_unique<CnnFeatureStage>(config, rng);
    });
    r.register_feature("raw", [](const SchemeConfig&, util::Rng&) {
      return std::make_unique<RawWindowFeatureStage>();
    });
    r.register_feature("summary", [](const SchemeConfig&, util::Rng&) {
      return std::make_unique<SummaryStatsFeatureStage>();
    });

    r.register_grouping("ddqn", [](const SchemeConfig& config, util::Rng& rng) {
      return std::make_unique<DdqnGroupingStage>(config, rng);
    });
    r.register_grouping("fixed", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<SelectorGroupingStage>(
          "fixed", std::make_unique<clustering::FixedKSelector>(config.fixed_k),
          config);
    });
    r.register_grouping("elbow", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<SelectorGroupingStage>(
          "elbow",
          std::make_unique<clustering::ElbowKSelector>(config.grouping.k_min,
                                                       config.grouping.k_max),
          config);
    });
    r.register_grouping("random", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<SelectorGroupingStage>(
          "random",
          std::make_unique<clustering::RandomKSelector>(config.grouping.k_min,
                                                        config.grouping.k_max),
          config);
    });
    r.register_grouping("silhouette", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<SelectorGroupingStage>(
          "silhouette",
          std::make_unique<clustering::SilhouetteSweepSelector>(
              config.grouping.k_min, config.grouping.k_max),
          config);
    });

    r.register_demand("joint", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<JointDemandStage>(config);
    });
    r.register_demand("last_value", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<PerMemberDemandStage>(
          "last_value", std::make_unique<predict::LastValuePredictor>(), config);
    });
    r.register_demand("ewma", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<PerMemberDemandStage>(
          "ewma", std::make_unique<predict::EwmaPredictor>(), config);
    });
    r.register_demand("linear_trend", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<PerMemberDemandStage>(
          "linear_trend", std::make_unique<predict::LinearTrendPredictor>(),
          config);
    });
    r.register_demand("mean", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<PerMemberDemandStage>(
          "mean", std::make_unique<predict::MeanPredictor>(), config);
    });
    return r;
  }();
  return registry;
}

void StageRegistry::register_feature(const std::string& key, FeatureFactory factory) {
  impl_->add(impl_->feature, "feature", key, std::move(factory));
}
void StageRegistry::register_grouping(const std::string& key, GroupingFactory factory) {
  impl_->add(impl_->grouping, "grouping", key, std::move(factory));
}
void StageRegistry::register_demand(const std::string& key, DemandFactory factory) {
  impl_->add(impl_->demand, "demand", key, std::move(factory));
}

bool StageRegistry::has_feature(const std::string& key) const {
  const std::scoped_lock lock(impl_->mutex);
  return impl_->feature.count(key) > 0;
}
bool StageRegistry::has_grouping(const std::string& key) const {
  const std::scoped_lock lock(impl_->mutex);
  return impl_->grouping.count(key) > 0;
}
bool StageRegistry::has_demand(const std::string& key) const {
  const std::scoped_lock lock(impl_->mutex);
  return impl_->demand.count(key) > 0;
}

std::unique_ptr<FeatureStage> StageRegistry::make_feature(const std::string& key,
                                                          const SchemeConfig& config,
                                                          util::Rng& rng) const {
  return impl_->find(impl_->feature, "feature", key)(config, rng);
}
std::unique_ptr<GroupingStage> StageRegistry::make_grouping(const std::string& key,
                                                            const SchemeConfig& config,
                                                            util::Rng& rng) const {
  return impl_->find(impl_->grouping, "grouping", key)(config, rng);
}
std::unique_ptr<DemandStage> StageRegistry::make_demand(const std::string& key,
                                                        const SchemeConfig& config,
                                                        util::Rng& rng) const {
  return impl_->find(impl_->demand, "demand", key)(config, rng);
}

std::vector<std::string> StageRegistry::feature_keys() const {
  const std::scoped_lock lock(impl_->mutex);
  return Impl::keys_of(impl_->feature);
}
std::vector<std::string> StageRegistry::grouping_keys() const {
  const std::scoped_lock lock(impl_->mutex);
  return Impl::keys_of(impl_->grouping);
}
std::vector<std::string> StageRegistry::demand_keys() const {
  const std::scoped_lock lock(impl_->mutex);
  return Impl::keys_of(impl_->demand);
}

// ----------------------------------------------------------- key resolution

std::string feature_stage_key(const SchemeConfig& config) {
  DTMSV_EXPECTS_MSG(!config.feature_stage.empty(),
                    "SchemeConfig::feature_stage must name a registry key");
  return config.feature_stage;
}

std::string grouping_stage_key(const SchemeConfig& config) {
  DTMSV_EXPECTS_MSG(!config.grouping_stage.empty(),
                    "SchemeConfig::grouping_stage must name a registry key");
  return config.grouping_stage;
}

std::string demand_stage_key(const SchemeConfig& config) {
  DTMSV_EXPECTS_MSG(!config.demand_stage.empty(),
                    "SchemeConfig::demand_stage must name a registry key");
  return config.demand_stage;
}

// ---------------------------------------------------------- prediction pass

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

[[noreturn]] void throw_bad_grouping(const GroupingStage& stage,
                                     const std::string& detail) {
  throw util::RuntimeError("GroupingStage '" + stage.name() + "': " + detail);
}

}  // namespace

PredictionPass predict_groups(const TwinSnapshot& snapshot, FeatureStage& feature,
                              GroupingStage& grouping, DemandStage& demand,
                              util::Rng& cluster_rng, const PredictionInputs& inputs) {
  const SchemeConfig& config = inputs.config;
  PredictionPass pass;

  const double t_feature0 = wall_s();
  const FeatureOutput features = feature.extract(snapshot);
  pass.reconstruction_loss = features.reconstruction_loss;
  const double t_grouping0 = wall_s();
  pass.feature_s = t_grouping0 - t_feature0;

  const GroupingOutcome outcome = grouping.group(features.points, cluster_rng);
  pass.k = outcome.k;
  pass.silhouette = outcome.silhouette;
  pass.epsilon = outcome.epsilon;
  const double t_demand0 = wall_s();
  pass.grouping_s = t_demand0 - t_grouping0;

  // Bucket users in one pass; visiting them in ascending order keeps every
  // member list, and so every group aggregate, in ascending user order. A
  // malformed assignment would drop users or index past the buckets.
  const std::size_t users = snapshot.twins->user_count();
  if (outcome.assignment.size() != users) {
    throw_bad_grouping(grouping, "assignment has " +
                                     std::to_string(outcome.assignment.size()) +
                                     " entries for " + std::to_string(users) +
                                     " users");
  }
  std::vector<std::vector<std::size_t>> buckets(outcome.k);
  for (std::size_t u = 0; u < users; ++u) {
    const std::size_t g = outcome.assignment[u];
    if (g >= outcome.k) {
      throw_bad_grouping(grouping, "user " + std::to_string(u) +
                                       " assigned to cluster " + std::to_string(g) +
                                       ", outside [0, " +
                                       std::to_string(outcome.k) + ")");
    }
    buckets[g].push_back(u);
  }

  const analysis::PopularityRanking ranking = inputs.popularity.rank(inputs.catalog);
  pass.groups.reserve(outcome.k);
  const twin::TwinColumnStore& twins = *snapshot.twins;
  for (std::size_t g = 0; g < outcome.k; ++g) {
    if (buckets[g].empty()) {
      continue;  // K-means re-seeding should prevent this, but stay safe
    }
    GroupPrediction& group = pass.groups.emplace_back();
    group.cluster = g;
    group.members = std::move(buckets[g]);

    group.swiping = analysis::build_group_swiping(
        twins, group.members, snapshot.now, config.feature_window_s,
        config.swiping_bins, config.swiping_forgetting);
    group.preference = analysis::aggregate_group_preference(twins, group.members);
    group.recommendation = analysis::recommend(inputs.catalog, ranking, group.preference,
                                               config.recommender);

    GroupDemandContext context;
    context.twins = &twins;
    context.members = group.members;
    context.preference = &group.preference;
    context.swiping = &group.swiping;
    context.playlist_per_category = &group.recommendation.per_category_counts;
    context.content = &inputs.content;
    context.now = snapshot.now;
    group.forecast = demand.predict(context);
  }
  pass.demand_s = wall_s() - t_demand0;
  return pass;
}

}  // namespace dtmsv::core
