// Multi-cell fleet: shards a large user population across N cells, each an
// independent core::Simulation (own RNG streams, own campus instance, own
// twin store and learning state — the paper's per-cell DT pipeline by
// construction), and runs the per-interval pipelines concurrently on the
// util::parallel thread pool.
//
// Report plumbing is streaming: each shard's pipeline delivers its interval
// through a per-shard ReportSink accumulator, so the fleet aggregates
// without materializing per-shard EpochReport vectors. An optional caller
// sink observes every shard's stream (and churn handovers), delivered in
// fixed shard order after the parallel phase.
//
// Determinism: every shard consumes only its own forked streams, the pool
// hands workers disjoint shard ranges, nested parallel_for calls issued by
// a shard's numeric core run inline on that worker, and aggregation walks
// shards in fixed index order — so the fleet report is bit-identical for
// any DTMSV_THREADS value.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/simulation.hpp"
#include "util/stats.hpp"

namespace dtmsv::core {

/// Multi-cell deployment configuration.
struct FleetConfig {
  /// Per-cell scheme template. `base.seed` and `base.user_count` are
  /// overridden per shard; everything else applies to every cell.
  SchemeConfig base{};
  std::size_t cell_count = 4;
  /// Users sharded near-evenly across the cells (cell c gets
  /// total/N users, the first total%N cells one extra).
  std::size_t total_users = 480;
  /// Fleet master seed; each shard's Simulation seed derives from it.
  std::uint64_t seed = 42;
};

/// Validates a fleet configuration (cell_count > 0, at least one user per
/// cell, valid per-cell base scheme), throwing util::PreconditionError on
/// invalid values. Called by the SimulationFleet constructor.
void validate(const FleetConfig& config);

/// Compact per-shard slice of a fleet interval (the scalars the aggregate
/// and the observability consumers need — not the full EpochReport).
struct ShardSummary {
  std::size_t cell = 0;   // owning cell of this shard
  std::size_t users = 0;  // live users in the shard
  bool grouped = false;
  bool has_prediction = false;
  std::size_t k = 0;        // grouping chosen for the next interval
  double silhouette = 0.0;  // of that grouping
  double predicted_radio_hz_total = 0.0;
  double actual_radio_hz_total = 0.0;
  double predicted_compute_total = 0.0;
  double actual_compute_total = 0.0;
  double unicast_radio_hz_total = 0.0;
  double radio_error = 0.0;
  double compute_error = 0.0;
};

/// One interval's outcome across every shard of the fleet. A "shard" is one
/// Simulation instance: the initial cells, plus any surge shards added
/// mid-run (a surge shard is co-located with an existing cell and its
/// demand aggregates into that cell).
struct FleetReport {
  util::IntervalId interval = 0;
  std::size_t cell_count = 0;
  std::size_t user_count = 0;      // live users across all shards
  std::size_t grouped_shards = 0;  // shards past warm-up this interval
  std::vector<ShardSummary> shards;  // per-shard summaries, fixed order

  double predicted_radio_hz_total = 0.0;
  double actual_radio_hz_total = 0.0;
  double predicted_compute_total = 0.0;
  double actual_compute_total = 0.0;
  double unicast_radio_hz_total = 0.0;
  /// |pred − actual| / actual on the fleet totals (0 when undefined).
  double radio_error = 0.0;
  double compute_error = 0.0;

  /// Distribution of per-shard interval errors (shards with predictions).
  util::RunningStats shard_radio_error;
  util::RunningStats shard_compute_error;
  /// Distribution of per-group radio errors across the whole fleet, merged
  /// from the per-shard accumulators filled in the parallel phase.
  util::RunningStats group_radio_error;
};

/// N independent cells advanced in lock-step, one reservation interval at
/// a time, plus the scenario hooks (flash-crowd surge, inter-cell churn)
/// the scenario library drives.
class SimulationFleet {
 public:
  explicit SimulationFleet(const FleetConfig& config);

  /// Advances every shard one reservation interval (concurrently) and
  /// returns the aggregated fleet report. When `sink` is non-null it
  /// observes every shard's group/interval stream, replayed in fixed shard
  /// order after the parallel phase (deterministic for any thread count);
  /// interval reports arrive with empty `groups` per the ReportSink
  /// contract.
  FleetReport run_interval(ReportSink* sink = nullptr);

  /// Runs `n` intervals, returning all fleet reports.
  std::vector<FleetReport> run(std::size_t n);

  /// Flash crowd: `users` fresh arrivals surge into `cell`, modeled as a
  /// co-located shard that starts its own warm-up mid-run (newcomers have
  /// no twin history, so their pipeline must warm up like any cold cell).
  void add_surge_shard(std::size_t cell, std::size_t users);

  /// Mobility churn: hands over roughly `fraction` of the population
  /// between random cell pairs. Each handover swaps the ground-truth
  /// affinities of one slot in each of two distinct shards and resets both
  /// slots' twins, walkers and channel state (each BS must re-learn its
  /// newcomer). Returns the number of users handed over; each swap is also
  /// reported to `sink` (when non-null) via on_handover. Deterministic:
  /// pairing is drawn from the fleet's own stream on the calling thread.
  std::size_t churn(double fraction, ReportSink* sink = nullptr);

  // --- observability ---
  const FleetConfig& config() const { return config_; }
  std::size_t cell_count() const { return config_.cell_count; }
  std::size_t shard_count() const { return shards_.size(); }
  /// Live user total across all shards (grows when surges arrive).
  std::size_t user_count() const;
  Simulation& shard(std::size_t i);
  const Simulation& shard(std::size_t i) const;
  std::size_t shard_cell(std::size_t i) const;
  util::IntervalId interval() const { return interval_; }

 private:
  struct Shard {
    std::size_t cell = 0;
    std::unique_ptr<Simulation> sim;
  };

  void add_shard(std::size_t cell, std::size_t users);

  FleetConfig config_;
  util::Rng churn_rng_;
  std::uint64_t shard_seq_ = 0;  // shard creation counter -> shard seeds
  std::vector<Shard> shards_;
  util::IntervalId interval_ = 0;
};

}  // namespace dtmsv::core
