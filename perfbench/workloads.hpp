// The benchmark's workloads. Each is a closed loop with a single caller that
// drives one system under test through public library APIs only, timing the
// calls from outside. One episode constructs the system, runs a fixed number
// of reservation intervals and checks every output; a run repeats episodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Episode {
  double setup_s = 0.0;             // constructing the system under test
  std::vector<double> interval_ms;  // one sample per reservation interval
  std::vector<double> predict_ms;   // serve: the boundary-crossing advance_to
  double simulated_s = 0.0;         // simulated time the timed calls covered
  double timed_s = 0.0;             // wall time of the timed calls
  /// Digest of the outputs: per-group predicted radio/compute demand and K.
  std::uint64_t digest = 0;
  std::optional<double> radio_accuracy;    // batch and fleet
  std::optional<double> compute_accuracy;  // batch and fleet
  std::uint64_t attempted = 0;  // twin reports offered + predictions fired
  std::uint64_t failed = 0;     // reports shed/rejected + bad predictions
  std::vector<std::string> errors;  // failed output checks

  std::uint64_t ingest_events = 0;  // twin reports recorded into the store
  std::uint64_t queue_peak = 0;     // serve: deepest ingestion queue
  std::uint64_t handovers = 0;      // fleet: users handed over by churn
  std::uint64_t deadline_misses = 0;  // serve: the loop's own counter
};

struct Workload {
  std::string name;
  std::string why;
  /// Thread-pool size, part of the workload (0 = one per hardware thread).
  std::size_t pool = 1;
  /// Runs one episode. `traced` selects the decorated stage keys and opens
  /// the interval, ingest and churn spans.
  std::function<Episode(std::uint64_t seed, bool traced)> run_episode;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

}  // namespace perfbench
