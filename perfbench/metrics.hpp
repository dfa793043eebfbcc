// Sample statistics with the benchmark's reporting rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported percentile.
inline constexpr double kTailSamples = 10.0;

/// Nearest-rank percentile q (0 < q < 100) of `samples`, reported only when
/// at least kTailSamples samples lie beyond it: p50 needs 20 samples, p95
/// needs 200. Below that the percentile would be one of the last few
/// samples and would not repeat, so it is withheld (nullopt).
inline std::optional<double> percentile(std::vector<double> samples, double q) {
  const double n = static_cast<double>(samples.size());
  if (n * (100.0 - q) / 100.0 < kTailSamples - 1e-9) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return samples[rank == 0 ? 0 : rank - 1];
}

/// Median (nearest rank, lower middle) of any non-empty sample.
inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[(samples.size() - 1) / 2];
}

}  // namespace perfbench
