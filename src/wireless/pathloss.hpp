// Large-scale propagation: log-distance path loss with log-normal shadowing,
// the standard 3GPP-style urban model, standing in for the authors' campus
// measurements.
#pragma once

#include "mobility/campus_map.hpp"
#include "util/rng.hpp"

namespace dtmsv::wireless {

/// Log-distance path loss: PL(d) = pl_ref_db + 10·n·log10(max(d, d_ref)/d_ref).
struct PathLossModel {
  double pl_ref_db = 38.0;     // loss at the reference distance (2.6 GHz urban)
  double reference_m = 1.0;    // reference distance
  double exponent = 3.2;       // urban campus with buildings

  /// Path loss in dB at distance `d_m` metres (>= 0; clamped to d_ref).
  double loss_db(double d_m) const;
};

/// Temporally correlated log-normal shadowing per (user, BS) link.
///
/// Gudmundson-style: the shadowing process decorrelates over distance; with
/// pedestrian speeds we model it as an AR(1) process in time whose
/// correlation over one step is exp(-v·dt/d_corr).
class ShadowingProcess {
 public:
  /// `sigma_db`: shadowing standard deviation; `decorrelation_m`: distance
  /// over which correlation falls to 1/e.
  ShadowingProcess(double sigma_db, double decorrelation_m, util::Rng rng);

  /// Advances the process given metres moved since the last step and
  /// returns the new shadowing value in dB.
  double step(double moved_m);

  double current_db() const { return value_db_; }
  double sigma_db() const { return sigma_db_; }

 private:
  double sigma_db_;
  double decorrelation_m_;
  util::Rng rng_;
  double value_db_;
};

}  // namespace dtmsv::wireless
