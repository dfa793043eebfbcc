// Observation records stored in a user digital twin's columnar
// TwinColumnStore: channel condition, finished views, and the
// normalisation constants feature extraction applies.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/error.hpp"
#include "video/catalog.hpp"

namespace dtmsv::twin {

/// Channel observation stored in the twin.
struct ChannelObservation {
  double snr_db = 0.0;
  double efficiency_bps_hz = 0.0;
  std::size_t serving_bs = 0;

  friend bool operator==(const ChannelObservation&, const ChannelObservation&) = default;
};

/// Watch observation: one finished view.
struct WatchObservation {
  std::uint64_t video_id = 0;
  video::Category category = video::Category::kNews;
  double duration_s = 0.0;
  double watch_seconds = 0.0;
  double watch_fraction = 0.0;
  bool completed = false;

  friend bool operator==(const WatchObservation&, const WatchObservation&) = default;
};

/// Normalisation constants for feature extraction (so embeddings are
/// scale-free regardless of campus size or SNR range).
struct FeatureScaling {
  double pos_x_scale = 1200.0;  // campus width in metres
  double pos_y_scale = 1000.0;  // campus height
  double snr_offset_db = 10.0;  // maps snr -10 dB -> 0
  double snr_scale_db = 40.0;   // maps snr  30 dB -> 1

  friend bool operator==(const FeatureScaling&, const FeatureScaling&) = default;
};

/// Throws util::PreconditionError unless every scale is positive (a zero
/// scale would divide features into inf/NaN).
inline void validate(const FeatureScaling& scaling) {
  DTMSV_EXPECTS_MSG(scaling.pos_x_scale > 0.0 && scaling.pos_y_scale > 0.0 &&
                        scaling.snr_scale_db > 0.0,
                    "FeatureScaling: pos_x_scale, pos_y_scale and snr_scale_db "
                    "must be positive");
}

}  // namespace dtmsv::twin
