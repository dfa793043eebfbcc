#include "twin/column_store.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace dtmsv::twin {

namespace {

/// Populations smaller than this extract inline; larger ones split across
/// the pool (each row is written by exactly one worker, so the bytes are
/// identical for any DTMSV_THREADS).
constexpr std::size_t kExtractGrain = 8;

/// The spec check shared by both batch paths and their single-row forms.
void validate_spec(double window_s, const FeatureScaling& scaling) {
  DTMSV_EXPECTS(window_s > 0.0);
  validate(scaling);
}

void validate_window_spec(const WindowSpec& spec) {
  validate_spec(spec.window_s, spec.scaling);
  DTMSV_EXPECTS(spec.timesteps > 0);
}

/// The seed's per-channel resample: bin means over [from, now) with
/// zero-order hold through empty bins (zeros before the first sample).
/// Sums were accumulated oldest-first, so the division and hold chain
/// reproduce the AttributeSeries-era floats bit for bit.
void hold_write(float* out, std::size_t channel, std::size_t bins,
                const double* sums, const std::size_t* counts) {
  float hold = 0.0f;
  for (std::size_t b = 0; b < bins; ++b) {
    if (counts[b] > 0) {
      hold = static_cast<float>(sums[b] / static_cast<double>(counts[b]));
    }
    out[channel * bins + b] = hold;
  }
}

}  // namespace

struct TwinColumnStore::RowScratch {
  std::vector<double> sums;         // up to kCategoryCount lanes x bins
  std::vector<std::size_t> counts;  // one count lane (shared per attribute)

  void reset(std::size_t lanes, std::size_t bins) {
    sums.assign(lanes * bins, 0.0);
    counts.assign(bins, 0);
  }
};

TwinColumnStore::TwinColumnStore(std::size_t user_count, double retention_s)
    : channel_(user_count, retention_s),
      location_(user_count, retention_s),
      watch_(user_count, retention_s),
      preference_(user_count, retention_s),
      estimators_(user_count) {
  DTMSV_EXPECTS(user_count > 0);
}

void TwinColumnStore::record_channel(std::size_t u, util::SimTime t,
                                     const ChannelObservation& obs) {
  DTMSV_EXPECTS(u < user_count());
  channel_.record(u, t, obs);
}

void TwinColumnStore::record_location(std::size_t u, util::SimTime t,
                                      const mobility::Position& pos) {
  DTMSV_EXPECTS(u < user_count());
  location_.record(u, t, pos);
}

void TwinColumnStore::record_watch(std::size_t u, util::SimTime t,
                                   const WatchObservation& obs) {
  DTMSV_EXPECTS(u < user_count());
  estimators_[u].observe(obs.category, obs.watch_seconds);
  watch_.record(u, t, obs);
}

void TwinColumnStore::record_preference(std::size_t u, util::SimTime t,
                                        const behavior::PreferenceVector& estimate) {
  DTMSV_EXPECTS(u < user_count());
  preference_.record(u, t, estimate);
}

void TwinColumnStore::decay_preference(std::size_t u) {
  DTMSV_EXPECTS(u < user_count());
  estimators_[u].decay();
}

void TwinColumnStore::decay_preferences() {
  for (behavior::PreferenceEstimator& estimator : estimators_) {
    estimator.decay();
  }
}

behavior::PreferenceVector TwinColumnStore::latest_preference(std::size_t u) const {
  DTMSV_EXPECTS(u < user_count());
  return preference_.empty(u) ? estimators_[u].estimate()
                              : preference_.get(u, preference_.size(u) - 1);
}

void TwinColumnStore::reset_user(std::size_t u) {
  DTMSV_EXPECTS(u < user_count());
  channel_.clear_user(u);
  location_.clear_user(u);
  watch_.clear_user(u);
  preference_.clear_user(u);
  estimators_[u] = behavior::PreferenceEstimator{};
}

void TwinColumnStore::extract_window_row(std::size_t u, const WindowSpec& spec,
                                         float* out, RowScratch& scratch) const {
  const std::size_t bins = spec.timesteps;
  const util::SimTime from = spec.now - spec.window_s;
  const double bin_width = (spec.now - from) / static_cast<double>(bins);
  const FeatureScaling& scaling = spec.scaling;

  const auto bin_of = [&](double t) {
    auto b = static_cast<std::size_t>((t - from) / bin_width);
    return std::min(b, bins - 1);
  };

  // Channels 0 (normalised SNR) and 1 (efficiency/6) from the channel
  // column, one fused pass over the time lane.
  scratch.reset(2, bins);
  {
    double* sums_snr = scratch.sums.data();
    double* sums_eff = scratch.sums.data() + bins;
    const std::vector<double>& times = channel_.times();
    const std::vector<double>& snr = channel_.snr();
    const std::vector<double>& eff = channel_.efficiency();
    channel_.for_each_in_window(u, from, spec.now, [&](std::size_t at) {
      const std::size_t b = bin_of(times[at]);
      sums_snr[b] +=
          std::clamp((snr[at] + scaling.snr_offset_db) / scaling.snr_scale_db, 0.0, 1.5);
      sums_eff[b] += std::clamp(eff[at] / 6.0, 0.0, 1.0);
      ++scratch.counts[b];
    });
    hold_write(out, 0, bins, sums_snr, scratch.counts.data());
    hold_write(out, 1, bins, sums_eff, scratch.counts.data());
  }

  // Channels 2/3: normalised position.
  scratch.reset(2, bins);
  {
    double* sums_x = scratch.sums.data();
    double* sums_y = scratch.sums.data() + bins;
    const std::vector<double>& times = location_.times();
    const std::vector<double>& xs = location_.x();
    const std::vector<double>& ys = location_.y();
    location_.for_each_in_window(u, from, spec.now, [&](std::size_t at) {
      const std::size_t b = bin_of(times[at]);
      sums_x[b] += std::clamp(xs[at] / scaling.pos_x_scale, 0.0, 1.0);
      sums_y[b] += std::clamp(ys[at] / scaling.pos_y_scale, 0.0, 1.0);
      ++scratch.counts[b];
    });
    hold_write(out, 2, bins, sums_x, scratch.counts.data());
    hold_write(out, 3, bins, sums_y, scratch.counts.data());
  }

  // Channel 4: mean watch fraction.
  scratch.reset(1, bins);
  {
    const std::vector<double>& times = watch_.times();
    const std::vector<double>& frac = watch_.watch_fraction();
    watch_.for_each_in_window(u, from, spec.now, [&](std::size_t at) {
      const std::size_t b = bin_of(times[at]);
      scratch.sums[b] += std::clamp(frac[at], 0.0, 1.0);
      ++scratch.counts[b];
    });
    hold_write(out, 4, bins, scratch.sums.data(), scratch.counts.data());
  }

  // Channels 5..: preference weight per category (the per-category lanes
  // are contiguous, so this is kCategoryCount strided sums in one pass).
  scratch.reset(video::kCategoryCount, bins);
  {
    const std::vector<double>& times = preference_.times();
    preference_.for_each_in_window(u, from, spec.now, [&](std::size_t at) {
      const std::size_t b = bin_of(times[at]);
      for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
        scratch.sums[c * bins + b] += preference_.lane(c)[at];
      }
      ++scratch.counts[b];
    });
    for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
      hold_write(out, 5 + c, bins, scratch.sums.data() + c * bins,
                 scratch.counts.data());
    }
  }
}

void TwinColumnStore::extract_window_row(std::size_t u, const WindowSpec& spec,
                                         float* out) const {
  DTMSV_EXPECTS(u < user_count());
  validate_window_spec(spec);
  RowScratch scratch;
  extract_window_row(u, spec, out, scratch);
}

void TwinColumnStore::extract_summary_row(std::size_t u, const SummarySpec& spec,
                                          double* out) const {
  DTMSV_EXPECTS(u < user_count());
  validate_spec(spec.window_s, spec.scaling);
  const util::SimTime from = spec.now - spec.window_s;

  util::RunningStats snr;
  const std::vector<double>& snrs = channel_.snr();
  channel_.for_each_in_window(u, from, spec.now,
                              [&](std::size_t at) { snr.add(snrs[at]); });
  util::RunningStats x;
  util::RunningStats y;
  const std::vector<double>& xs = location_.x();
  const std::vector<double>& ys = location_.y();
  location_.for_each_in_window(u, from, spec.now, [&](std::size_t at) {
    x.add(xs[at]);
    y.add(ys[at]);
  });
  util::RunningStats frac;
  const std::vector<double>& fracs = watch_.watch_fraction();
  watch_.for_each_in_window(u, from, spec.now,
                            [&](std::size_t at) { frac.add(fracs[at]); });

  const FeatureScaling& scaling = spec.scaling;
  out[0] = snr.empty()
               ? 0.0
               : std::clamp((snr.mean() + scaling.snr_offset_db) / scaling.snr_scale_db,
                            0.0, 1.5);
  out[1] = snr.empty() ? 0.0 : snr.stddev() / scaling.snr_scale_db;
  out[2] = x.empty() ? 0.0 : x.mean() / scaling.pos_x_scale;
  out[3] = y.empty() ? 0.0 : y.mean() / scaling.pos_y_scale;
  out[4] = frac.empty() ? 0.0 : frac.mean();
  out[5] = frac.empty() ? 0.0 : frac.stddev();
  const behavior::PreferenceVector pref = latest_preference(u);
  for (std::size_t c = 0; c < pref.size(); ++c) {
    out[6 + c] = pref[c];
  }
}

WindowBatch TwinColumnStore::feature_windows(const WindowSpec& spec,
                                             FeatureArena& arena) const {
  validate_window_spec(spec);
  const std::size_t users = user_count();
  const std::size_t width = kFeatureChannels * spec.timesteps;
  arena.windows_.resize(users * width);
  float* data = arena.windows_.data();
  util::parallel_for(0, users, kExtractGrain, [&](std::size_t begin, std::size_t end) {
    RowScratch scratch;
    for (std::size_t u = begin; u < end; ++u) {
      extract_window_row(u, spec, data + u * width, scratch);
    }
  });
  arena.window_stats_ = {users, 0};
  return WindowBatch(data, users, width);
}

SummaryBatch TwinColumnStore::summary_features(const SummarySpec& spec,
                                               FeatureArena& arena) const {
  validate_spec(spec.window_s, spec.scaling);
  const std::size_t users = user_count();
  arena.summaries_.resize(users * kSummaryDim);
  double* data = arena.summaries_.data();
  util::parallel_for(0, users, kExtractGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      extract_summary_row(u, spec, data + u * kSummaryDim);
    }
  });
  arena.summary_stats_ = {users, 0};
  return SummaryBatch(data, users, kSummaryDim);
}

}  // namespace dtmsv::twin
