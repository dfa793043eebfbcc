// Columnar twin storage: per-attribute SoA ring buffers sized by a
// retention horizon.
//
// Each attribute holds ONE contiguous time column and one contiguous column
// per value field, spanning all users with a shared per-user stride: user
// u's slots live at [u*capacity, (u+1)*capacity), managed as a ring (head +
// size, oldest first). Extraction kernels scan plain arrays; reset_user is
// slot recycling (ring emptied, nothing freed) instead of object
// replacement.
//
// Retention is a time horizon, not a slot count: a new sample at time t
// overwrites the oldest one only when that one is older than
// t - retention_s. When a ring is full of in-horizon samples the whole lane
// doubles its stride instead (every user's ring is linearised, every value
// lane moved by one relayout), so capacity follows the busiest user's
// report rate and a window reaching back at most retention_s from a user's
// newest sample is never truncated. Lanes start at kInitialSlots per user. A store built with an
// infinite horizon never evicts. Growth reallocates the lanes, so a
// physical slot or a lane pointer is valid only until the next record().
//
// Consumers read one user's ring through for_each_in_window (the one
// half-open [from, to) time filter; a binary search to `from`, since each
// user's times are non-decreasing) plus the flat value lanes, or through
// size/time/get for single samples. The eviction-truncation contract: a
// window whose `from` predates the evicted range says so
// (truncated_before) instead of silently reading a shorter window.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "behavior/preference.hpp"
#include "mobility/campus_map.hpp"
#include "twin/observations.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace dtmsv::twin {

/// Retention horizon of a store that never evicts.
inline constexpr double kKeepAll = std::numeric_limits<double>::infinity();

/// Ring bookkeeping shared by every attribute column: the time column, the
/// per-user {head, size} ring state, the eviction metadata backing the
/// truncation contract, and lane growth. Value lanes live in the derived
/// classes, which hand them to push_slot for relayout.
class RingColumnBase {
 public:
  /// Per-user slots of a fresh lane.
  static constexpr std::size_t kInitialSlots = 4;

  RingColumnBase(std::size_t user_count, double retention_s)
      : retention_s_(retention_s),
        rings_(user_count),
        times_(user_count * kInitialSlots, 0.0),
        last_evicted_(user_count, 0.0),
        evicted_(user_count, 0) {
    DTMSV_EXPECTS_MSG(retention_s > 0.0, "twin column: retention_s must be > 0");
  }

  std::size_t user_count() const { return rings_.size(); }
  /// Per-user slots of every lane (grows, never shrinks).
  std::size_t capacity() const { return capacity_; }
  double retention_s() const { return retention_s_; }
  std::size_t size(std::size_t u) const { return rings_[u].size; }
  bool empty(std::size_t u) const { return rings_[u].size == 0; }

  /// Timestamp of user `u`'s i-th retained sample (0 = oldest).
  util::SimTime time(std::size_t u, std::size_t i) const {
    return times_[slot(u, i)];
  }

  /// Physical slot of user `u`'s i-th retained sample (i < size(u)).
  std::size_t slot(std::size_t u, std::size_t i) const {
    DTMSV_EXPECTS(i < rings_[u].size);
    return physical(u, i);
  }

  /// True when eviction dropped a sample of `u` with time >= from.
  bool truncated_before(std::size_t u, util::SimTime from) const {
    return evicted_[u] != 0 && last_evicted_[u] >= from;
  }

  /// Calls fn(physical_slot) over user `u`'s samples with time in
  /// [from, to), oldest first.
  template <typename Fn>
  void for_each_in_window(std::size_t u, util::SimTime from, util::SimTime to,
                          Fn&& fn) const {
    DTMSV_EXPECTS(from <= to);
    // Times are non-decreasing within the ring: binary-search the first
    // sample at or after `from`, then stop at the first one at `to`.
    const Ring& r = rings_[u];
    std::size_t i = 0;
    std::size_t hi = r.size;
    while (i < hi) {
      const std::size_t mid = i + (hi - i) / 2;
      if (times_[physical(u, mid)] < from) {
        i = mid + 1;
      } else {
        hi = mid;
      }
    }
    // The rest of the ring as two contiguous runs (no per-sample wrap).
    const std::size_t head = u * capacity_ + r.head;
    const std::size_t before_wrap = std::min<std::size_t>(r.size, capacity_ - r.head);
    for (; i < before_wrap; ++i) {
      if (times_[head + i] >= to) {
        return;
      }
      fn(head + i);
    }
    for (; i < r.size; ++i) {
      const std::size_t at = head + i - capacity_;
      if (times_[at] >= to) {
        return;
      }
      fn(at);
    }
  }

  /// Recycles user `u`'s slots: empty ring, truncation metadata cleared.
  /// O(1) — nothing is deallocated or overwritten.
  void clear_user(std::size_t u) {
    rings_[u] = Ring{};
    last_evicted_[u] = 0.0;
    evicted_[u] = 0;
  }

  const std::vector<double>& times() const { return times_; }

 protected:
  /// Claims the write slot for a new sample of `u` at `t` (non-decreasing
  /// within the user). A full ring overwrites its oldest sample when that
  /// one is out of the horizon; otherwise the lane doubles:
  /// `value_lanes(relayout)` must call relayout(lane) on every value lane
  /// of the derived column.
  template <typename ValueLanes>
  std::size_t push_slot(std::size_t u, util::SimTime t, ValueLanes&& value_lanes) {
    Ring& r = rings_[u];
    DTMSV_EXPECTS_MSG(!std::isnan(t) && (r.size == 0 || t >= times_[physical(u, r.size - 1)]),
                      "twin column: timestamps must be non-decreasing");
    if (r.size == capacity_) {
      const std::size_t oldest = u * capacity_ + r.head;
      if (times_[oldest] < t - retention_s_) {
        last_evicted_[u] = times_[oldest];
        evicted_[u] = 1;
        r.head = r.head + 1 == capacity_ ? 0 : r.head + 1;
        times_[oldest] = t;
        return oldest;
      }
      grow(value_lanes);
    }
    const std::size_t at = physical(u, r.size);
    ++r.size;
    times_[at] = t;
    return at;
  }

 private:
  struct Ring {
    std::uint32_t head = 0;
    std::uint32_t size = 0;
  };

  /// Doubles every lane's stride, linearising each user's ring so its
  /// oldest sample lands at the user's first slot.
  template <typename ValueLanes>
  void grow(ValueLanes& value_lanes) {
    const std::size_t from = capacity_;
    const std::size_t to = 2 * from;
    const auto relayout = [&](auto& lane) {
      std::remove_reference_t<decltype(lane)> out(rings_.size() * to);
      for (std::size_t u = 0; u < rings_.size(); ++u) {
        const Ring& r = rings_[u];
        const auto* src = lane.data() + u * from;
        auto* dst = out.data() + u * to;
        const std::size_t first = std::min<std::size_t>(r.size, from - r.head);
        std::copy_n(src + r.head, first, dst);
        std::copy_n(src, r.size - first, dst + first);
      }
      lane.swap(out);
    };
    relayout(times_);
    value_lanes(relayout);
    for (Ring& ring : rings_) {
      ring.head = 0;
    }
    capacity_ = to;
  }

  /// Physical slot of ring position `i` of user `u` (no bounds check).
  std::size_t physical(std::size_t u, std::size_t i) const {
    const std::size_t at = rings_[u].head + i;
    return u * capacity_ + (at < capacity_ ? at : at - capacity_);
  }

  double retention_s_;
  std::size_t capacity_ = kInitialSlots;
  std::vector<Ring> rings_;
  std::vector<double> times_;
  std::vector<double> last_evicted_;
  std::vector<std::uint8_t> evicted_;
};

/// Channel condition column: snr / spectral efficiency / serving BS.
class ChannelColumn : public RingColumnBase {
 public:
  using value_type = ChannelObservation;

  ChannelColumn(std::size_t user_count, double retention_s)
      : RingColumnBase(user_count, retention_s),
        snr_(user_count * kInitialSlots, 0.0),
        efficiency_(user_count * kInitialSlots, 0.0),
        serving_bs_(user_count * kInitialSlots, 0) {}

  void record(std::size_t u, util::SimTime t, const ChannelObservation& obs) {
    const std::size_t at = push_slot(u, t, [this](const auto& relayout) {
      relayout(snr_);
      relayout(efficiency_);
      relayout(serving_bs_);
    });
    snr_[at] = obs.snr_db;
    efficiency_[at] = obs.efficiency_bps_hz;
    serving_bs_[at] = static_cast<std::uint32_t>(obs.serving_bs);
  }

  value_type get(std::size_t u, std::size_t i) const {
    const std::size_t at = slot(u, i);
    return {snr_[at], efficiency_[at], serving_bs_[at]};
  }

  const std::vector<double>& snr() const { return snr_; }
  const std::vector<double>& efficiency() const { return efficiency_; }

 private:
  std::vector<double> snr_;
  std::vector<double> efficiency_;
  std::vector<std::uint32_t> serving_bs_;
};

/// Location column: campus position reports.
class LocationColumn : public RingColumnBase {
 public:
  using value_type = mobility::Position;

  LocationColumn(std::size_t user_count, double retention_s)
      : RingColumnBase(user_count, retention_s),
        x_(user_count * kInitialSlots, 0.0),
        y_(user_count * kInitialSlots, 0.0) {}

  void record(std::size_t u, util::SimTime t, const mobility::Position& pos) {
    const std::size_t at = push_slot(u, t, [this](const auto& relayout) {
      relayout(x_);
      relayout(y_);
    });
    x_[at] = pos.x;
    y_[at] = pos.y;
  }

  value_type get(std::size_t u, std::size_t i) const {
    const std::size_t at = slot(u, i);
    return {x_[at], y_[at]};
  }

  const std::vector<double>& x() const { return x_; }
  const std::vector<double>& y() const { return y_; }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
};

/// Watch-event column: one finished view per sample.
class WatchColumn : public RingColumnBase {
 public:
  using value_type = WatchObservation;

  WatchColumn(std::size_t user_count, double retention_s)
      : RingColumnBase(user_count, retention_s),
        video_id_(user_count * kInitialSlots, 0),
        category_(user_count * kInitialSlots, 0),
        duration_(user_count * kInitialSlots, 0.0),
        watch_seconds_(user_count * kInitialSlots, 0.0),
        watch_fraction_(user_count * kInitialSlots, 0.0),
        completed_(user_count * kInitialSlots, 0) {}

  void record(std::size_t u, util::SimTime t, const WatchObservation& obs) {
    const std::size_t at = push_slot(u, t, [this](const auto& relayout) {
      relayout(video_id_);
      relayout(category_);
      relayout(duration_);
      relayout(watch_seconds_);
      relayout(watch_fraction_);
      relayout(completed_);
    });
    video_id_[at] = obs.video_id;
    category_[at] = static_cast<std::uint8_t>(obs.category);
    duration_[at] = obs.duration_s;
    watch_seconds_[at] = obs.watch_seconds;
    watch_fraction_[at] = obs.watch_fraction;
    completed_[at] = obs.completed ? 1 : 0;
  }

  value_type get(std::size_t u, std::size_t i) const {
    const std::size_t at = slot(u, i);
    WatchObservation obs;
    obs.video_id = video_id_[at];
    obs.category = static_cast<video::Category>(category_[at]);
    obs.duration_s = duration_[at];
    obs.watch_seconds = watch_seconds_[at];
    obs.watch_fraction = watch_fraction_[at];
    obs.completed = completed_[at] != 0;
    return obs;
  }

  /// video::Category per slot, stored as its underlying byte.
  const std::vector<std::uint8_t>& category() const { return category_; }
  const std::vector<double>& watch_fraction() const { return watch_fraction_; }

 private:
  std::vector<std::uint64_t> video_id_;
  std::vector<std::uint8_t> category_;
  std::vector<double> duration_;
  std::vector<double> watch_seconds_;
  std::vector<double> watch_fraction_;
  std::vector<std::uint8_t> completed_;
};

/// Preference-snapshot column: one contiguous lane per category, so the
/// per-category feature channels stream straight through a double array.
class PreferenceColumn : public RingColumnBase {
 public:
  using value_type = behavior::PreferenceVector;

  PreferenceColumn(std::size_t user_count, double retention_s)
      : RingColumnBase(user_count, retention_s) {
    for (auto& lane : weights_) {
      lane.assign(user_count * kInitialSlots, 0.0);
    }
  }

  void record(std::size_t u, util::SimTime t, const behavior::PreferenceVector& v) {
    const std::size_t at = push_slot(u, t, [this](const auto& relayout) {
      for (auto& lane : weights_) {
        relayout(lane);
      }
    });
    for (std::size_t c = 0; c < v.size(); ++c) {
      weights_[c][at] = v[c];
    }
  }

  value_type get(std::size_t u, std::size_t i) const {
    const std::size_t at = slot(u, i);
    behavior::PreferenceVector v{};
    for (std::size_t c = 0; c < v.size(); ++c) {
      v[c] = weights_[c][at];
    }
    return v;
  }

  const std::vector<double>& lane(std::size_t category) const {
    return weights_[category];
  }

 private:
  std::array<std::vector<double>, video::kCategoryCount> weights_;
};

}  // namespace dtmsv::twin
