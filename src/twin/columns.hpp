// Columnar twin storage: per-attribute SoA ring buffers.
//
// The seed kept one std::deque of timestamped samples per attribute per
// user: every window scan chased deque blocks and every handover
// reallocated a whole per-user twin object. Here each attribute holds ONE
// contiguous time column and one contiguous column per value field,
// spanning all users with a fixed `capacity` stride: user u's slots live at
// [u*capacity, (u+1)*capacity), managed as a ring (head + size, oldest
// evicted first). Extraction kernels scan plain double arrays; reset_user
// is slot recycling (ring emptied, no allocation, nothing freed) instead of
// object replacement.
//
// Consumers read one user's ring through for_each_in_window (the one
// half-open [from, to) time filter) plus the flat value lanes, or through
// size/time/get for single samples. The eviction-truncation contract: a
// window whose `from` predates the evicted range says so
// (truncated_before) instead of silently reading a shorter window.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "behavior/preference.hpp"
#include "mobility/campus_map.hpp"
#include "twin/observations.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace dtmsv::twin {

/// Ring bookkeeping shared by every attribute column: the time column, the
/// per-user {head, size} ring state, and the eviction metadata backing the
/// truncation contract. Value columns live in the derived classes.
class RingColumnBase {
 public:
  RingColumnBase(std::size_t user_count, std::size_t capacity)
      : capacity_(capacity),
        rings_(user_count),
        times_(user_count * capacity, 0.0),
        last_evicted_(user_count, 0.0),
        evicted_(user_count, 0) {
    DTMSV_EXPECTS(capacity > 0);
  }

  std::size_t user_count() const { return rings_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t size(std::size_t u) const { return rings_[u].size; }
  bool empty(std::size_t u) const { return rings_[u].size == 0; }

  /// Timestamp of user `u`'s i-th retained sample (0 = oldest).
  util::SimTime time(std::size_t u, std::size_t i) const {
    return times_[slot(u, i)];
  }

  /// Physical slot of user `u`'s i-th retained sample (i < size(u)).
  std::size_t slot(std::size_t u, std::size_t i) const {
    const Ring& r = rings_[u];
    DTMSV_EXPECTS(i < r.size);
    return u * capacity_ + (r.head + i) % capacity_;
  }

  /// True when capacity eviction dropped a sample of `u` with time >= from.
  bool truncated_before(std::size_t u, util::SimTime from) const {
    return evicted_[u] != 0 && last_evicted_[u] >= from;
  }

  /// Calls fn(physical_slot) over user `u`'s samples with time in
  /// [from, to), oldest first.
  template <typename Fn>
  void for_each_in_window(std::size_t u, util::SimTime from, util::SimTime to,
                          Fn&& fn) const {
    DTMSV_EXPECTS(from <= to);
    const auto visit = [&](std::size_t begin, std::size_t end) {
      for (std::size_t at = begin; at < end; ++at) {
        if (times_[at] >= from && times_[at] < to) {
          fn(at);
        }
      }
    };
    // The ring as two contiguous segments (no per-sample modulo).
    const Ring& r = rings_[u];
    const std::size_t base = u * capacity_;
    const std::size_t first = std::min<std::size_t>(r.size, capacity_ - r.head);
    visit(base + r.head, base + r.head + first);
    visit(base, base + r.size - first);
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
  /// within the user), evicting the oldest sample when the ring is full.
  std::size_t push_slot(std::size_t u, util::SimTime t) {
    Ring& r = rings_[u];
    DTMSV_EXPECTS_MSG(
        r.size == 0 || t >= times_[u * capacity_ + (r.head + r.size - 1) % capacity_],
        "twin column: timestamps must be non-decreasing");
    std::size_t at;
    if (r.size == capacity_) {
      at = u * capacity_ + r.head;
      last_evicted_[u] = times_[at];
      evicted_[u] = 1;
      r.head = static_cast<std::uint32_t>((r.head + 1) % capacity_);
    } else {
      at = u * capacity_ + (r.head + r.size) % capacity_;
      ++r.size;
    }
    times_[at] = t;
    return at;
  }

 private:
  struct Ring {
    std::uint32_t head = 0;
    std::uint32_t size = 0;
  };

  std::size_t capacity_;
  std::vector<Ring> rings_;
  std::vector<double> times_;
  std::vector<double> last_evicted_;
  std::vector<std::uint8_t> evicted_;
};

/// Channel condition column: snr / spectral efficiency / serving BS.
class ChannelColumn : public RingColumnBase {
 public:
  using value_type = ChannelObservation;

  ChannelColumn(std::size_t user_count, std::size_t capacity)
      : RingColumnBase(user_count, capacity),
        snr_(user_count * capacity, 0.0),
        efficiency_(user_count * capacity, 0.0),
        serving_bs_(user_count * capacity, 0) {}

  void record(std::size_t u, util::SimTime t, const ChannelObservation& obs) {
    const std::size_t at = push_slot(u, t);
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

  LocationColumn(std::size_t user_count, std::size_t capacity)
      : RingColumnBase(user_count, capacity),
        x_(user_count * capacity, 0.0),
        y_(user_count * capacity, 0.0) {}

  void record(std::size_t u, util::SimTime t, const mobility::Position& pos) {
    const std::size_t at = push_slot(u, t);
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

  WatchColumn(std::size_t user_count, std::size_t capacity)
      : RingColumnBase(user_count, capacity),
        video_id_(user_count * capacity, 0),
        category_(user_count * capacity, 0),
        duration_(user_count * capacity, 0.0),
        watch_seconds_(user_count * capacity, 0.0),
        watch_fraction_(user_count * capacity, 0.0),
        completed_(user_count * capacity, 0) {}

  void record(std::size_t u, util::SimTime t, const WatchObservation& obs) {
    const std::size_t at = push_slot(u, t);
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

  PreferenceColumn(std::size_t user_count, std::size_t capacity)
      : RingColumnBase(user_count, capacity) {
    for (auto& lane : weights_) {
      lane.assign(user_count * capacity, 0.0);
    }
  }

  void record(std::size_t u, util::SimTime t, const behavior::PreferenceVector& v) {
    const std::size_t at = push_slot(u, t);
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
