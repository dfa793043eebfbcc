#include "analysis/popularity.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dtmsv::analysis {

PopularityAnalyzer::PopularityAnalyzer(double forgetting) : forgetting_(forgetting) {
  DTMSV_EXPECTS(forgetting > 0.0 && forgetting <= 1.0);
}

void PopularityAnalyzer::observe(std::uint64_t video_id, double watch_seconds) {
  DTMSV_EXPECTS(watch_seconds >= 0.0);
  scores_[video_id] += watch_seconds;
}

void PopularityAnalyzer::decay() {
  for (auto it = scores_.begin(); it != scores_.end();) {
    it->second *= forgetting_;
    if (it->second < 1e-6) {
      it = scores_.erase(it);  // prune dead entries to bound memory
    } else {
      ++it;
    }
  }
}

double PopularityAnalyzer::score(std::uint64_t video_id) const {
  const auto it = scores_.find(video_id);
  return it == scores_.end() ? 0.0 : it->second;
}

PopularityRanking PopularityAnalyzer::rank(const video::Catalog& catalog) const {
  std::vector<std::pair<std::uint64_t, double>> entries(scores_.begin(), scores_.end());
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  PopularityRanking ranking;
  for (const auto& [id, score] : entries) {
    ranking.by_category[static_cast<std::size_t>(catalog.video(id).category)].push_back(id);
  }
  return ranking;
}

}  // namespace dtmsv::analysis
