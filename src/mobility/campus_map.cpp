#include "mobility/campus_map.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/error.hpp"

namespace dtmsv::mobility {

double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

CampusMap::CampusMap(std::vector<Waypoint> waypoints, std::vector<Position> base_stations,
                     double width, double height)
    : waypoints_(std::move(waypoints)),
      base_stations_(std::move(base_stations)),
      width_(width),
      height_(height) {
  validate();
}

namespace {
void connect(std::vector<Waypoint>& wps, std::size_t a, std::size_t b) {
  wps[a].neighbors.push_back(b);
  wps[b].neighbors.push_back(a);
}
}  // namespace

CampusMap CampusMap::waterloo_campus() {
  // Coordinates in metres, loosely following the relative layout of the
  // UWaterloo ring road area; origin at the southwest corner.
  std::vector<Waypoint> wps = {
      {"DC", {620, 620}, {}},    // 0 Davis Centre
      {"MC", {520, 600}, {}},    // 1 Math & Computer
      {"QNC", {600, 520}, {}},   // 2 Quantum Nano Centre
      {"SLC", {480, 500}, {}},   // 3 Student Life Centre
      {"PAC", {400, 540}, {}},   // 4 Physical Activities Complex
      {"E7", {760, 560}, {}},    // 5 Engineering 7
      {"E5", {740, 480}, {}},    // 6 Engineering 5
      {"RCH", {660, 400}, {}},   // 7 Rod Coutts Hall
      {"DP", {540, 420}, {}},    // 8 Dana Porter Library
      {"AL", {460, 380}, {}},    // 9 Arts Lecture Hall
      {"HH", {420, 300}, {}},    // 10 Hagey Hall
      {"SCH", {700, 300}, {}},   // 11 South Campus Hall
      {"V1", {240, 640}, {}},    // 12 Village 1 residence
      {"REV", {180, 520}, {}},   // 13 Ron Eydt Village
      {"CLV", {160, 340}, {}},   // 14 Columbia Lake Village
      {"UWP", {880, 660}, {}},   // 15 UW Place residence
      {"CIF", {560, 860}, {}},   // 16 Columbia Icefield
      {"OPT", {480, 760}, {}},   // 17 Optometry
      {"BMH", {360, 680}, {}},   // 18 B.C. Matthews Hall
      {"TC", {640, 720}, {}},    // 19 Tatham Centre
      {"GSC", {820, 780}, {}},   // 20 General Services
      {"LIB", {340, 440}, {}},   // 21 Porter green
      {"RING-N", {560, 700}, {}},  // 22 ring road north
      {"RING-S", {560, 260}, {}},  // 23 ring road south
  };

  connect(wps, 0, 1);
  connect(wps, 0, 2);
  connect(wps, 0, 5);
  connect(wps, 0, 19);
  connect(wps, 1, 3);
  connect(wps, 1, 4);
  connect(wps, 1, 22);
  connect(wps, 2, 6);
  connect(wps, 2, 8);
  connect(wps, 3, 4);
  connect(wps, 3, 8);
  connect(wps, 3, 9);
  connect(wps, 4, 21);
  connect(wps, 4, 18);
  connect(wps, 5, 6);
  connect(wps, 5, 15);
  connect(wps, 6, 7);
  connect(wps, 7, 11);
  connect(wps, 7, 8);
  connect(wps, 8, 9);
  connect(wps, 9, 10);
  connect(wps, 9, 21);
  connect(wps, 10, 23);
  connect(wps, 11, 23);
  connect(wps, 12, 13);
  connect(wps, 12, 18);
  connect(wps, 13, 14);
  connect(wps, 13, 21);
  connect(wps, 14, 10);
  connect(wps, 15, 20);
  connect(wps, 16, 17);
  connect(wps, 16, 22);
  connect(wps, 17, 18);
  connect(wps, 19, 20);
  connect(wps, 19, 22);
  connect(wps, 22, 0);
  connect(wps, 23, 8);

  // Three BS sites covering the campus core and residences.
  std::vector<Position> bs = {{560, 560}, {240, 480}, {800, 680}};
  return CampusMap(std::move(wps), std::move(bs), 1200.0, 1000.0);
}

CampusMap CampusMap::grid(std::size_t cols, std::size_t rows, double spacing) {
  DTMSV_EXPECTS(cols >= 2 && rows >= 2);
  DTMSV_EXPECTS(spacing > 0.0);
  std::vector<Waypoint> wps;
  wps.reserve(cols * rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      std::string name = "g";
      name += std::to_string(r);
      name += '_';
      name += std::to_string(c);
      wps.push_back({std::move(name),
                     {spacing * static_cast<double>(c) + spacing / 2.0,
                      spacing * static_cast<double>(r) + spacing / 2.0},
                     {}});
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      if (c + 1 < cols) {
        connect(wps, i, i + 1);
      }
      if (r + 1 < rows) {
        connect(wps, i, i + cols);
      }
    }
  }
  const double w = spacing * static_cast<double>(cols);
  const double h = spacing * static_cast<double>(rows);
  std::vector<Position> bs = {{w / 2.0, h / 2.0}};
  return CampusMap(std::move(wps), std::move(bs), w, h);
}

const Waypoint& CampusMap::waypoint(std::size_t i) const {
  DTMSV_EXPECTS(i < waypoints_.size());
  return waypoints_[i];
}

Position CampusMap::random_position(util::Rng& rng) const {
  return {rng.uniform(0.0, width_), rng.uniform(0.0, height_)};
}

std::size_t CampusMap::nearest_waypoint(const Position& p) const {
  DTMSV_EXPECTS(!waypoints_.empty());
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < waypoints_.size(); ++i) {
    const double d = distance(p, waypoints_[i].position);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

std::vector<std::size_t> CampusMap::shortest_path(std::size_t from, std::size_t to) const {
  DTMSV_EXPECTS(from < waypoints_.size() && to < waypoints_.size());
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(waypoints_.size(), inf);
  std::vector<std::size_t> prev(waypoints_.size(), waypoints_.size());
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  dist[from] = 0.0;
  queue.push({0.0, from});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) {
      continue;
    }
    if (u == to) {
      break;
    }
    for (const std::size_t v : waypoints_[u].neighbors) {
      const double w = distance(waypoints_[u].position, waypoints_[v].position);
      if (dist[u] + w < dist[v]) {
        dist[v] = dist[u] + w;
        prev[v] = u;
        queue.push({dist[v], v});
      }
    }
  }
  if (dist[to] == inf) {
    return {};
  }
  std::vector<std::size_t> path;
  for (std::size_t v = to; v != from; v = prev[v]) {
    path.push_back(v);
  }
  path.push_back(from);
  std::reverse(path.begin(), path.end());
  return path;
}

void CampusMap::validate() const {
  DTMSV_EXPECTS_MSG(!waypoints_.empty(), "campus: no waypoints");
  DTMSV_EXPECTS_MSG(!base_stations_.empty(), "campus: no base stations");
  DTMSV_EXPECTS(width_ > 0.0 && height_ > 0.0);

  // Symmetric adjacency.
  for (std::size_t i = 0; i < waypoints_.size(); ++i) {
    for (const std::size_t j : waypoints_[i].neighbors) {
      DTMSV_ENSURES(j < waypoints_.size());
      const auto& back = waypoints_[j].neighbors;
      if (std::find(back.begin(), back.end(), i) == back.end()) {
        throw util::InvariantError("campus: asymmetric edge " + std::to_string(i) +
                                   "->" + std::to_string(j));
      }
    }
  }

  // Connectivity via BFS.
  std::vector<bool> seen(waypoints_.size(), false);
  std::queue<std::size_t> queue;
  queue.push(0);
  seen[0] = true;
  std::size_t visited = 0;
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop();
    ++visited;
    for (const std::size_t v : waypoints_[u].neighbors) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push(v);
      }
    }
  }
  if (visited != waypoints_.size()) {
    throw util::InvariantError("campus: waypoint graph is disconnected");
  }
}

}  // namespace dtmsv::mobility
