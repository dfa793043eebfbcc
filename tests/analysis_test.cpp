// Unit tests for dtmsv::analysis — swiping distribution CDF/expectation
// semantics (the paper's Fig. 3(a) machinery), popularity tracking with
// forgetting, and the group recommender.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/popularity.hpp"
#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv::analysis;
using dtmsv::behavior::PreferenceVector;
using dtmsv::twin::kKeepAll;
using dtmsv::twin::TwinColumnStore;
using Members = std::vector<std::size_t>;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;
using dtmsv::video::Category;
using dtmsv::video::kCategoryCount;

// ------------------------------------------------------ SwipingDistribution

TEST(SwipingDistribution, UninformedPriorIsUniform) {
  SwipingDistribution dist;
  // With no observations, CDF(t) = t.
  EXPECT_NEAR(dist.cumulative_swipe_probability(Category::kNews, 0.3), 0.3, 1e-9);
  EXPECT_NEAR(dist.expected_watch_fraction(Category::kNews), 0.5, 1e-9);
}

TEST(SwipingDistribution, CdfMonotoneAndBounded) {
  SwipingDistribution dist;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    dist.observe(Category::kGame, rng.uniform());
  }
  double prev = -1.0;
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    const double cdf = dist.cumulative_swipe_probability(Category::kGame, t);
    EXPECT_GE(cdf, prev - 1e-12);
    EXPECT_GE(cdf, 0.0);
    EXPECT_LE(cdf, 1.0);
    prev = cdf;
  }
  EXPECT_NEAR(dist.cumulative_swipe_probability(Category::kGame, 1.0), 1.0, 1e-9);
}

TEST(SwipingDistribution, EarlySwipersShiftCdfUp) {
  SwipingDistribution early;
  SwipingDistribution late;
  for (int i = 0; i < 200; ++i) {
    early.observe(Category::kGame, 0.1);
    late.observe(Category::kNews, 0.9);
  }
  EXPECT_GT(early.cumulative_swipe_probability(Category::kGame, 0.5),
            late.cumulative_swipe_probability(Category::kNews, 0.5) + 0.5);
  EXPECT_LT(early.expected_watch_fraction(Category::kGame),
            late.expected_watch_fraction(Category::kNews));
}

TEST(SwipingDistribution, ExpectedWatchFractionMatchesMass) {
  SwipingDistribution dist(20, 1.0);
  for (int i = 0; i < 100; ++i) {
    dist.observe(Category::kMusic, 0.25);
  }
  // 0.25 lands on the boundary of bin 5 ([0.25, 0.30)) → midpoint 0.275.
  EXPECT_NEAR(dist.expected_watch_fraction(Category::kMusic), 0.275, 0.01);
}

TEST(SwipingDistribution, ExpectedMaxIncreasesWithGroupSize) {
  SwipingDistribution dist;
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    dist.observe(Category::kSports, rng.beta(2.0, 4.0));
  }
  const double e1 = dist.expected_max_watch_fraction(Category::kSports, 1);
  const double e4 = dist.expected_max_watch_fraction(Category::kSports, 4);
  const double e32 = dist.expected_max_watch_fraction(Category::kSports, 32);
  EXPECT_LT(e1, e4);
  EXPECT_LT(e4, e32);
  EXPECT_LE(e32, 1.0);
  // E[max of 1] == E[X].
  EXPECT_NEAR(e1, dist.expected_watch_fraction(Category::kSports), 0.03);
}

TEST(SwipingDistribution, CategoryFallbackToAll) {
  SwipingDistribution dist;
  for (int i = 0; i < 100; ++i) {
    dist.observe(Category::kNews, 0.8);
  }
  // Game never observed → falls back to the all-category distribution.
  EXPECT_NEAR(dist.expected_watch_fraction(Category::kGame),
              dist.expected_watch_fraction(Category::kNews), 1e-9);
}

TEST(SwipingDistribution, DecayForgetsHistory) {
  SwipingDistribution dist(20, 0.5);
  for (int i = 0; i < 64; ++i) {
    dist.observe(Category::kComedy, 0.9);
  }
  const double mass_before = dist.mass(Category::kComedy);
  dist.decay();
  EXPECT_NEAR(dist.mass(Category::kComedy), mass_before * 0.5, 1e-9);
}

TEST(SwipingDistribution, ObservationValidation) {
  SwipingDistribution dist;
  EXPECT_THROW(dist.observe(Category::kNews, -0.1), PreconditionError);
  EXPECT_THROW(dist.observe(Category::kNews, 1.2), PreconditionError);
  dist.observe(Category::kNews, 1.0);  // boundary ok
  dist.observe(Category::kNews, 0.0);
}

TEST(BuildGroupSwiping, AggregatesMemberHistories) {
  TwinColumnStore twins(2, kKeepAll);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_fraction = 0.9;
  twins.record_watch(0, 10.0, w);
  w.watch_fraction = 0.1;
  twins.record_watch(1, 20.0, w);

  const auto dist = build_group_swiping(twins, Members{0, 1}, 30.0, 30.0);
  EXPECT_NEAR(dist.expected_watch_fraction(Category::kNews), 0.5, 0.06);
  EXPECT_DOUBLE_EQ(dist.mass(Category::kNews), 2.0);
}

TEST(BuildGroupSwiping, WindowExcludesOldEvents) {
  TwinColumnStore twin(1, kKeepAll);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_fraction = 0.9;
  twin.record_watch(0, 10.0, w);   // old
  w.watch_fraction = 0.2;
  twin.record_watch(0, 100.0, w);  // recent

  const auto dist = build_group_swiping(twin, Members{0}, 110.0, 30.0);
  EXPECT_DOUBLE_EQ(dist.mass(Category::kNews), 1.0);
  EXPECT_LT(dist.expected_watch_fraction(Category::kNews), 0.4);
}

// --------------------------------------------------------------- Popularity

TEST(Popularity, ScoresAccumulateEngagement) {
  PopularityAnalyzer pop;
  pop.observe(7, 10.0);
  pop.observe(7, 5.0);
  pop.observe(9, 3.0);
  EXPECT_DOUBLE_EQ(pop.score(7), 15.0);
  EXPECT_DOUBLE_EQ(pop.score(9), 3.0);
  EXPECT_DOUBLE_EQ(pop.score(1000), 0.0);
}

dtmsv::video::Catalog small_catalog(std::uint64_t seed, std::size_t per_category) {
  Rng rng(seed);
  dtmsv::video::CatalogConfig cfg;
  cfg.videos_per_category = per_category;
  return dtmsv::video::Catalog::generate(cfg, rng);
}

TEST(Popularity, TopVideosOrdered) {
  const auto catalog = small_catalog(3, 10);
  const auto& news = catalog.category_videos(Category::kNews);
  PopularityAnalyzer pop;
  pop.observe(news[1], 5.0);
  pop.observe(news[2], 20.0);
  pop.observe(news[3], 10.0);
  const PopularityRanking ranking = pop.rank(catalog);
  const auto& top = ranking.in_category(Category::kNews);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], news[2]);
  EXPECT_EQ(top[1], news[3]);
  EXPECT_EQ(top[2], news[1]);
}

TEST(Popularity, TiesBrokenByIdForDeterminism) {
  const auto catalog = small_catalog(3, 10);
  const auto& news = catalog.category_videos(Category::kNews);
  const std::uint64_t low = std::min(news[0], news[1]);
  const std::uint64_t high = std::max(news[0], news[1]);
  PopularityAnalyzer pop;
  pop.observe(high, 5.0);
  pop.observe(low, 5.0);
  const PopularityRanking ranking = pop.rank(catalog);
  const auto& top = ranking.in_category(Category::kNews);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], low);
  EXPECT_EQ(top[1], high);
}

TEST(Popularity, DecayPrunesDeadEntries) {
  PopularityAnalyzer pop(0.1);
  pop.observe(5, 5e-6);
  pop.observe(6, 100.0);
  pop.decay();  // 5 → 5e-7 < 1e-6 threshold → pruned
  EXPECT_EQ(pop.tracked_count(), 1u);
  EXPECT_DOUBLE_EQ(pop.score(5), 0.0);
  EXPECT_NEAR(pop.score(6), 10.0, 1e-9);
}

TEST(Popularity, TopVideosInCategoryFilters) {
  const auto catalog = small_catalog(3, 10);

  PopularityAnalyzer pop;
  const auto& news = catalog.category_videos(Category::kNews);
  const auto& game = catalog.category_videos(Category::kGame);
  pop.observe(news[0], 50.0);
  pop.observe(game[0], 100.0);

  const PopularityRanking ranking = pop.rank(catalog);
  const auto& top_news = ranking.in_category(Category::kNews);
  ASSERT_EQ(top_news.size(), 1u);
  EXPECT_EQ(top_news[0], news[0]);
  EXPECT_EQ(ranking.in_category(Category::kGame),
            (std::vector<std::uint64_t>{game[0]}));
  EXPECT_TRUE(ranking.in_category(Category::kMusic).empty());
}

// -------------------------------------------------------------- Recommender

PreferenceVector news_heavy() {
  PreferenceVector p{};
  p[static_cast<std::size_t>(Category::kNews)] = 0.6;
  p[static_cast<std::size_t>(Category::kSports)] = 0.2;
  p[static_cast<std::size_t>(Category::kMusic)] = 0.2;
  return p;
}

TEST(Recommender, PlaylistSizeAndQuotas) {
  Rng rng(4);
  dtmsv::video::CatalogConfig ccfg;
  ccfg.videos_per_category = 50;
  const auto catalog = dtmsv::video::Catalog::generate(ccfg, rng);
  PopularityAnalyzer pop;
  RecommenderConfig rcfg;
  rcfg.playlist_size = 20;

  const Recommendation rec = recommend(catalog, pop.rank(catalog), news_heavy(), rcfg);
  EXPECT_EQ(rec.playlist.size(), 20u);
  std::size_t total = 0;
  for (const std::size_t c : rec.per_category_counts) {
    total += c;
  }
  EXPECT_EQ(total, 20u);
  // News gets the largest quota (12 of 20).
  EXPECT_EQ(rec.per_category_counts[static_cast<std::size_t>(Category::kNews)], 12u);
  EXPECT_EQ(rec.per_category_counts[static_cast<std::size_t>(Category::kGame)], 0u);
}

TEST(Recommender, PlaylistRespectsCategories) {
  Rng rng(5);
  dtmsv::video::CatalogConfig ccfg;
  ccfg.videos_per_category = 30;
  const auto catalog = dtmsv::video::Catalog::generate(ccfg, rng);
  PopularityAnalyzer pop;
  RecommenderConfig rcfg;
  rcfg.playlist_size = 10;

  const Recommendation rec = recommend(catalog, pop.rank(catalog), news_heavy(), rcfg);
  std::array<std::size_t, kCategoryCount> seen{};
  for (const std::uint64_t id : rec.playlist) {
    ++seen[static_cast<std::size_t>(catalog.video(id).category)];
  }
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    EXPECT_EQ(seen[c], rec.per_category_counts[c]);
  }
}

TEST(Recommender, ObservedPopularityLeadsPlaylist) {
  Rng rng(6);
  dtmsv::video::CatalogConfig ccfg;
  ccfg.videos_per_category = 30;
  const auto catalog = dtmsv::video::Catalog::generate(ccfg, rng);

  // Make an otherwise unpopular News video the most-watched.
  const auto& news_ids = catalog.category_videos(Category::kNews);
  const std::uint64_t hot = news_ids.back();  // worst catalog rank
  PopularityAnalyzer pop;
  pop.observe(hot, 1000.0);

  PreferenceVector pure_news{};
  pure_news[static_cast<std::size_t>(Category::kNews)] = 1.0;
  RecommenderConfig rcfg;
  rcfg.playlist_size = 10;
  const Recommendation rec = recommend(catalog, pop.rank(catalog), pure_news, rcfg);
  ASSERT_FALSE(rec.playlist.empty());
  EXPECT_EQ(rec.playlist.front(), hot);
}

TEST(Recommender, NoDuplicateVideos) {
  Rng rng(7);
  dtmsv::video::CatalogConfig ccfg;
  ccfg.videos_per_category = 40;
  const auto catalog = dtmsv::video::Catalog::generate(ccfg, rng);
  PopularityAnalyzer pop;
  PreferenceVector uniform{};
  uniform.fill(1.0 / kCategoryCount);
  RecommenderConfig rcfg;
  rcfg.playlist_size = 36;
  const Recommendation rec = recommend(catalog, pop.rank(catalog), uniform, rcfg);
  std::set<std::uint64_t> unique(rec.playlist.begin(), rec.playlist.end());
  EXPECT_EQ(unique.size(), rec.playlist.size());
}

// ------------------------------------ ranked recommend vs. full-sort path

/// Popularity scores kept with the analyzer's own arithmetic (it does not
/// expose its map), so the reference recommender below can sort them.
struct ScoreMirror {
  double forgetting;
  std::unordered_map<std::uint64_t, double> scores;

  void observe(std::uint64_t id, double watch_seconds) { scores[id] += watch_seconds; }
  void decay() {
    for (auto it = scores.begin(); it != scores.end();) {
      it->second *= forgetting;
      it = it->second < 1e-6 ? scores.erase(it) : std::next(it);
    }
  }
};

/// The recommender before PopularityRanking existed: every (group,
/// category) call copies and fully sorts the scores, and an unordered_set
/// keeps the catalog padding free of duplicates.
Recommendation reference_recommend(const dtmsv::video::Catalog& catalog,
                                   const std::unordered_map<std::uint64_t, double>& scores,
                                   const PreferenceVector& preference,
                                   const RecommenderConfig& config) {
  Recommendation rec;
  rec.group_preference = dtmsv::behavior::normalized(preference);
  std::array<double, kCategoryCount> exact{};
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    exact[c] = rec.group_preference[c] * static_cast<double>(config.playlist_size);
    rec.per_category_counts[c] = static_cast<std::size_t>(exact[c]);
    assigned += rec.per_category_counts[c];
  }
  for (; assigned < config.playlist_size; ++assigned) {
    std::size_t best = 0;
    double best_rem = -1.0;
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
      const double rem = exact[c] - static_cast<double>(rec.per_category_counts[c]);
      if (rem > best_rem) {
        best_rem = rem;
        best = c;
      }
    }
    ++rec.per_category_counts[best];
  }

  std::array<std::vector<std::uint64_t>, kCategoryCount> per_cat;
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    const Category category = dtmsv::video::all_categories()[c];
    const std::size_t quota = rec.per_category_counts[c];
    if (quota == 0) {
      continue;
    }
    std::vector<std::pair<std::uint64_t, double>> entries(scores.begin(), scores.end());
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    const auto observed_quota = static_cast<std::size_t>(
        std::round(config.popularity_weight * static_cast<double>(quota)));
    std::unordered_set<std::uint64_t> chosen;
    for (const auto& entry : entries) {
      if (per_cat[c].size() >= observed_quota) {
        break;
      }
      if (catalog.video(entry.first).category == category &&
          chosen.insert(entry.first).second) {
        per_cat[c].push_back(entry.first);
      }
    }
    for (const std::uint64_t id : catalog.category_videos(category)) {
      if (per_cat[c].size() >= quota) {
        break;
      }
      if (chosen.insert(id).second) {
        per_cat[c].push_back(id);
      }
    }
  }

  for (std::size_t round = 0; rec.playlist.size() < config.playlist_size; ++round) {
    bool any = false;
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
      if (round < per_cat[c].size()) {
        rec.playlist.push_back(per_cat[c][round]);
        any = true;
      }
    }
    if (!any) {
      break;
    }
  }
  return rec;
}

/// A random preference with every third category (offset by `seed`)
/// zeroed, so those categories get a quota of 0.
PreferenceVector sparse_preference(Rng& rng, std::uint64_t seed) {
  PreferenceVector p{};
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    p[c] = (c + seed) % 3 == 0 ? 0.0 : rng.uniform(0.05, 1.0);
  }
  return p;
}

/// Checks rank() + recommend() against the reference for several
/// popularity weights, playlist sizes and preferences.
void expect_matches_reference(const dtmsv::video::Catalog& catalog,
                              const PopularityAnalyzer& pop, const ScoreMirror& mirror,
                              Rng& rng, std::uint64_t seed) {
  ASSERT_EQ(pop.tracked_count(), mirror.scores.size());
  for (const auto& [id, score] : mirror.scores) {
    ASSERT_EQ(pop.score(id), score);
  }
  const PopularityRanking ranking = pop.rank(catalog);
  PreferenceVector uniform{};
  uniform.fill(1.0 / kCategoryCount);
  for (const double weight : {0.0, 0.7, 1.0}) {
    for (const std::size_t size : {1u, 7u, 12u, 40u}) {
      RecommenderConfig config;
      config.popularity_weight = weight;
      config.playlist_size = size;
      for (const PreferenceVector& preference :
           {uniform, news_heavy(), sparse_preference(rng, seed)}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ", weight " << weight
                                          << ", playlist " << size);
        const Recommendation got = recommend(catalog, ranking, preference, config);
        const Recommendation want =
            reference_recommend(catalog, mirror.scores, preference, config);
        EXPECT_EQ(got.playlist, want.playlist);
        EXPECT_EQ(got.per_category_counts, want.per_category_counts);
      }
    }
  }
}

TEST(RecommenderEquivalence, RankedPathMatchesFullSortWithTiesAndDecay) {
  const auto catalog = small_catalog(21, 20);
  // Few distinct engagement values force many score ties; 0 and 1e-6 leave
  // zero-score entries and entries that decay() prunes.
  const std::array<double, 5> engagement = {0.0, 1e-6, 1.0, 2.0, 3.0};
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(100 + seed);
    PopularityAnalyzer pop(0.5);
    ScoreMirror mirror{0.5, {}};
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 60; ++i) {
        const auto id = static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(catalog.size()) - 1));
        const double seconds = engagement[static_cast<std::size_t>(rng.uniform_int(0, 4))];
        pop.observe(id, seconds);
        mirror.observe(id, seconds);
      }
      expect_matches_reference(catalog, pop, mirror, rng, seed);
      pop.decay();
      mirror.decay();
      expect_matches_reference(catalog, pop, mirror, rng, seed);
    }
  }
}

TEST(RecommenderEquivalence, RankedPathMatchesFullSortOnSingleVideoCatalog) {
  const auto catalog = small_catalog(13, 1);
  Rng rng(13);
  PopularityAnalyzer pop;
  ScoreMirror mirror{0.8, {}};
  expect_matches_reference(catalog, pop, mirror, rng, 0);
  for (std::uint64_t id = 0; id < catalog.size(); id += 2) {
    pop.observe(id, 4.0);
    mirror.observe(id, 4.0);
  }
  expect_matches_reference(catalog, pop, mirror, rng, 1);
}

TEST(AggregateGroupPreference, EvidenceWeighted) {
  constexpr std::size_t kHeavy = 0;
  constexpr std::size_t kLight = 1;
  TwinColumnStore twins(2, kKeepAll);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_seconds = 1000.0;
  twins.record_watch(kHeavy, 1.0, w);
  twins.record_preference(kHeavy, 2.0, twins.estimator(kHeavy).estimate());

  w.category = Category::kGame;
  w.watch_seconds = 10.0;
  twins.record_watch(kLight, 1.0, w);
  twins.record_preference(kLight, 2.0, twins.estimator(kLight).estimate());

  const PreferenceVector pref = aggregate_group_preference(twins, Members{kHeavy, kLight});
  // Heavy user's News taste dominates the group profile.
  EXPECT_GT(pref[static_cast<std::size_t>(Category::kNews)], 0.8);
}

TEST(AggregateGroupPreference, EmptyGroupUniform) {
  const PreferenceVector pref = aggregate_group_preference(TwinColumnStore(1, kKeepAll), {});
  for (const double p : pref) {
    EXPECT_DOUBLE_EQ(p, 1.0 / kCategoryCount);
  }
}

}  // namespace
