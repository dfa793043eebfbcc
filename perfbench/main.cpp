// perfbench: runs one workload of the twin -> prediction pipeline for a
// fixed wall time, checks its outputs and prints every metric by name with
// its unit. The last line of standard output is the machine-readable result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 it carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of the traced episodes (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--results <file.json>] [--spans <file.jsonl>]
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "decorators.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string results;
  std::string spans;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--results <file>] [--spans <file>]\n"
               "workloads:",
               problem.c_str());
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--results") {
      args.results = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (find_workload(args.workload) == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

// ------------------------------------------------------------------ spans

/// Per-layer totals of the traced episodes, built from their spans.
struct LayerTotals {
  std::size_t intervals = 0;
  double interval_s = 0.0;
  double self_s = 0.0;  // self time of the benchmark's enclosing calls
  std::map<std::string, double> busy_s;
  std::map<std::string, std::size_t> count;
  std::vector<double> feature_ms;
  std::vector<double> grouping_ms;
  std::vector<double> straggler;  // per interval: slowest shard / mean shard
  std::uint64_t rows_refreshed = 0;
  std::uint64_t rows_reused = 0;
  std::uint64_t groupings = 0;
  std::uint64_t k_sum = 0;
  std::vector<std::string> errors;

  void add_episode(const std::vector<Span>& spans, bool serial);
};

bool is_enclosing(const Span& span) {
  const std::string name = span.name;
  return name == "interval" || name == "serve.predict";
}

bool is_stage(const Span& span) {
  const std::string name = span.name;
  return name == "feature" || name == "grouping" || name == "analysis" ||
         name == "predict";
}

void LayerTotals::add_episode(const std::vector<Span>& spans, bool serial) {
  const std::vector<double> self = self_times(spans);
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::map<std::uint64_t, double> root_duration;  // by interval id
  std::map<std::uint64_t, double> accounted;      // Σ self time by interval
  std::map<std::uint64_t, std::map<std::uint32_t, double>> shard_stage_s;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::string name = span.name;
    accounted[span.interval] += self[i];
    if (span.parent != 0) {
      const auto parent = index.find(span.parent);
      if (parent == index.end() || span.start < spans[parent->second].start ||
          span.end > spans[parent->second].end) {
        errors.push_back("span '" + name + "' is not nested in its parent");
      }
    }
    if (name == "interval") {
      ++intervals;
      interval_s += span.duration();
      root_duration[span.interval] = span.duration();
    }
    if (is_enclosing(span)) {
      self_s += self[i];
      continue;
    }
    busy_s[name] += span.duration();
    ++count[name];
    if (name == "feature") {
      feature_ms.push_back(span.duration() * 1e3);
    } else if (name == "grouping") {
      grouping_ms.push_back(span.duration() * 1e3);
    }
    if (is_stage(span)) {
      shard_stage_s[span.interval][span.owner] += span.duration();
    }
  }
  for (const auto& [interval, duration] : root_duration) {
    // Layer spans plus self time must account for each interval exactly
    // when one thread runs everything (concurrent shards overlap instead).
    if (serial && std::abs(accounted[interval] - duration) > 1e-9 + 1e-6 * duration) {
      errors.push_back("interval " + std::to_string(interval) +
                       ": layer spans and self time do not add up to the interval");
    }
    const auto shards = shard_stage_s.find(interval);
    if (shards == shard_stage_s.end()) {
      continue;
    }
    double slowest = 0.0;
    double sum = 0.0;
    for (const auto& [owner, busy] : shards->second) {
      slowest = std::max(slowest, busy);
      sum += busy;
    }
    straggler.push_back(slowest * static_cast<double>(shards->second.size()) / sum);
  }
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::vector<double> concat(const std::vector<Episode>& episodes,
                           std::vector<double> Episode::*field) {
  std::vector<double> all;
  for (const Episode& e : episodes) {
    all.insert(all.end(), (e.*field).begin(), (e.*field).end());
  }
  return all;
}

/// Seed of a run's `episode`-th workload instance. Every episode runs
/// another instance (user population, traffic, learning trajectory), so a
/// run's medians average over many instances instead of one seed's draw.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t episode) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + episode + 1;  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Runs one episode; an exception (a prediction or report the library
/// threw on) is recorded in `aborted` as one failed operation.
std::optional<Episode> run_checked(const Workload& workload, std::uint64_t seed,
                                   bool traced, Episode& aborted) {
  try {
    return workload.run_episode(seed, traced);
  } catch (const std::exception& e) {
    ++aborted.attempted;
    ++aborted.failed;
    aborted.errors.push_back(std::string("episode threw: ") + e.what());
    return std::nullopt;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // glibc moves its mmap threshold each time a large block is freed, so the
  // episodes of one run flip between faulting in fresh mappings and reusing
  // the heap; that alone moved cell_paper's set-up between 3 and 9 ms from
  // run to run. Both thresholds are fixed at the top of glibc's dynamic
  // range, where a long-running process ends up, so every run measures the
  // same regime.
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  const Args args = parse(argc, argv);
  const Workload& workload = *find_workload(args.workload);
  const std::size_t nproc = std::max(1U, std::thread::hardware_concurrency());
  dtmsv::util::set_thread_count(workload.pool == 0 ? nproc : workload.pool);
  register_traced_stages();
  Tracer& tracer = Tracer::instance();

  // Warm-up episode: fills caches and finishes lazy set-up (thread pool,
  // registry). It runs instance 0, which the first timed episode repeats.
  Episode aborted;  // collects the failure of an episode that threw
  const Episode reference =
      run_checked(workload, instance_seed(args.seed, 0), false, aborted)
          .value_or(Episode{});
  std::map<std::uint64_t, std::uint64_t> digests = {
      {instance_seed(args.seed, 0), reference.digest}};
  std::vector<std::string> digest_errors;

  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  std::vector<Span> all_spans;
  LayerTotals layers;
  const double start = wall_s();
  while (aborted.errors.empty() &&
         (wall_s() - start < args.seconds || untraced.empty() ||
          (args.trace && traced.empty()))) {
    // A traced run pairs every untraced episode with a traced one of the
    // same instance, so their digests must agree.
    const bool trace_this = args.trace && untraced.size() > traced.size();
    const std::uint64_t instance = instance_seed(args.seed, untraced.size() - trace_this);
    stage_counters().reset();
    tracer.set_enabled(trace_this);
    std::optional<Episode> run = run_checked(workload, instance, trace_this, aborted);
    tracer.set_enabled(false);
    if (!run) {
      break;
    }
    Episode episode = std::move(*run);
    const auto [known, fresh] = digests.emplace(instance, episode.digest);
    if (!fresh && known->second != episode.digest) {
      digest_errors.push_back(std::string(trace_this ? "traced" : "repeated") +
                              " episode of instance " + std::to_string(instance) +
                              ": output digest differs from its earlier episode");
    }
    if (trace_this) {
      std::vector<Span> spans = tracer.collect();
      layers.add_episode(spans, workload.pool == 1);
      if (!args.spans.empty()) {
        all_spans.insert(all_spans.end(), spans.begin(), spans.end());
      }
      const StageCounters& counters = stage_counters();
      layers.rows_refreshed += counters.rows_refreshed;
      layers.rows_reused += counters.rows_reused;
      layers.groupings += counters.groupings;
      layers.k_sum += counters.k_sum;
      traced.push_back(std::move(episode));
    } else {
      untraced.push_back(std::move(episode));
    }
  }

  // ------------------------------------------------------------ checks
  std::vector<std::string> errors = aborted.errors;
  errors.insert(errors.end(), reference.errors.begin(), reference.errors.end());
  std::uint64_t attempted = aborted.attempted + reference.attempted;
  std::uint64_t failed = aborted.failed + reference.failed;
  if (!aborted.errors.empty()) {
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    return 1;
  }
  for (const std::vector<Episode>* set : {&untraced, &traced}) {
    for (const Episode& e : *set) {
      errors.insert(errors.end(), e.errors.begin(), e.errors.end());
      attempted += e.attempted;
      failed += e.failed;
    }
  }
  errors.insert(errors.end(), digest_errors.begin(), digest_errors.end());
  errors.insert(errors.end(), layers.errors.begin(), layers.errors.end());
  const bool correct = errors.empty() && failed == 0;

  // ----------------------------------------------------------- metrics
  const auto interval_ms = concat(untraced, &Episode::interval_ms);
  const auto predict_ms = concat(untraced, &Episode::predict_ms);
  std::vector<double> setup_s;
  double simulated_s = 0.0;
  double timed_s = 0.0;
  for (const Episode& e : untraced) {
    setup_s.push_back(e.setup_s);
    simulated_s += e.simulated_s;
    timed_s += e.timed_s;
  }
  const double interval_p50 = median(interval_ms);

  std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"interval_ms_p50", interval_p50, "ms"},
      {"realtime_factor", simulated_s / timed_s, "x"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  // Reported where they apply and where the sample rule allows; not part
  // of the machine-readable line, which must hold the same names on every
  // workload.
  std::vector<Metric> informational;
  if (const auto p95 = percentile(interval_ms, 95.0)) {
    informational.push_back({"interval_ms_p95", *p95, "ms"});
  }
  if (!predict_ms.empty()) {
    informational.push_back({"predict_ms_p50", median(predict_ms), "ms"});
    if (const auto p95 = percentile(predict_ms, 95.0)) {
      informational.push_back({"predict_ms_p95", *p95, "ms"});
    }
  }
  if (reference.radio_accuracy) {
    informational.push_back({"radio_accuracy", *reference.radio_accuracy, "fraction"});
  }
  if (reference.compute_accuracy) {
    informational.push_back(
        {"compute_accuracy", *reference.compute_accuracy, "fraction"});
  }
  informational.push_back({"failed_ratio",
                           static_cast<double>(failed) / static_cast<double>(attempted),
                           "ratio"});

  std::vector<Metric> per_layer;
  if (args.trace) {
    const double n = static_cast<double>(layers.intervals);
    const double episodes = static_cast<double>(traced.size());
    const auto busy_ms = [&](const char* name) { return layers.busy_s[name] / n * 1e3; };
    const auto share_pct = [&](const char* name) {
      return layers.busy_s[name] / layers.interval_s * 100.0;
    };
    const auto per_episode = [&](const char* name) {
      return static_cast<double>(layers.count[name]) / episodes;
    };
    const auto episode_mean = [&](std::uint64_t Episode::*field) {
      double sum = 0.0;
      for (const Episode& e : traced) sum += static_cast<double>(e.*field);
      return sum / episodes;
    };
    std::uint64_t queue_peak = 0;
    for (const Episode& e : traced) queue_peak = std::max(queue_peak, e.queue_peak);
    const double traced_p50 = median(concat(traced, &Episode::interval_ms));
    per_layer = {
        {"twin.ingest_pct", share_pct("twin.ingest"), "%"},
        {"twin.ingest_events", episode_mean(&Episode::ingest_events), "count"},
        {"twin.queue_peak", static_cast<double>(queue_peak), "count"},
        {"twin.rows_refreshed", static_cast<double>(layers.rows_refreshed) / episodes,
         "count"},
        {"twin.rows_reused", static_cast<double>(layers.rows_reused) / episodes, "count"},
        {"feature.ms_p50", median(layers.feature_ms), "ms"},
        {"feature.busy_ms", busy_ms("feature"), "ms"},
        {"grouping.ms_p50", median(layers.grouping_ms), "ms"},
        {"grouping.busy_ms", busy_ms("grouping"), "ms"},
        {"grouping.k_mean",
         static_cast<double>(layers.k_sum) / static_cast<double>(layers.groupings),
         "count"},
        {"analysis.busy_ms", busy_ms("analysis"), "ms"},
        {"analysis.groups", per_episode("analysis"), "count"},
        {"predict.busy_ms", busy_ms("predict"), "ms"},
        {"predict.calls", per_episode("predict"), "count"},
        {"sink.busy_ms", busy_ms("sink"), "ms"},
        {"sink.records", per_episode("sink"), "count"},
        {"core.self_ms", layers.self_s / n * 1e3, "ms"},
        {"fleet.churn_pct", share_pct("fleet.churn"), "%"},
        {"fleet.handovers", episode_mean(&Episode::handovers), "count"},
        {"fleet.straggler_ratio", median(layers.straggler), "ratio"},
        {"serve.deadline_misses", episode_mean(&Episode::deadline_misses), "count"},
        {"trace.overhead_pct", (traced_p50 / interval_p50 - 1.0) * 100.0, "%"},
    };
  }

  // ------------------------------------------------------------ report
  const std::string context =
      "{\"workload\": " + json_string(workload.name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + json_number(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"pool\": " + std::to_string(dtmsv::util::thread_count()) +
      ", \"simd_backend\": " + json_string(dtmsv::util::simd::active_backend_name()) +
      ", \"native_arch\": " + (dtmsv::util::simd::native_arch_build() ? "true" : "false") +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + json_string(compiler()) +
      ", \"commit\": " + json_string(args.commit) +
      ", \"episodes\": " + std::to_string(1 + untraced.size() + traced.size()) +
      ", \"interval_samples\": " + std::to_string(interval_ms.size()) +
      ", \"predict_samples\": " + std::to_string(predict_ms.size()) +
      ", \"setup_samples\": " + std::to_string(setup_s.size()) + "}";

  std::printf("perfbench %s: %s\n", workload.name.c_str(), workload.why.c_str());
  std::printf("context %s\n", context.c_str());
  const auto print = [](const char* kind, const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
      std::printf("%-14s %-24s %16.6g %s\n", kind, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  print("end-to-end", end_to_end);
  print("informational", informational);
  print("per-layer", per_layer);
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }

  if (!args.results.empty()) {
    std::ofstream out(args.results);
    out << "{\"context\": " << context << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"end_to_end\": " << metrics_json(end_to_end)
        << ", \"informational\": " << metrics_json(informational)
        << ", \"per_layer\": " << metrics_json(per_layer) << "}\n";
  }
  if (!args.spans.empty()) {
    std::ofstream out(args.spans);
    for (const Span& s : all_spans) {
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": " << json_string(s.name)
          << ", \"start\": " << json_number(s.start)
          << ", \"end\": " << json_number(s.end) << ", \"interval\": " << s.interval
          << ", \"thread\": " << s.thread << ", \"owner\": " << s.owner << "}\n";
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace ? per_layer : end_to_end).c_str());
  return 0;
}
