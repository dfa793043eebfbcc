// dtmsv — the command-line driver for declarative INI configs.
//
// The config selects the mode: any [serve] key runs the always-on serving
// loop (core::ServeLoop under deterministic synthetic twin-report traffic,
// one prediction per interval boundary under a deadline budget, the
// degradation ladder swapping fidelity under load); any other config runs
// its scenario jobs (named multi-cell workloads or stage-ablation grids)
// through core::run_scenario. Either way every record streams as NDJSON and
// a human-readable summary is printed. This is the scriptable entry point
// CI's scenario-matrix job drives; see configs/ for the shipped configs and
// README.md ("Running configs from the command line") for the config
// format and NDJSON schema.
//
//   $ dtmsv configs/flash_crowd.ini --out flash_crowd.ndjson
//   $ dtmsv configs/ablation_grid.ini --set scenario.total_users=96
//   $ dtmsv configs/serve_overload.ini --set serve.deadline_ms=20
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cli/scenario_loader.hpp"
#include "core/json_sink.hpp"
#include "core/pipeline.hpp"
#include "core/scenarios.hpp"
#include "core/serve.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

using namespace dtmsv;

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;  // config/runtime failure
constexpr int kExitUsage = 2;    // bad command line

using MetaFields = std::vector<std::pair<std::string, std::string>>;

void print_usage(std::ostream& out) {
  out << "usage: dtmsv <config.ini> [options]\n"
         "\n"
         "Runs an INI config file (see configs/). A config with any [serve]\n"
         "key runs the always-on serving mode: synthetic twin-report traffic\n"
         "through the admission queue, one prediction per interval under the\n"
         "deadline budget, graceful degradation under overload. Any other\n"
         "config runs its scenario job(s) through the multi-cell fleet.\n"
         "Either mode streams NDJSON reports and prints a summary table.\n"
         "\n"
         "options:\n"
         "  --out PATH       stream NDJSON records to PATH ('-' = stdout);\n"
         "                   overrides the config's [run] report key\n"
         "  --set KEY=VALUE  override a config key (repeatable), e.g.\n"
         "                   --set scenario.total_users=96\n"
         "  --threads N      thread-pool size (overrides [run] threads;\n"
         "                   0 = hardware default)\n"
         "  --print-config   print the effective config after overrides, then exit\n"
         "  --list-stages    print the registered pipeline stage keys, then exit\n"
         "  --quiet          suppress the summary tables\n"
         "  --help           show this text\n"
         "\n"
         "exit status: 0 success, 1 config/runtime error, 2 usage error\n";
}

struct Options {
  std::string config_path;
  std::string out_path;  // --out; empty = config's [run] report (or none)
  bool out_path_set = false;
  std::vector<std::pair<std::string, std::string>> overrides;  // --set
  std::size_t threads = 0;
  bool threads_set = false;
  bool print_config = false;
  bool list_stages = false;
  bool quiet = false;
};

/// Returns false (after printing the problem) on a malformed command line.
bool parse_args(int argc, char** argv, Options& options, bool& help) {
  const auto value_of = [&](int& i, const std::string& flag,
                            std::string& out) -> bool {
    if (i + 1 >= argc) {
      std::cerr << "dtmsv: " << flag << " needs a value\n";
      return false;
    }
    out = argv[++i];
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help = true;
      return true;
    } else if (arg == "--out") {
      if (!value_of(i, arg, options.out_path)) {
        return false;
      }
      options.out_path_set = true;
    } else if (arg == "--set") {
      std::string pair;
      if (!value_of(i, arg, pair)) {
        return false;
      }
      const std::size_t eq = pair.find('=');
      const std::string key = eq == std::string::npos ? "" : pair.substr(0, eq);
      if (key.find_first_not_of(" \t\n\v\f\r") == std::string::npos) {
        std::cerr << "dtmsv: --set expects KEY=VALUE, got '" << pair << "'\n";
        return false;
      }
      options.overrides.emplace_back(key, pair.substr(eq + 1));
    } else if (arg == "--threads") {
      std::string n;
      if (!value_of(i, arg, n)) {
        return false;
      }
      try {
        options.threads =
            static_cast<std::size_t>(util::parse_uint64(n, "--threads"));
      } catch (const util::RuntimeError& error) {
        std::cerr << "dtmsv: " << error.what() << "\n";
        return false;
      }
      options.threads_set = true;
    } else if (arg == "--print-config") {
      options.print_config = true;
    } else if (arg == "--list-stages") {
      options.list_stages = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "dtmsv: unknown option '" << arg << "'\n";
      return false;
    } else if (options.config_path.empty()) {
      options.config_path = arg;
    } else {
      std::cerr << "dtmsv: unexpected argument '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

void list_stages() {
  const auto& registry = core::StageRegistry::instance();
  const auto print = [](const std::string& title,
                        const std::vector<std::string>& keys) {
    std::cout << title << ":";
    for (const std::string& key : keys) {
      std::cout << " " << key;
    }
    std::cout << "\n";
  };
  print("feature", registry.feature_keys());
  print("grouping", registry.grouping_keys());
  print("demand", registry.demand_keys());
}

/// The pool size and ISA regime every `run` record carries, so results are
/// attributable to the build that produced them.
void append_build_fields(MetaFields& fields, std::size_t threads) {
  using core::json_string;
  fields.emplace_back("threads", std::to_string(threads));
  fields.emplace_back("simd_backend",
                      json_string(util::simd::active_backend_name()));
  fields.emplace_back("native_arch",
                      json_string(util::simd::native_arch_build() ? "on" : "off"));
}

/// What a mode hands back: its summary heading and text, and the number of
/// NDJSON records it wrote.
struct ModeResult {
  std::string heading;
  std::string summary;
  std::size_t records = 0;
};

ModeResult run_scenarios(const cli::SimPlan& plan, std::ostream* report) {
  using core::json_number;
  using core::json_string;
  util::Table table({"job", "peak users", "cells", "handovers",
                     "radio accuracy", "compute accuracy", "mean K",
                     "mean silhouette", "wall s", "ms/interval"});
  ModeResult out;
  for (const cli::SimJob& job : plan.jobs) {
    const core::ScenarioConfig& s = job.scenario;
    std::unique_ptr<core::JsonReportSink> sink;
    if (report != nullptr) {
      // A run header per job keeps every job's records self-describing
      // even when several grid jobs share one NDJSON file.
      sink = std::make_unique<core::JsonReportSink>(*report);
      MetaFields fields{{"label", json_string(job.label)},
                        {"scenario", json_string(core::to_string(s.kind))},
                        {"seed", std::to_string(s.seed)},
                        {"total_users", std::to_string(s.total_users)},
                        {"cell_count", std::to_string(s.cell_count)},
                        {"intervals", std::to_string(s.intervals)}};
      append_build_fields(fields, plan.threads);
      fields.emplace_back("feature_stage", json_string(feature_stage_key(s.base)));
      fields.emplace_back("grouping_stage",
                          json_string(grouping_stage_key(s.base)));
      fields.emplace_back("demand_stage", json_string(demand_stage_key(s.base)));
      sink->meta("run", fields);
    }
    const auto started = std::chrono::steady_clock::now();
    const core::ScenarioResult result = core::run_scenario(s, sink.get());
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();
    const double ms_per_interval = wall_s * 1e3 / static_cast<double>(s.intervals);
    if (sink != nullptr) {
      sink->meta("summary",
                 {{"label", json_string(job.label)},
                  {"peak_users", std::to_string(result.peak_users)},
                  {"handovers", std::to_string(result.handovers)},
                  {"radio_accuracy", json_number(result.radio_accuracy)},
                  {"compute_accuracy", json_number(result.compute_accuracy)},
                  {"mean_k", json_number(result.mean_k)},
                  {"mean_silhouette", json_number(result.mean_silhouette)},
                  {"wall_s", json_number(wall_s)},
                  {"ms_per_interval", json_number(ms_per_interval)}});
      out.records += sink->record_count();
    }
    table.add_row({job.label, std::to_string(result.peak_users),
                   std::to_string(s.cell_count), std::to_string(result.handovers),
                   util::percent(result.radio_accuracy, 1),
                   util::percent(result.compute_accuracy, 1),
                   util::fixed(result.mean_k, 1),
                   util::fixed(result.mean_silhouette, 3),
                   util::fixed(wall_s, 2), util::fixed(ms_per_interval, 1)});
  }
  out.heading = std::to_string(plan.jobs.size()) + " scenario job" +
                (plan.jobs.size() == 1 ? "" : "s");
  out.summary = table.to_string();
  return out;
}

std::string ladder_to_string(const core::DegradationPolicyConfig& cfg) {
  std::string out;
  for (const auto& level : cfg.ladder) {
    if (!out.empty()) {
      out += " -> ";
    }
    out += level.name;
  }
  return out;
}

ModeResult run_serving(const cli::ServePlan& plan, std::ostream* report) {
  using core::json_number;
  using core::json_string;
  const std::string ladder = ladder_to_string(plan.serve.degradation);
  std::unique_ptr<core::JsonReportSink> sink;
  if (report != nullptr) {
    sink = std::make_unique<core::JsonReportSink>(*report);
    MetaFields fields{
        {"mode", json_string("serve")},
        {"seed", std::to_string(plan.serve.scheme.seed)},
        {"user_count", std::to_string(plan.serve.scheme.user_count)},
        {"intervals", std::to_string(plan.intervals)},
        {"interval_s", json_number(plan.serve.scheme.interval_s)},
        {"deadline_ms", json_number(plan.serve.deadline_ms)},
        {"queue_capacity", std::to_string(plan.serve.queue_capacity)},
        {"ladder", json_string(ladder)},
        {"grouping_stage", json_string(plan.serve.scheme.grouping_stage)},
        {"demand_stage", json_string(plan.serve.scheme.demand_stage)}};
    append_build_fields(fields, plan.threads);
    sink->meta("run", fields);
  }

  core::SteadyServeClock clock;
  const cli::ServeRun run = cli::run_serve(plan, clock, sink.get());
  const core::ServeStats& stats = run.stats;
  const double p50 = core::latency_percentile(stats.latencies_ms, 50.0);
  const double p95 = core::latency_percentile(stats.latencies_ms, 95.0);
  const double p99 = core::latency_percentile(stats.latencies_ms, 99.0);
  const double events_per_s =
      run.wall_s > 0.0 ? static_cast<double>(stats.events_ingested) / run.wall_s
                       : 0.0;

  ModeResult out;
  if (sink != nullptr) {
    const std::uint64_t offered =
        stats.events_ingested + stats.events_dropped + stats.events_rejected;
    sink->meta("summary",
               {{"intervals", std::to_string(stats.intervals)},
                {"deadline_misses", std::to_string(stats.deadline_misses)},
                {"events_offered", std::to_string(offered)},
                {"events_ingested", std::to_string(stats.events_ingested)},
                {"events_dropped", std::to_string(stats.events_dropped)},
                {"events_rejected", std::to_string(stats.events_rejected)},
                {"steps_down", std::to_string(stats.steps_down)},
                {"steps_up", std::to_string(stats.steps_up)},
                {"latency_p50_ms", json_number(p50)},
                {"latency_p95_ms", json_number(p95)},
                {"latency_p99_ms", json_number(p99)},
                {"events_per_s", json_number(events_per_s)},
                {"wall_s", json_number(run.wall_s)}});
    out.records = sink->record_count();
  }

  util::Table table({"intervals", "misses", "p50 ms", "p95 ms", "p99 ms",
                     "events/s", "ingested", "dropped", "rejected", "down",
                     "up"});
  table.add_row({std::to_string(stats.intervals),
                 std::to_string(stats.deadline_misses), util::fixed(p50, 2),
                 util::fixed(p95, 2), util::fixed(p99, 2),
                 util::fixed(events_per_s, 0),
                 std::to_string(stats.events_ingested),
                 std::to_string(stats.events_dropped),
                 std::to_string(stats.events_rejected),
                 std::to_string(stats.steps_down),
                 std::to_string(stats.steps_up)});
  out.heading = "serve";
  out.summary = table.to_string() + "ladder: " + ladder + " (at rung " +
                std::to_string(run.final_level) + " after run)\n";
  return out;
}

/// The part both modes share: --out/--threads over the config's [run] keys,
/// the pool size, the report stream around the run, and the summary.
template <typename Plan>
void execute(Plan plan, const Options& options,
             ModeResult (*run)(const Plan&, std::ostream*)) {
  if (options.out_path_set) {
    plan.report_path = options.out_path;
  }
  if (options.threads_set) {
    plan.threads = options.threads;
  }
  if (plan.threads > 0) {
    util::set_thread_count(plan.threads);
  }

  std::ofstream report_file;
  std::ostream* report = nullptr;  // "-" = stdout, "" = no NDJSON stream
  const std::string report_name =
      plan.report_path == "-" ? "stdout" : plan.report_path;
  if (plan.report_path == "-") {
    report = &std::cout;
  } else if (!plan.report_path.empty()) {
    report_file.open(plan.report_path);
    if (!report_file) {
      throw util::RuntimeError("cannot write NDJSON report to " + report_name);
    }
    report = &report_file;
  }

  const ModeResult result = run(plan, report);

  // Flush (and for files, close) before checking: a failure in the final
  // buffer flush must not produce a truncated report with exit 0.
  if (report_file.is_open()) {
    report_file.close();
  } else if (report != nullptr) {
    report->flush();
  }
  if (report != nullptr && (report->fail() || report->bad())) {
    throw util::RuntimeError("I/O error while writing NDJSON report to " +
                             report_name);
  }

  if (!options.quiet) {
    // With records streaming to stdout the human-readable output moves to
    // stderr so the NDJSON stays machine-parseable.
    std::ostream& info = plan.report_path == "-" ? std::cerr : std::cout;
    info << "\n== dtmsv: " << options.config_path << " (" << result.heading
         << ") ==\n"
         << result.summary;
    if (!plan.report_path.empty()) {
      info << "\n" << result.records << " NDJSON records written to "
           << report_name << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool help = false;
  if (!parse_args(argc, argv, options, help)) {
    std::cerr << "\n";
    print_usage(std::cerr);
    return kExitUsage;
  }
  if (help) {
    print_usage(std::cout);
    return kExitOk;
  }
  if (options.list_stages) {
    list_stages();
    return kExitOk;
  }
  if (options.config_path.empty()) {
    std::cerr << "dtmsv: missing config file\n\n";
    print_usage(std::cerr);
    return kExitUsage;
  }

  try {
    util::Config config = util::Config::read_file(options.config_path);
    for (const auto& [key, value] : options.overrides) {
      config.set(key, value);
    }
    if (options.print_config) {
      std::cout << config.to_string();
      return kExitOk;
    }

    // Any [serve] key selects serving mode. Each loader rejects the other
    // mode's keys as unknown, so a config mixing [serve] with [scenario]
    // keys fails rather than running half of itself.
    if (!config.keys_in("serve").empty()) {
      execute(cli::load_serve_plan(config), options, run_serving);
    } else {
      execute(cli::load_plan(config), options, run_scenarios);
    }
    return kExitOk;
  } catch (const std::exception& error) {
    std::cerr << "dtmsv: " << error.what() << "\n";
    return kExitRuntime;
  }
}
