// dtmsv_serve — always-on streaming serving mode.
//
// Drives a core::ServeLoop with deterministic synthetic twin-report traffic
// (core::ServeWorkload) from an INI config ([serve]/[workload]/[run]
// sections): events are offered through the bounded admission queue, one
// prediction fires per interval boundary under the configured deadline
// budget, and the degradation ladder swaps pipeline fidelity under load.
// Streams every group/interval/degradation/drop record as NDJSON and prints
// a latency summary (p50/p95/p99, sustained events/sec). See configs/
// serve_steady.ini and serve_overload.ini, and README.md ("Serving mode").
//
//   $ dtmsv_serve configs/serve_steady.ini --out serve.ndjson
//   $ dtmsv_serve configs/serve_overload.ini --set serve.deadline_ms=20
#include <chrono>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "cli/serve_loader.hpp"
#include "core/json_sink.hpp"
#include "core/pipeline.hpp"
#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;  // config/runtime failure
constexpr int kExitUsage = 2;    // bad command line

void print_usage(std::ostream& out) {
  out << "usage: dtmsv_serve <config.ini> [options]\n"
         "\n"
         "Runs the always-on serving mode described by an INI config file\n"
         "(see configs/serve_*.ini): synthetic twin-report traffic through\n"
         "the admission queue, one prediction per interval under the\n"
         "deadline budget, graceful degradation under overload.\n"
         "\n"
         "options:\n"
         "  --out PATH       stream NDJSON records to PATH ('-' = stdout);\n"
         "                   overrides the config's [run] report key\n"
         "  --set KEY=VALUE  override a config key (repeatable), e.g.\n"
         "                   --set serve.deadline_ms=20\n"
         "  --threads N      thread-pool size (overrides [run] threads;\n"
         "                   0 = hardware default)\n"
         "  --print-config   print the effective config after overrides, then exit\n"
         "  --quiet          suppress the summary table\n"
         "  --help           show this text\n"
         "\n"
         "exit status: 0 success, 1 config/runtime error, 2 usage error\n";
}

struct Options {
  std::string config_path;
  std::string out_path;
  bool out_path_set = false;
  std::vector<std::string> overrides;
  std::size_t threads = 0;
  bool threads_set = false;
  bool print_config = false;
  bool quiet = false;
};

/// Returns false (after printing the problem) on a malformed command line.
bool parse_args(int argc, char** argv, Options& options, bool& help) {
  const auto value_of = [&](int& i, const std::string& flag,
                            std::string& out) -> bool {
    if (i + 1 >= argc) {
      std::cerr << "dtmsv_serve: " << flag << " needs a value\n";
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
      if (pair.find('=') == std::string::npos) {
        std::cerr << "dtmsv_serve: --set expects KEY=VALUE, got '" << pair
                  << "'\n";
        return false;
      }
      options.overrides.push_back(pair);
    } else if (arg == "--threads") {
      std::string n;
      if (!value_of(i, arg, n)) {
        return false;
      }
      try {
        options.threads =
            static_cast<std::size_t>(dtmsv::util::parse_uint64(n, "--threads"));
      } catch (const dtmsv::util::RuntimeError& error) {
        std::cerr << "dtmsv_serve: " << error.what() << "\n";
        return false;
      }
      options.threads_set = true;
    } else if (arg == "--print-config") {
      options.print_config = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "dtmsv_serve: unknown option '" << arg << "'\n";
      return false;
    } else if (options.config_path.empty()) {
      options.config_path = arg;
    } else {
      std::cerr << "dtmsv_serve: unexpected argument '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

std::string ladder_to_string(const dtmsv::core::DegradationPolicyConfig& cfg) {
  std::string out;
  for (const auto& level : cfg.ladder) {
    if (!out.empty()) {
      out += " -> ";
    }
    out += level.name;
  }
  return out;
}

void write_run_meta(dtmsv::core::JsonReportSink& sink,
                    const dtmsv::cli::ServePlan& plan, std::size_t threads) {
  using dtmsv::core::json_number;
  using dtmsv::core::json_string;
  sink.meta("run",
            {{"mode", json_string("serve")},
             {"seed", std::to_string(plan.serve.scheme.seed)},
             {"user_count", std::to_string(plan.serve.scheme.user_count)},
             {"intervals", std::to_string(plan.intervals)},
             {"interval_s", json_number(plan.serve.scheme.interval_s)},
             {"deadline_ms", json_number(plan.serve.deadline_ms)},
             {"queue_capacity", std::to_string(plan.serve.queue_capacity)},
             {"ladder", json_string(ladder_to_string(plan.serve.degradation))},
             {"grouping_stage", json_string(plan.serve.scheme.grouping_stage)},
             {"demand_stage", json_string(plan.serve.scheme.demand_stage)},
             {"threads", std::to_string(threads)},
             {"simd_backend",
              json_string(dtmsv::util::simd::active_backend_name())},
             {"native_arch",
              json_string(dtmsv::util::simd::native_arch_build() ? "on"
                                                                 : "off")}});
}

void write_summary_meta(dtmsv::core::JsonReportSink& sink,
                        const dtmsv::core::ServeStats& stats,
                        std::uint64_t offered, double wall_s) {
  using dtmsv::core::json_number;
  const double events_per_s =
      wall_s > 0.0 ? static_cast<double>(stats.events_ingested) / wall_s : 0.0;
  sink.meta(
      "summary",
      {{"intervals", std::to_string(stats.intervals)},
       {"deadline_misses", std::to_string(stats.deadline_misses)},
       {"events_offered", std::to_string(offered)},
       {"events_ingested", std::to_string(stats.events_ingested)},
       {"events_dropped", std::to_string(stats.events_dropped)},
       {"events_rejected", std::to_string(stats.events_rejected)},
       {"steps_down", std::to_string(stats.steps_down)},
       {"steps_up", std::to_string(stats.steps_up)},
       {"latency_p50_ms",
        json_number(dtmsv::core::latency_percentile(stats.latencies_ms, 50.0))},
       {"latency_p95_ms",
        json_number(dtmsv::core::latency_percentile(stats.latencies_ms, 95.0))},
       {"latency_p99_ms",
        json_number(dtmsv::core::latency_percentile(stats.latencies_ms, 99.0))},
       {"events_per_s", json_number(events_per_s)},
       {"wall_s", json_number(wall_s)}});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtmsv;

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
  if (options.config_path.empty()) {
    std::cerr << "dtmsv_serve: missing config file\n\n";
    print_usage(std::cerr);
    return kExitUsage;
  }

  try {
    util::Config config = util::Config::read_file(options.config_path);
    for (const std::string& pair : options.overrides) {
      const std::size_t eq = pair.find('=');
      config.set(pair.substr(0, eq), pair.substr(eq + 1));
    }
    if (options.print_config) {
      std::cout << config.to_string();
      return kExitOk;
    }

    cli::ServePlan plan = cli::load_serve_plan(config);
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
    std::ostream* report_stream = nullptr;
    if (plan.report_path == "-") {
      report_stream = &std::cout;
    } else if (!plan.report_path.empty()) {
      report_file.open(plan.report_path);
      if (!report_file) {
        throw util::RuntimeError("cannot write NDJSON report to " +
                                 plan.report_path);
      }
      report_stream = &report_file;
    }

    std::unique_ptr<core::JsonReportSink> sink;
    if (report_stream != nullptr) {
      sink = std::make_unique<core::JsonReportSink>(*report_stream);
      write_run_meta(*sink, plan, plan.threads);
    }

    core::SteadyServeClock clock;
    core::ServeLoop loop(plan.serve, clock, sink.get());
    core::ServeWorkload workload(plan.workload, loop.catalog());

    const double interval_s = plan.serve.scheme.interval_s;
    std::vector<core::TwinEvent> events;
    const auto started = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < plan.intervals; ++i) {
      const bool overload =
          plan.overload_intervals > 0 && i >= plan.overload_start &&
          i < plan.overload_start + plan.overload_intervals;
      workload.set_rate_multiplier(overload ? plan.overload_multiplier : 1.0);
      events.clear();
      workload.generate(static_cast<double>(i) * interval_s,
                        static_cast<double>(i + 1) * interval_s, events);
      for (const core::TwinEvent& event : events) {
        loop.offer(event);
      }
      loop.advance_to(static_cast<double>(i + 1) * interval_s);
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();

    const core::ServeStats& stats = loop.stats();
    const std::uint64_t offered =
        stats.events_ingested + stats.events_dropped + stats.events_rejected;
    std::size_t records = 0;
    if (sink != nullptr) {
      write_summary_meta(*sink, stats, offered, wall_s);
      records = sink->record_count();
    }

    // Flush (and for files, close) before checking: a failure in the final
    // buffer flush must not produce a truncated report with exit 0.
    if (report_stream == &report_file && report_file.is_open()) {
      report_file.close();
    } else if (report_stream != nullptr) {
      report_stream->flush();
    }
    if (report_stream != nullptr &&
        (report_stream->fail() || report_stream->bad())) {
      throw util::RuntimeError("I/O error while writing NDJSON report to " +
                               (plan.report_path == "-" ? "stdout"
                                                        : plan.report_path));
    }

    if (!options.quiet) {
      std::ostream& info = plan.report_path == "-" ? std::cerr : std::cout;
      util::Table summary({"intervals", "misses", "p50 ms", "p95 ms", "p99 ms",
                           "events/s", "ingested", "dropped", "rejected",
                           "down", "up"});
      const double events_per_s =
          wall_s > 0.0 ? static_cast<double>(stats.events_ingested) / wall_s
                       : 0.0;
      summary.add_row(
          {std::to_string(stats.intervals),
           std::to_string(stats.deadline_misses),
           util::fixed(core::latency_percentile(stats.latencies_ms, 50.0), 2),
           util::fixed(core::latency_percentile(stats.latencies_ms, 95.0), 2),
           util::fixed(core::latency_percentile(stats.latencies_ms, 99.0), 2),
           util::fixed(events_per_s, 0), std::to_string(stats.events_ingested),
           std::to_string(stats.events_dropped),
           std::to_string(stats.events_rejected),
           std::to_string(stats.steps_down), std::to_string(stats.steps_up)});
      info << "\n== dtmsv_serve: " << options.config_path << " ==\n"
           << summary.to_string();
      info << "ladder: " << ladder_to_string(plan.serve.degradation)
           << " (at rung " << loop.degradation().level() << " after run)\n";
      if (!plan.report_path.empty()) {
        info << records << " NDJSON records written to "
             << (plan.report_path == "-" ? "stdout" : plan.report_path) << "\n";
      }
    }
    return kExitOk;
  } catch (const std::exception& error) {
    std::cerr << "dtmsv_serve: " << error.what() << "\n";
    return kExitRuntime;
  }
}
