// Drop-in replacement for BENCHMARK_MAIN() that tees every run to a JSON
// file, so the perf trajectory of each bench binary is machine-readable
// without remembering google-benchmark's --benchmark_out flags.
//
// Usage (instead of BENCHMARK_MAIN()):
//   DTMSV_BENCHMARK_MAIN_JSON("BENCH_micro_perf.json");
//
// The output path can be overridden at run time with the
// DTMSV_BENCH_JSON environment variable; console output is unchanged.
//
// Several emitters may share one trajectory file (bench_micro_perf's BM_*
// entries and bench_ablation_interval's manual stage-breakdown entries
// both land in BENCH_micro_perf.json): both directions MERGE rather than
// truncate. Manual entries are written one per line, which is what makes
// them recognisable and preservable across google-benchmark rewrites.
#pragma once

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/simd.hpp"

namespace dtmsv::bench {

namespace detail {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return {};
  }
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Complete single-line `{"name": ...}` benchmark objects inside the
/// document's benchmarks array — the manual emitter's format. Returns the
/// objects without indentation or trailing commas. google-benchmark's own
/// entries span multiple lines and are never matched.
inline std::vector<std::string> manual_entry_lines(const std::string& content) {
  std::vector<std::string> entries;
  const std::size_t array_pos = content.find("\"benchmarks\":");
  if (array_pos == std::string::npos) {
    return entries;
  }
  std::size_t start = content.find('\n', array_pos);
  while (start != std::string::npos && start + 1 < content.size()) {
    ++start;
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) {
      end = content.size();
    }
    std::string line = content.substr(start, end - start);
    while (!line.empty() && (line.back() == ',' ||
                             std::isspace(static_cast<unsigned char>(line.back())))) {
      line.pop_back();
    }
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos) {
      line.erase(0, first);
    }
    if (line.size() > 1 && line.front() == '{' && line.back() == '}' &&
        line.find("\"name\":") != std::string::npos) {
      entries.push_back(line);
    }
    start = end == content.size() ? std::string::npos : end;
  }
  return entries;
}

/// Splices `entries` (complete objects, no trailing commas) into the
/// document's benchmarks array, dropping any existing single-line entry
/// with the same "name". Returns empty when `content` holds no array.
inline std::string splice_into_benchmarks_array(
    const std::string& content, const std::vector<std::string>& entries) {
  const std::size_t array_pos = content.find("\"benchmarks\":");
  const std::size_t close_pos = content.rfind(']');
  if (array_pos == std::string::npos || close_pos == std::string::npos ||
      close_pos < array_pos || entries.empty()) {
    return {};
  }
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const std::string& e : entries) {
    const std::size_t name_pos = e.find("\"name\":");
    const std::size_t name_end = name_pos == std::string::npos
                                     ? std::string::npos
                                     : e.find(',', name_pos);
    names.push_back(e.substr(0, name_end));  // `{"name": "..."` prefix
  }
  // Keep every existing line except same-name single-line entries.
  std::string head;
  head.reserve(content.size());
  std::size_t line_start = 0;
  while (line_start < close_pos) {
    std::size_t line_end = content.find('\n', line_start);
    if (line_end == std::string::npos || line_end > close_pos) {
      line_end = close_pos;
    }
    const std::string line = content.substr(line_start, line_end - line_start);
    bool replaced = false;
    for (const std::string& name : names) {
      if (line.find(name) != std::string::npos) {
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      head += line;
      head += '\n';
    }
    line_start = line_end + 1;
  }
  // Trim trailing whitespace and a dangling comma before splicing.
  while (!head.empty() && (std::isspace(static_cast<unsigned char>(head.back())) ||
                           head.back() == ',')) {
    head.pop_back();
  }
  const std::size_t array_open = head.rfind('[');
  const std::size_t last_entry = head.rfind('}');
  const bool array_nonempty = array_open != std::string::npos &&
                              last_entry != std::string::npos &&
                              last_entry > array_open;
  std::string merged = head;
  merged += array_nonempty ? ",\n" : "\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    merged += "    " + entries[i];
    merged += i + 1 < entries.size() ? ",\n" : "\n";
  }
  merged += "  ]\n}\n";
  return merged;
}

}  // namespace detail

inline int run_benchmarks_with_json(int argc, char** argv,
                                    const std::string& default_json_path) {
  std::string json_path = default_json_path;
  if (const char* env = std::getenv("DTMSV_BENCH_JSON")) {
    json_path = env;
  }

  // Inject --benchmark_out flags unless the caller passed their own;
  // google-benchmark then tees console output and a JSON file itself.
  std::vector<std::string> args(argv, argv + argc);
  bool has_out_flag = false;
  for (const auto& a : args) {
    if (a.rfind("--benchmark_out=", 0) == 0) {
      has_out_flag = true;
    }
  }
  // google-benchmark rewrites the out file from scratch, so snapshot any
  // manual (single-line) entries a table harness merged in earlier and
  // splice them back afterwards.
  std::vector<std::string> preserved;
  if (!has_out_flag && !json_path.empty()) {
    preserved = detail::manual_entry_lines(detail::read_file(json_path));
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> raw;
  raw.reserve(args.size());
  for (auto& a : args) {
    raw.push_back(a.data());
  }
  int raw_argc = static_cast<int>(raw.size());

  // Baselines are only comparable within one ISA regime: record which SIMD
  // backend the library was compiled to use and whether the build targeted
  // the host CPU. Lands in the JSON "context" block (and the console
  // header) next to num_cpus. The context's own `library_build_type` is
  // google-benchmark's build, not this one, so record ours (NDEBUG is set
  // by Release builds).
  benchmark::AddCustomContext("dtmsv_simd_backend",
                              util::simd::active_backend_name());
  benchmark::AddCustomContext("dtmsv_native_arch",
                              util::simd::native_arch_build() ? "on" : "off");
#ifdef NDEBUG
  benchmark::AddCustomContext("dtmsv_build_type", "release");
#else
  benchmark::AddCustomContext("dtmsv_build_type", "debug");
#endif

  benchmark::Initialize(&raw_argc, raw.data());
  if (benchmark::ReportUnrecognizedArguments(raw_argc, raw.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  if (!has_out_flag && !json_path.empty()) {
    std::cout << "\nJSON results written to " << json_path << "\n";
  }
  benchmark::Shutdown();
  if (!preserved.empty()) {
    const std::string merged = detail::splice_into_benchmarks_array(
        detail::read_file(json_path), preserved);
    if (!merged.empty()) {
      std::ofstream out(json_path);
      out << merged;
    }
  }
  return 0;
}

// ---------------------------------------------------------- manual results
//
// For table-style harnesses that measure by hand (no google-benchmark state
// loop) but should still land in the same machine-readable JSON stream as
// the BM_* benches. Emits the google-benchmark JSON schema (a "benchmarks"
// array of named entries with counters), so downstream tooling parses both
// identically.

/// One hand-measured result: a name, the measured wall time, and named
/// counters (e.g. per-stage time shares).
struct ManualBenchResult {
  std::string name;
  double real_time_s = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Writes manual results to `default_json_path` (overridable with the
/// DTMSV_BENCH_JSON environment variable), google-benchmark JSON schema.
/// An existing well-formed document is merged into (same-name entries from
/// a previous run replaced, everything else preserved); a missing or
/// unparseable file is rewritten from scratch.
inline void write_manual_benchmarks_json(
    const std::string& default_json_path,
    const std::vector<ManualBenchResult>& results) {
  std::string json_path = default_json_path;
  if (const char* env = std::getenv("DTMSV_BENCH_JSON")) {
    json_path = env;
  }
  if (json_path.empty()) {
    return;
  }
  const auto number = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  // One complete object per line — the format the merge machinery relies on.
  std::vector<std::string> entries;
  entries.reserve(results.size());
  for (const ManualBenchResult& r : results) {
    std::string e = "{\"name\": \"" + r.name +
                    "\", \"run_type\": \"iteration\", \"iterations\": 1, "
                    "\"real_time\": " + number(r.real_time_s * 1e9) +
                    ", \"cpu_time\": " + number(r.real_time_s * 1e9) +
                    ", \"time_unit\": \"ns\"";
    for (const auto& [key, value] : r.counters) {
      e += ", \"" + key + "\": " + number(value);
    }
    e += '}';
    entries.push_back(std::move(e));
  }

  std::string merged =
      detail::splice_into_benchmarks_array(detail::read_file(json_path), entries);
  if (merged.empty()) {
    merged = std::string("{\n  \"context\": {\"library_build_type\": \"manual\", ") +
             "\"dtmsv_simd_backend\": \"" + util::simd::active_backend_name() +
             "\", \"dtmsv_native_arch\": \"" +
             (util::simd::native_arch_build() ? "on" : "off") + "\"},\n" +
             "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      merged += "    " + entries[i];
      merged += i + 1 < entries.size() ? ",\n" : "\n";
    }
    merged += "  ]\n}\n";
  }

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "warning: cannot write bench JSON to " << json_path << "\n";
    return;
  }
  out << merged;
  std::cout << "\nJSON results written to " << json_path << "\n";
}

}  // namespace dtmsv::bench

#define DTMSV_BENCHMARK_MAIN_JSON(default_json_path)                          \
  int main(int argc, char** argv) {                                           \
    return ::dtmsv::bench::run_benchmarks_with_json(argc, argv,               \
                                                    (default_json_path));     \
  }
