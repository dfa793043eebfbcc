// JsonReportSink validation: the NDJSON stream must carry exactly the
// records a CollectingSink observes on the same run, with numeric fields
// that parse back to the in-process doubles bit-for-bit (full round-trip
// precision) — the property the CLI/CI path relies on when aggregate stats
// from dtmsv artifacts are compared against in-process runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/json_sink.hpp"
#include "core/scenarios.hpp"

namespace {

using namespace dtmsv;

/// Splits NDJSON text into lines and keeps those of the given type.
std::vector<std::string> records_of_type(const std::string& ndjson,
                                         const std::string& type) {
  std::vector<std::string> out;
  std::istringstream in(ndjson);
  std::string line;
  const std::string tag = "\"type\":\"" + type + "\"";
  while (std::getline(in, line)) {
    if (line.find(tag) != std::string::npos) {
      out.push_back(line);
    }
  }
  return out;
}

/// Extracts the numeric field `key` from a single-line JSON record.
double number_field(const std::string& record, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = record.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << record;
  if (pos == std::string::npos) {
    return 0.0;
  }
  return std::strtod(record.c_str() + pos + needle.size(), nullptr);
}

bool bool_field(const std::string& record, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = record.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << record;
  return record.compare(pos + needle.size(), 4, "true") == 0;
}

core::ScenarioConfig small_churn_scenario() {
  // Mobility churn exercises all three record types (handovers included).
  core::ScenarioConfig cfg = core::make_scenario(
      core::ScenarioKind::kMobilityChurn, /*total_users=*/36,
      /*cell_count=*/2, /*seed=*/11);
  cfg.intervals = 4;
  cfg.churn_fraction = 0.2;
  return cfg;
}

TEST(JsonReportSink, StreamMatchesCollectingSinkBitForBit) {
  const core::ScenarioConfig cfg = small_churn_scenario();

  core::CollectingSink collected;
  core::run_scenario(cfg, &collected);

  std::ostringstream ndjson;
  core::JsonReportSink json(ndjson);
  core::run_scenario(cfg, &json);

  // Identical record counts, and the sink's own counters agree.
  const auto groups = records_of_type(ndjson.str(), "group");
  const auto intervals = records_of_type(ndjson.str(), "interval");
  const auto handovers = records_of_type(ndjson.str(), "handover");
  ASSERT_EQ(groups.size(), collected.groups.size());
  ASSERT_EQ(intervals.size(), collected.reports.size());
  ASSERT_EQ(handovers.size(), collected.handovers.size());
  EXPECT_GT(handovers.size(), 0u);  // churn must actually hand users over
  EXPECT_EQ(json.group_records(), groups.size());
  EXPECT_EQ(json.interval_records(), intervals.size());
  EXPECT_EQ(json.handover_records(), handovers.size());

  // Every interval record's numbers reparse to the in-process doubles
  // exactly (full round-trip precision, same stream order).
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const core::EpochReport& r = collected.reports[i];
    const std::string& line = intervals[i];
    EXPECT_EQ(number_field(line, "interval"), static_cast<double>(r.interval));
    EXPECT_EQ(bool_field(line, "grouped"), r.grouped);
    EXPECT_EQ(bool_field(line, "has_prediction"), r.has_prediction);
    EXPECT_EQ(number_field(line, "k"), static_cast<double>(r.k));
    EXPECT_EQ(number_field(line, "silhouette"), r.silhouette);
    EXPECT_EQ(number_field(line, "predicted_radio_hz_total"),
              r.predicted_radio_hz_total);
    EXPECT_EQ(number_field(line, "actual_radio_hz_total"),
              r.actual_radio_hz_total);
    EXPECT_EQ(number_field(line, "predicted_compute_total"),
              r.predicted_compute_total);
    EXPECT_EQ(number_field(line, "actual_compute_total"),
              r.actual_compute_total);
    EXPECT_EQ(number_field(line, "unicast_radio_hz_total"),
              r.unicast_radio_hz_total);
    EXPECT_EQ(number_field(line, "radio_error"), r.radio_error);
    EXPECT_EQ(number_field(line, "compute_error"), r.compute_error);
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const core::GroupReport& g = collected.groups[i];
    const std::string& line = groups[i];
    EXPECT_EQ(number_field(line, "interval"),
              static_cast<double>(collected.group_intervals[i]));
    EXPECT_EQ(number_field(line, "group_id"), static_cast<double>(g.group_id));
    EXPECT_EQ(number_field(line, "size"), static_cast<double>(g.size));
    EXPECT_EQ(number_field(line, "predicted_radio_hz"), g.predicted_radio_hz);
    EXPECT_EQ(number_field(line, "actual_radio_hz"), g.actual_radio_hz);
    EXPECT_EQ(number_field(line, "predicted_compute_cycles"),
              g.predicted_compute_cycles);
    EXPECT_EQ(number_field(line, "actual_compute_cycles"),
              g.actual_compute_cycles);
    EXPECT_EQ(number_field(line, "unicast_radio_hz"), g.unicast_radio_hz);
  }
  for (std::size_t i = 0; i < handovers.size(); ++i) {
    const core::HandoverEvent& e = collected.handovers[i];
    const std::string& line = handovers[i];
    EXPECT_EQ(number_field(line, "interval"), static_cast<double>(e.interval));
    EXPECT_EQ(number_field(line, "shard_a"), static_cast<double>(e.shard_a));
    EXPECT_EQ(number_field(line, "shard_b"), static_cast<double>(e.shard_b));
    EXPECT_EQ(number_field(line, "slot_a"), static_cast<double>(e.slot_a));
    EXPECT_EQ(number_field(line, "slot_b"), static_cast<double>(e.slot_b));
  }
}

TEST(JsonReportSink, EveryLineIsASingleJsonObject) {
  std::ostringstream ndjson;
  core::JsonReportSink json(ndjson);
  core::run_scenario(small_churn_scenario(), &json);

  std::istringstream in(ndjson.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // Balanced quotes and no unescaped interior braces: a cheap structural
    // check that each record is one flat object.
    std::size_t quotes = 0;
    for (const char c : line) {
      quotes += c == '"' ? 1 : 0;
    }
    EXPECT_EQ(quotes % 2, 0u) << line;
  }
  EXPECT_EQ(lines, json.record_count());
}

TEST(JsonReportSink, DegradationAndDropRecords) {
  std::ostringstream out;
  core::JsonReportSink sink(out);

  core::DegradationEvent degradation;
  degradation.interval = 4;
  degradation.from_level = 0;
  degradation.to_level = 1;
  degradation.from_name = "cnn_full";
  degradation.to_name = "cnn_incremental";
  degradation.latency_ms = 72.5;
  degradation.deadline_ms = 50.0;
  degradation.recovering = false;
  sink.on_degradation(degradation);

  core::DropEvent drop;
  drop.interval = 5;
  drop.dropped = 1234;
  drop.queue_capacity = 2048;
  drop.queue_size = 2048;
  sink.on_drop(drop);

  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"type\":\"degradation\",\"interval\":4,\"from_level\":0,"
            "\"to_level\":1,\"from_name\":\"cnn_full\","
            "\"to_name\":\"cnn_incremental\",\"latency_ms\":72.5,"
            "\"deadline_ms\":50,\"recovering\":false}");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"type\":\"drop\",\"interval\":5,\"dropped\":1234,"
            "\"queue_capacity\":2048,\"queue_size\":2048}");
  EXPECT_FALSE(std::getline(in, line));
  EXPECT_EQ(sink.degradation_records(), 1u);
  EXPECT_EQ(sink.drop_records(), 1u);
  EXPECT_EQ(sink.record_count(), 2u);
}

TEST(JsonReportSink, MetaRecordsAndEscaping) {
  std::ostringstream out;
  core::JsonReportSink sink(out);
  sink.meta("run", {{"label", core::json_string("a \"quoted\"\nlabel")},
                    {"seed", "7"}});
  EXPECT_EQ(out.str(),
            "{\"type\":\"run\",\"label\":\"a \\\"quoted\\\"\\nlabel\","
            "\"seed\":7}\n");
  EXPECT_EQ(sink.record_count(), 1u);

  EXPECT_EQ(core::json_number(1.5), "1.5");
  EXPECT_EQ(core::json_number(std::strtod("inf", nullptr)), "null");
}

}  // namespace
