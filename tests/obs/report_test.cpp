#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace aapx::obs {
namespace {

JsonValue parse(const std::string& text) {
  auto doc = json_parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return doc.value_or(JsonValue{});
}

TEST(ValidateTraceTest, AcceptsBalancedDocument) {
  const JsonValue doc = parse(R"({"traceEvents":[
    {"ph":"M","pid":1,"tid":1,"name":"process_name","args":{"name":"aapx"}},
    {"ph":"B","pid":1,"tid":1,"ts":0,"name":"a"},
    {"ph":"B","pid":1,"tid":1,"ts":1,"name":"b"},
    {"ph":"E","pid":1,"tid":1,"ts":2,"name":"b"},
    {"ph":"E","pid":1,"tid":1,"ts":3,"name":"a"}]})");
  EXPECT_TRUE(validate_trace(doc).empty());
}

TEST(ValidateTraceTest, FlagsStructuralViolations) {
  EXPECT_FALSE(validate_trace(parse("[1]")).empty());
  EXPECT_FALSE(validate_trace(parse("{}")).empty());
  // E without B, mismatched nesting, missing ts, unclosed span.
  const struct {
    const char* events;
  } cases[] = {
      {R"([{"ph":"E","pid":1,"tid":1,"ts":0,"name":"x"}])"},
      {R"([{"ph":"B","pid":1,"tid":1,"ts":0,"name":"a"},
           {"ph":"B","pid":1,"tid":1,"ts":1,"name":"b"},
           {"ph":"E","pid":1,"tid":1,"ts":2,"name":"a"},
           {"ph":"E","pid":1,"tid":1,"ts":3,"name":"b"}])"},
      {R"([{"ph":"B","pid":1,"tid":1,"name":"x"}])"},
      {R"([{"ph":"B","pid":1,"tid":1,"ts":0,"name":"x"}])"},
      {R"([{"ph":"X","pid":1,"tid":1,"ts":0,"name":"x"}])"},
      {R"([{"ph":"B","tid":1,"ts":0,"name":"x"}])"},
  };
  for (const auto& c : cases) {
    const JsonValue doc =
        parse(std::string(R"({"traceEvents":)") + c.events + "}");
    EXPECT_FALSE(validate_trace(doc).empty()) << c.events;
  }
}

TEST(SummarizeTraceTest, AggregatesPerSpanName) {
  const JsonValue doc = parse(R"({"traceEvents":[
    {"ph":"B","pid":1,"tid":1,"ts":0,"name":"outer"},
    {"ph":"B","pid":1,"tid":1,"ts":10,"name":"inner"},
    {"ph":"E","pid":1,"tid":1,"ts":30,"name":"inner"},
    {"ph":"E","pid":1,"tid":1,"ts":100,"name":"outer"},
    {"ph":"B","pid":1,"tid":2,"ts":5,"name":"inner"},
    {"ph":"E","pid":1,"tid":2,"ts":45,"name":"inner"}]})");
  const TraceSummary sum = summarize_trace(doc);
  EXPECT_EQ(sum.events, 6u);
  EXPECT_EQ(sum.threads, 2u);
  EXPECT_DOUBLE_EQ(sum.wall_us, 100.0);
  ASSERT_EQ(sum.spans.size(), 2u);
  EXPECT_EQ(sum.spans[0].name, "outer");  // 100 us inclusive beats 60
  EXPECT_DOUBLE_EQ(sum.spans[0].incl_us, 100.0);
  EXPECT_EQ(sum.spans[1].name, "inner");
  EXPECT_EQ(sum.spans[1].count, 2u);
  EXPECT_DOUBLE_EQ(sum.spans[1].incl_us, 60.0);
  EXPECT_DOUBLE_EQ(sum.spans[1].max_us, 40.0);
}

TEST(ParseJsonlTest, SkipsBlanksAndReportsBadLines) {
  std::istringstream is(
      "{\"type\":\"a\"}\n"
      "\n"
      "   \t\n"
      "not json\n"
      "{\"type\":\"b\"}\n");
  std::vector<std::string> errors;
  const auto records = parse_jsonl(is, &errors);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].str_or("type", ""), "a");
  EXPECT_EQ(records[1].str_or("type", ""), "b");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("line 4"), std::string::npos) << errors[0];
}

TEST(ValidateLogRecordTest, EnforcesKnownTypeFields) {
  EXPECT_TRUE(validate_log_record(
                  parse(R"({"type":"manifest","schema":"aapx-runlog-v1"})"))
                  .empty());
  // Missing required field.
  EXPECT_FALSE(validate_log_record(parse(R"({"type":"manifest"})")).empty());
  // Wrong type: trigger must be a string.
  EXPECT_FALSE(
      validate_log_record(
          parse(R"({"type":"control_event","epoch":1,"years":1.0,
                    "sensor_years":1.0,"trigger":3,"outcome":"committed",
                    "from_precision":11,"to_precision":10})"))
          .empty());
  // The schema is closed: a type it does not know is rejected ...
  EXPECT_FALSE(
      validate_log_record(parse(R"({"type":"future_record"})")).empty());
  // ... retired types still validate, so old run logs stay checkable ...
  EXPECT_TRUE(
      validate_log_record(parse(R"({"type":"surrogate_query"})")).empty());
  // ... and the persistence records are checked like any other.
  EXPECT_TRUE(validate_log_record(
                  parse(R"({"type":"store_save","path":"s.aapx","format":1})"))
                  .empty());
  EXPECT_FALSE(
      validate_log_record(parse(R"({"type":"store_load","format":1})")).empty());
  // No type at all fails.
  EXPECT_FALSE(validate_log_record(parse(R"({"typo":"x"})")).empty());
  EXPECT_FALSE(validate_log_record(parse("[1]")).empty());
}

TEST(ValidateLogRecordTest, RejectsMisspelledType) {
  const std::vector<std::string> errors = validate_log_record(parse(
      R"({"type":"sta_querry","kind":"fresh","gates":3,"max_delay_ps":1})"));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("unknown record type 'sta_querry'"),
            std::string::npos)
      << errors[0];
}

TEST(SummarizeLogTest, CountsTypesAndExtractsDecisions) {
  const std::vector<JsonValue> records = {
      parse(R"({"type":"manifest","schema":"s"})"),
      parse(R"({"type":"epoch","epoch":0})"),
      parse(R"({"type":"epoch","epoch":1})"),
      parse(R"({"type":"control_event","epoch":3,"years":2.5,
                "sensor_years":3.1,"trigger":"functional-errors",
                "outcome":"committed","from_precision":11,"to_precision":10,
                "verified_sta_delay_ps":5100.5})"),
  };
  const LogSummary sum = summarize_log(records);
  ASSERT_EQ(sum.type_counts.size(), 3u);
  EXPECT_EQ(sum.type_counts[0].first, "manifest");  // first-appearance order
  EXPECT_EQ(sum.type_counts[1].first, "epoch");
  EXPECT_EQ(sum.type_counts[1].second, 2u);
  ASSERT_EQ(sum.decisions.size(), 1u);
  const DecisionRow& d = sum.decisions[0];
  EXPECT_EQ(d.epoch, 3);
  EXPECT_DOUBLE_EQ(d.years, 2.5);
  EXPECT_EQ(d.trigger, "functional-errors");
  EXPECT_EQ(d.outcome, "committed");
  EXPECT_EQ(d.from_precision, 11);
  EXPECT_EQ(d.to_precision, 10);
  EXPECT_DOUBLE_EQ(d.sta_delay_ps, 5100.5);
}

TEST(CacheRatesTest, PairsHitAndMissCounters) {
  const JsonValue doc = parse(R"({"counters":{
    "characterizer.degradation_cache_hits":11,
    "characterizer.degradation_cache_misses":1,
    "runtime.netlist_cache_hits":5,
    "runtime.netlist_cache_misses":1,
    "timedsim.events":999}})");
  const auto rates = cache_rates_from_metrics(doc);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0].name, "characterizer.degradation_cache");
  EXPECT_EQ(rates[0].hits, 11u);
  EXPECT_EQ(rates[0].misses, 1u);
  EXPECT_DOUBLE_EQ(rates[0].rate(), 11.0 / 12.0);
  EXPECT_EQ(rates[1].name, "runtime.netlist_cache");
  EXPECT_DOUBLE_EQ(CacheRate{}.rate(), 0.0);
}

TEST(CacheRatesTest, EmptyOnNonMetricsDocuments) {
  EXPECT_TRUE(cache_rates_from_metrics(parse("[1]")).empty());
  EXPECT_TRUE(cache_rates_from_metrics(parse("{}")).empty());
}

TEST(HistogramsFromMetricsTest, ReconstructsExactAggregatesAndQuantiles) {
  const JsonValue doc = parse(R"({"histograms":{
    "service.latency_us.characterize":
      {"count":4,"sum":108.5,"min":0.5,"max":100,
       "buckets":[[0,1],[1,1],[7,2]]},
    "untouched":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}}})");
  const auto rows = histograms_from_metrics(doc);
  ASSERT_EQ(rows.size(), 1u);  // zero-count histograms are skipped
  const HistogramRow& r = rows[0];
  EXPECT_EQ(r.name, "service.latency_us.characterize");
  EXPECT_EQ(r.count, 4u);
  EXPECT_DOUBLE_EQ(r.sum, 108.5);
  EXPECT_DOUBLE_EQ(r.mean(), 108.5 / 4.0);
  EXPECT_DOUBLE_EQ(r.min, 0.5);
  EXPECT_DOUBLE_EQ(r.max, 100.0);
  // Quantiles travel through the same interpolation as the live registry:
  // monotone, clamped to the exact extremes.
  EXPECT_GE(r.p50, r.min);
  EXPECT_LE(r.p50, r.p95);
  EXPECT_LE(r.p95, r.p99);
  EXPECT_LE(r.p99, r.max);
  EXPECT_TRUE(histograms_from_metrics(parse("{}")).empty());
  EXPECT_TRUE(histograms_from_metrics(parse("[1]")).empty());
}

TEST(SummarizeServiceLogTest, CountsOpsAndOutcomes) {
  const std::vector<JsonValue> records = {
      parse(R"({"type":"manifest","schema":"aapx-servelog-v1"})"),
      parse(R"({"type":"request","msg":"characterize","request_id":1})"),
      parse(R"({"type":"response","msg":"ok_surface","request_id":1})"),
      parse(R"({"type":"manifest","schema":"aapx-servelog-v1"})"),
      parse(R"({"type":"request","msg":"aged_delay","request_id":2})"),
      parse(R"({"type":"response","msg":"ok_delay","request_id":2})"),
      parse(R"({"type":"manifest","schema":"aapx-servelog-v1"})"),
      parse(R"({"type":"request","msg":"characterize","request_id":3})"),
      parse(R"({"type":"cancelled","where":"queue","reason":"deadline"})"),
  };
  const ServiceLogSummary sum = summarize_service_log(records);
  EXPECT_EQ(sum.requests, 3u);
  EXPECT_EQ(sum.cancelled, 1u);
  ASSERT_EQ(sum.ops.size(), 2u);  // first-appearance order
  EXPECT_EQ(sum.ops[0].first, "characterize");
  EXPECT_EQ(sum.ops[0].second, 2u);
  EXPECT_EQ(sum.ops[1].first, "aged_delay");
  EXPECT_EQ(sum.ops[1].second, 1u);
  ASSERT_EQ(sum.outcomes.size(), 3u);
  EXPECT_EQ(sum.outcomes[0].first, "ok_surface");
  EXPECT_EQ(sum.outcomes[1].first, "ok_delay");
  EXPECT_EQ(sum.outcomes[2].first, "cancelled");
  EXPECT_EQ(sum.outcomes[2].second, 1u);
}

TEST(DiffNumericTest, FlattensLeavesAndSkipsArrays) {
  const JsonValue doc = parse(R"({"counters":{"b":2,"a":1},
    "gauges":{"g":{"value":3.5,"max":9}},
    "histograms":{"h":{"count":1,"buckets":[[3,1]]}},
    "label":"not-a-number"})");
  const auto flat = flatten_numeric(doc);
  ASSERT_EQ(flat.size(), 5u);  // name-ordered; arrays and strings skipped
  EXPECT_EQ(flat[0].first, "counters.a");
  EXPECT_DOUBLE_EQ(flat[0].second, 1.0);
  EXPECT_EQ(flat[1].first, "counters.b");
  EXPECT_EQ(flat[2].first, "gauges.g.max");
  EXPECT_EQ(flat[3].first, "gauges.g.value");
  EXPECT_DOUBLE_EQ(flat[3].second, 3.5);
  EXPECT_EQ(flat[4].first, "histograms.h.count");
}

TEST(DiffNumericTest, JoinsByNameAndMarksPresence) {
  const JsonValue a = parse(R"({"shared":10,"gone":5,"zero":0})");
  const JsonValue b = parse(R"({"shared":15,"fresh":7,"zero":0})");
  const auto deltas = diff_numeric(a, b);
  ASSERT_EQ(deltas.size(), 4u);  // name-ordered union
  EXPECT_EQ(deltas[0].name, "fresh");
  EXPECT_FALSE(deltas[0].in_a);
  EXPECT_TRUE(deltas[0].in_b);
  EXPECT_DOUBLE_EQ(deltas[0].pct(), 0.0);  // one-sided: no relative change
  EXPECT_EQ(deltas[1].name, "gone");
  EXPECT_TRUE(deltas[1].in_a);
  EXPECT_FALSE(deltas[1].in_b);
  EXPECT_EQ(deltas[2].name, "shared");
  EXPECT_DOUBLE_EQ(deltas[2].delta(), 5.0);
  EXPECT_DOUBLE_EQ(deltas[2].pct(), 50.0);
  EXPECT_EQ(deltas[3].name, "zero");
  EXPECT_DOUBLE_EQ(deltas[3].pct(), 0.0);  // zero base has no percent
}

}  // namespace
}  // namespace aapx::obs
