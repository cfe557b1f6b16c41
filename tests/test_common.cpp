// Unit tests for common utilities: JSON, histogram, RNG, Result, logging.

#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace focus {
namespace {

// ---------------------------------------------------------------------------
// Json

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7.5).dump(), "-7.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegersRenderWithoutFraction) {
  EXPECT_EQ(Json(1024.0).dump(), "1024");
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(-3.0).dump(), "-3");
}

TEST(Json, NanAndInfDegradeToNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(INFINITY).dump(), "null");
}

TEST(Json, ObjectAndArrayConstruction) {
  Json doc = Json::object();
  doc["name"] = "focus";
  doc["count"] = 3;
  doc["tags"].push_back("a");
  doc["tags"].push_back("b");
  EXPECT_EQ(doc.dump(), R"({"count":3,"name":"focus","tags":["a","b"]})");
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc["tags"].size(), 2u);
}

TEST(Json, MissingKeyReadsAsNull) {
  const Json doc = Json::object();  // const access never creates keys
  EXPECT_TRUE(doc["absent"].is_null());
  EXPECT_FALSE(doc.contains("absent"));
  EXPECT_EQ(doc["absent"].number_or(5.0), 5.0);
  EXPECT_EQ(doc.size(), 0u);
}

TEST(Json, MutableIndexCreatesKey) {
  Json doc = Json::object();
  doc["created"];  // std::map semantics: non-const operator[] inserts
  EXPECT_TRUE(doc.contains("created"));
}

TEST(Json, StringEscaping) {
  Json j(std::string("a\"b\\c\nd\te"));
  EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\nd\\te\"");
  auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "a\"b\\c\nd\te");
}

TEST(Json, ParseRoundTripComplexDocument) {
  const char* text = R"({
    "attributes": [{"name": "ram_mb", "lower": 4096}],
    "limit": 10, "nested": {"deep": [1, 2.5, true, null, "x"]}
  })";
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Json& doc = parsed.value();
  EXPECT_EQ(doc["limit"].as_int(), 10);
  EXPECT_EQ(doc["attributes"].as_array()[0]["name"].as_string(), "ram_mb");
  EXPECT_EQ(doc["nested"]["deep"].size(), 5u);
  // Dump and reparse: structurally identical.
  auto again = Json::parse(doc.dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), doc);
}

TEST(Json, ParseUnicodeEscape) {
  auto parsed = Json::parse(R"("Aé")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), "A\xc3\xa9");
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
  EXPECT_FALSE(Json::parse("12 34").ok());
  EXPECT_FALSE(Json::parse("tru").ok());
  EXPECT_FALSE(Json::parse("{\"a\":1,}").ok());
}

TEST(Json, ParseWhitespaceTolerance) {
  auto parsed = Json::parse("  {\n\t\"a\" :  [ 1 , 2 ]\r\n}  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()["a"].size(), 2u);
}

TEST(Json, PrettyPrintsIndented) {
  Json doc = Json::object();
  doc["a"] = 1;
  EXPECT_EQ(doc.pretty(), "{\n  \"a\": 1\n}");
}

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.mean(), 0);
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.add(v);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_EQ(h.count(), 5u);
}

TEST(Histogram, PercentileNearestRank) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1), 1.0);
}

TEST(Histogram, PercentileAfterInterleavedAdds) {
  Histogram h;
  h.add(10);
  EXPECT_DOUBLE_EQ(h.percentile(50), 10.0);
  h.add(20);
  h.add(0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 10.0);  // sorted cache must invalidate
  EXPECT_DOUBLE_EQ(h.max(), 20.0);
}

TEST(Histogram, MergeCombinesSamples) {
  Histogram a, b;
  a.add(1);
  a.add(2);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Histogram, Stddev) {
  Histogram h;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.add(v);
  EXPECT_NEAR(h.stddev(), 2.0, 1e-9);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.add(1);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.sum(), 0);
}

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(7);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  // Children differ from each other (overwhelmingly likely over 32 draws).
  bool differ = false;
  for (int i = 0; i < 32; ++i) {
    if (child1.next_u64() != child2.next_u64()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    if (v == 0) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, SampleReturnsDistinctElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto s = rng.sample(v, 4);
  ASSERT_EQ(s.size(), 4u);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
}

TEST(Rng, SampleLargerThanPopulationReturnsAll) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(rng.sample(v, 10).size(), 3u);
}

// The sparse partial Fisher-Yates must make the same draws and the same
// picks as the dense one over an identity index array, for every k up to a
// full shuffle (where the displaced-position table sees the most probing).
TEST(Rng, SampleIndicesMatchesDenseFisherYates) {
  std::vector<std::uint64_t> moved;
  for (const std::size_t m : {1u, 2u, 7u, 50u, 400u, 1000u}) {
    for (const std::size_t k : {1u, 3u, 4u, 16u, 64u, 200u, 1000u}) {
      Rng sparse_rng(m * 131 + k);
      Rng dense_rng(m * 131 + k);
      std::vector<std::uint32_t> got;
      sparse_rng.sample_indices(m, k, moved, [&got](std::uint32_t i) { got.push_back(i); });
      std::vector<std::uint32_t> idx(m);
      for (std::uint32_t i = 0; i < m; ++i) idx[i] = i;
      std::vector<std::uint32_t> want;
      for (std::size_t i = 0; i < std::min(k, m); ++i) {
        const auto j = i + static_cast<std::size_t>(
                               dense_rng.uniform_int(0, static_cast<std::int64_t>(m - i) - 1));
        std::swap(idx[i], idx[j]);
        want.push_back(idx[i]);
      }
      EXPECT_EQ(got, want) << "m=" << m << " k=" << k;
      EXPECT_EQ(sparse_rng.next_u64(), dense_rng.next_u64());  // same draw count
    }
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

// ---------------------------------------------------------------------------
// Result

TEST(Result, ValueAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  EXPECT_EQ(ok.value_or(9), 5);

  Result<int> err = make_error(Errc::Timeout, "too slow");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, Errc::Timeout);
  EXPECT_EQ(err.error().message, "too slow");
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(Result, ErrcNames) {
  EXPECT_STREQ(to_string(Errc::NotFound), "not-found");
  EXPECT_STREQ(to_string(Errc::Overloaded), "overloaded");
}

// ---------------------------------------------------------------------------
// Logger

TEST(Logger, ParseLevelRecognizesEveryName) {
  EXPECT_EQ(Logger::parse_level("trace"), LogLevel::Trace);
  EXPECT_EQ(Logger::parse_level("debug"), LogLevel::Debug);
  EXPECT_EQ(Logger::parse_level("info"), LogLevel::Info);
  EXPECT_EQ(Logger::parse_level("warn"), LogLevel::Warn);
  EXPECT_EQ(Logger::parse_level("error"), LogLevel::Error);
  EXPECT_EQ(Logger::parse_level("off"), LogLevel::Off);
}

TEST(Logger, ParseLevelFallsBackOnGarbage) {
  EXPECT_EQ(Logger::parse_level(""), LogLevel::Off);
  EXPECT_EQ(Logger::parse_level("INFO"), LogLevel::Off);  // case-sensitive
  EXPECT_EQ(Logger::parse_level("verbose"), LogLevel::Off);
  EXPECT_EQ(Logger::parse_level("warn ", LogLevel::Error), LogLevel::Error);
  EXPECT_EQ(Logger::parse_level("42", LogLevel::Debug), LogLevel::Debug);
}

/// RAII guard: capture std::clog into a buffer and restore level on exit.
class LogCapture {
 public:
  explicit LogCapture(LogLevel level)
      : old_level_(Logger::level()), old_buf_(std::clog.rdbuf(buffer_.rdbuf())) {
    Logger::set_level(level);
  }
  ~LogCapture() {
    std::clog.rdbuf(old_buf_);
    Logger::set_level(old_level_);
  }
  std::string text() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  LogLevel old_level_;
  std::streambuf* old_buf_;
};

TEST(Logger, FilteredMessageDoesNotEvaluateExpression) {
  LogCapture capture(LogLevel::Warn);
  int evaluations = 0;
  const auto count = [&evaluations] { return ++evaluations; };
  FOCUS_LOG(Debug, "test", "side effect " << count());
  EXPECT_EQ(evaluations, 0);  // below the level: expression never ran
  FOCUS_LOG(Error, "test", "side effect " << count());
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(capture.text().find("[ERROR] test: side effect 1"),
            std::string::npos)
      << capture.text();
}

TEST(Logger, PlainFormatWithoutTimeSource) {
  ASSERT_FALSE(Logger::has_time_source());
  LogCapture capture(LogLevel::Info);
  FOCUS_LOG(Info, "component", "hello " << 7);
  EXPECT_EQ(capture.text(), "[INFO] component: hello 7\n");
}

TEST(Logger, SimTimePrefixWhileSimulatorExists) {
  sim::Simulator simulator;
  EXPECT_TRUE(Logger::has_time_source());
  simulator.schedule_at(1500, [] {});
  simulator.run();
  {
    LogCapture capture(LogLevel::Info);
    FOCUS_LOG(Info, "component", "stamped");
    EXPECT_EQ(capture.text(), "[INFO][t=1500us] component: stamped\n");
  }
}

TEST(Logger, TimeSourceClearsWithItsSimulator) {
  {
    sim::Simulator simulator;
    EXPECT_TRUE(Logger::has_time_source());
  }
  EXPECT_FALSE(Logger::has_time_source());
  // Nested lifetimes: destroying an outer simulator must not silence the
  // most recently constructed one (last-created-wins, ctx-matched clear).
  auto outer = std::make_unique<sim::Simulator>();
  sim::Simulator inner;
  outer.reset();
  EXPECT_TRUE(Logger::has_time_source());
}

// ---------------------------------------------------------------------------
// Types

TEST(Types, TimeConversions) {
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(to_millis(1500), 1.5);
  EXPECT_EQ(3 * kMinute, 180 * kSecond);
}

TEST(Types, NodeIdFormattingAndOrdering) {
  EXPECT_EQ(to_string(NodeId{17}), "node-17");
  EXPECT_LT(NodeId{1}, NodeId{2});
  EXPECT_EQ(NodeId{3}, NodeId{3});
}

TEST(Types, RegionNames) {
  EXPECT_STREQ(to_string(Region::Ohio), "us-east-2");
  EXPECT_STREQ(to_string(Region::AppEdge), "app-edge");
}

}  // namespace
}  // namespace focus
