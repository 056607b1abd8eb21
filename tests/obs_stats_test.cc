// The classic_stats replay harness over the shipped example program:
// phase structure, exact phase ops, registry totals and the JSON shape
// the golden schema check (scripts/check_stats_schema.py) validates;
// and over small temporary programs: read forms parse as the repl and
// the wire parse them, and an error answer fails the replay.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/metrics.h"
#include "obs/stats_runner.h"

namespace classic {
namespace {

using obs::Counter;

std::string UniversityPath() {
  return std::string(CLASSIC_EXAMPLES_DIR) + "/university.classic";
}

TEST(ObsStatsTest, ReplaysUniversityProgram) {
  auto report = obs::ReplayProgramWithStats(UniversityPath());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The fixed phase spine.
  ASSERT_EQ(report->phases.size(), 3u);
  EXPECT_EQ(report->phases[0].phase, "load");
  EXPECT_EQ(report->phases[1].phase, "publish");
  EXPECT_EQ(report->phases[2].phase, "query");

  // university.classic: 16 schema/update forms, 3 query forms.
  EXPECT_EQ(report->phases[0].ops, 16u);
  EXPECT_EQ(report->phases[1].ops, 1u);
  EXPECT_EQ(report->phases[2].ops, 3u);

#if CLASSIC_OBS
  // The load phase does the classification and propagation work; the
  // query phase serves through the engine.
  const auto counter = [](const obs::PhaseStats& p, Counter c) {
    return p.counters[static_cast<size_t>(c)];
  };
  EXPECT_GT(counter(report->phases[0], Counter::kClassifications), 0u);
  EXPECT_GT(counter(report->phases[0], Counter::kInstanceChecks), 0u);
  EXPECT_EQ(counter(report->phases[1], Counter::kEpochPublishes), 1u);
  EXPECT_EQ(counter(report->phases[2], Counter::kQueriesServed), 3u);

  EXPECT_EQ(report->registry.counter(Counter::kQueriesServed), 3u);
  EXPECT_EQ(report->registry.counter(Counter::kEpochPublishes), 1u);
#endif
}

TEST(ObsStatsTest, JsonReportHasStableShape) {
  auto report = obs::ReplayProgramWithStats(UniversityPath());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::string json = report->ToJson();

  EXPECT_NE(json.find("\"file\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"registry\""), std::string::npos);
  for (const char* phase : {"\"load\"", "\"publish\"", "\"query\""}) {
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }
  // Every phase renders the full counter catalog (stable key set).
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    const char* name = obs::CounterName(static_cast<Counter>(i));
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }
}

/// Writes `text` to a fresh program file under the test temp directory.
std::string WriteProgram(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

constexpr const char* kPersonSchema =
    "(define-concept PERSON (PRIMITIVE CLASSIC-THING person))\n"
    "(create-ind Alice PERSON)\n";

// Read forms are parsed by the repl's and the wire's parser, so a marked
// query keeps its whole operand and is really served.
TEST(ObsStatsTest, MarkedQueryIsServed) {
  const std::string path = WriteProgram(
      "obs_stats_marked.classic", std::string(kPersonSchema) +
                                      "(ask ?: PERSON)\n");
  auto report = obs::ReplayProgramWithStats(path);
  std::remove(path.c_str());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->phases.size(), 3u);
  EXPECT_EQ(report->phases[2].ops, 1u);
  EXPECT_EQ(report->planner[0].kind, "ask");
  EXPECT_EQ(report->planner[0].queries, 1u);
#if CLASSIC_OBS
  EXPECT_GE(report->phases[2]
                .counters[static_cast<size_t>(Counter::kNormalizations)],
            1u);
#endif
}

// A read whose answer is an error fails the replay, naming the form and
// the status.
TEST(ObsStatsTest, ErrorAnswerFailsTheReplay) {
  const std::string path = WriteProgram(
      "obs_stats_nobody.classic", std::string(kPersonSchema) +
                                      "(describe Nobody)\n");
  auto report = obs::ReplayProgramWithStats(path);
  std::remove(path.c_str());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
  const std::string message = report.status().message();
  EXPECT_NE(message.find("(describe Nobody)"), std::string::npos) << message;
  EXPECT_NE(message.find("NotFound"), std::string::npos) << message;
}

TEST(ObsStatsTest, UnreadableFileIsAnError) {
  auto report = obs::ReplayProgramWithStats("/nonexistent/prog.classic");
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace classic
