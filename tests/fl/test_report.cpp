#include "fl/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace fedsched::fl {
namespace {

RunResult sample_result() {
  RunResult result;
  RoundRecord r0;
  r0.round = 0;
  r0.round_seconds = 10.0;
  r0.cumulative_seconds = 10.0;
  r0.mean_train_loss = 1.5;
  r0.test_accuracy = 0.6;
  r0.client_seconds = {10.0, 4.0, 0.0};
  r0.completed_clients = 2;
  r0.dropped_clients = 1;
  r0.retry_count = 3;
  r0.client_faults = {FaultKind::kNone, FaultKind::kNone, FaultKind::kCrash};
  RoundRecord r1;
  r1.round = 1;
  r1.round_seconds = 8.0;
  r1.cumulative_seconds = 18.0;
  r1.mean_train_loss = 0.9;
  r1.test_accuracy = -1.0;  // not evaluated
  r1.client_seconds = {8.0, 3.5, 0.0};
  result.rounds = {r0, r1};
  result.total_seconds = 18.0;
  result.final_accuracy = 0.8;
  return result;
}

TEST(Report, RoundTableShape) {
  const auto table = round_table(sample_result());
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.cols(), 8u);
  EXPECT_EQ(std::get<long long>(table.at(1, 0)), 1);
  EXPECT_NE(table.to_ascii().find("cumulative_s"), std::string::npos);
  // Fault columns ride along: completed / dropped / retries per round.
  EXPECT_NE(table.to_ascii().find("dropped"), std::string::npos);
  EXPECT_EQ(std::get<long long>(table.at(0, 5)), 2);
  EXPECT_EQ(std::get<long long>(table.at(0, 6)), 1);
  EXPECT_EQ(std::get<long long>(table.at(0, 7)), 3);
}

TEST(Report, FaultSummaryRollsUpKinds) {
  const std::string summary = fault_summary(sample_result());
  EXPECT_NE(summary.find("2 completed"), std::string::npos);
  EXPECT_NE(summary.find("1 dropped"), std::string::npos);
  EXPECT_NE(summary.find("3 retries"), std::string::npos);
  EXPECT_NE(summary.find("crash=1"), std::string::npos);
}

TEST(Report, FaultSummaryCleanRun) {
  const std::string summary = fault_summary(RunResult{});
  EXPECT_NE(summary.find("0 dropped"), std::string::npos);
  EXPECT_EQ(summary.find("crash"), std::string::npos);
}

TEST(Report, TimelineMarksStragglerAndIdle) {
  const auto result = sample_result();
  const std::string timeline =
      round_timeline(result.rounds[0], {"slow", "fast", "idle"}, 20);
  EXPECT_NE(timeline.find("slow"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);    // straggler bar
  EXPECT_NE(timeline.find('='), std::string::npos);    // normal bar
  EXPECT_NE(timeline.find("(idle)"), std::string::npos);
  // Straggler bar is the longest: 20 chars of '#'.
  EXPECT_NE(timeline.find(std::string(20, '#')), std::string::npos);
}

TEST(Report, TimelineClampsDeadlineTruncatedRound) {
  // Regression: under a missed deadline the round's makespan is recorded as
  // the deadline, but the dropped client stayed busy *longer* than that —
  // the proportional bar must clamp to `width` instead of overflowing.
  RoundRecord record;
  record.round = 0;
  record.round_seconds = 100.0;  // the deadline
  record.cumulative_seconds = 100.0;
  record.client_seconds = {40.0, 250.0};  // dropped client: 2.5x the makespan
  record.completed_clients = 1;
  record.dropped_clients = 1;
  record.client_faults = {FaultKind::kNone, FaultKind::kDeadlineMiss};

  const std::size_t width = 20;
  const std::string timeline = round_timeline(record, {"ok", "late"}, width);
  std::istringstream lines(timeline);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t bars = 0;
    for (char c : line) bars += (c == '=' || c == '#' || c == 'x');
    EXPECT_LE(bars, width) << line;
  }
  // The dropped client renders with the fault glyph and its fault name, not
  // as a straggler bar.
  EXPECT_NE(timeline.find(std::string(width, 'x')), std::string::npos);
  EXPECT_NE(timeline.find("deadline"), std::string::npos);
  EXPECT_EQ(timeline.find('#'), std::string::npos);  // no one *at* makespan
}

TEST(Report, TimelineValidation) {
  const auto result = sample_result();
  EXPECT_THROW((void)round_timeline(result.rounds[0], {"a"}, 20),
               std::invalid_argument);
  EXPECT_THROW((void)round_timeline(result.rounds[0], {"a", "b", "c"}, 0),
               std::invalid_argument);
}

TEST(Report, RecoveryTableRowsPerClient) {
  RunResult result = sample_result();
  health::ClientHealth healthy;
  healthy.speed_ewma = 1.25;
  healthy.total_faults = 1;
  healthy.total_retries = 3;
  healthy.reassigned_shards = 4;
  health::ClientHealth dead;
  dead.status = health::ClientStatus::kDead;
  dead.total_faults = 2;
  dead.probations = 1;
  result.client_health = {healthy, dead};

  const auto table = recovery_table(result, {"Nexus6(a)", "Pixel2(a)"});
  ASSERT_EQ(table.rows(), 2u);
  ASSERT_EQ(table.cols(), 7u);
  EXPECT_NE(table.to_ascii().find("shards_reassigned"), std::string::npos);
  // client, status, speed_mult, faults, retries, probations, shards_reassigned
  EXPECT_EQ(std::get<std::string>(table.at(0, 0)), "Nexus6(a)");
  EXPECT_EQ(std::get<std::string>(table.at(0, 1)), "healthy");
  EXPECT_EQ(std::get<double>(table.at(0, 2)), 1.25);
  EXPECT_EQ(std::get<long long>(table.at(0, 3)), 1);
  EXPECT_EQ(std::get<long long>(table.at(0, 4)), 3);
  EXPECT_EQ(std::get<long long>(table.at(0, 5)), 0);
  EXPECT_EQ(std::get<long long>(table.at(0, 6)), 4);
  EXPECT_EQ(std::get<std::string>(table.at(1, 0)), "Pixel2(a)");
  EXPECT_EQ(std::get<std::string>(table.at(1, 1)), "dead");
  EXPECT_EQ(std::get<double>(table.at(1, 2)), 1.0);
  EXPECT_EQ(std::get<long long>(table.at(1, 3)), 2);
  EXPECT_EQ(std::get<long long>(table.at(1, 4)), 0);
  EXPECT_EQ(std::get<long long>(table.at(1, 5)), 1);
  EXPECT_EQ(std::get<long long>(table.at(1, 6)), 0);
}

TEST(Report, RecoveryTableValidation) {
  // No health state: the run neither rescheduled nor replicated.
  EXPECT_THROW((void)recovery_table(sample_result(), {"a", "b"}), std::invalid_argument);
  RunResult result = sample_result();
  result.client_health.resize(2);
  EXPECT_THROW((void)recovery_table(result, {"a"}), std::invalid_argument);
  EXPECT_THROW((void)recovery_table(result, {"a", "b", "c"}), std::invalid_argument);
}

TEST(Report, EmptyResult) {
  const RunResult empty;
  EXPECT_EQ(round_table(empty).rows(), 0u);
}

}  // namespace
}  // namespace fedsched::fl
