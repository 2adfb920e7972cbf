// fleet::Session against the round loop `fedsched_cli fleet` ran before the
// driver existed (cli_loop_oracle.hpp). For every planner on every
// scenario preset, serially and on a 4-thread pool, the driver must write
// the same trace bytes and metrics, return the same bound and every
// FleetRoundResult field bitwise, and leave the same fleet. The fleet has a
// finite deadline, crash dropouts, and a death floor of 0.2 over a
// state-of-charge range starting at 0.1, so the floor moves deaths, battery
// budgets and revivals.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_loop_oracle.hpp"
#include "fleet/session.hpp"

namespace fedsched::fleet {
namespace {

constexpr std::size_t kRounds = 3;
constexpr std::uint64_t kSeed = 23;

struct DriverCase {
  std::string policy;
  std::string scenario;
  std::size_t parallelism = 1;
};

void PrintTo(const DriverCase& c, std::ostream* os) {
  *os << c.policy << " on " << c.scenario << " at parallelism " << c.parallelism;
}

std::string case_name(const testing::TestParamInfo<DriverCase>& info) {
  std::string name = info.param.policy + "_" + info.param.scenario + "_p" +
                     std::to_string(info.param.parallelism);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

std::vector<DriverCase> all_cases() {
  std::vector<DriverCase> cases;
  for (const std::string& policy : planner_names()) {
    for (const std::string& scenario : scenario_names()) {
      for (const std::size_t parallelism : {1, 4}) {
        cases.push_back({policy, scenario, parallelism});
      }
    }
  }
  return cases;
}

SessionConfig case_config(const DriverCase& c) {
  SessionConfig config;
  config.mix.lte_fraction = 0.3;
  config.mix.soc_min = 0.1;
  config.mix.capacity_shards = 16;
  config.fleet_size = 3000;
  config.total_shards = 6000;
  config.policy = c.policy;
  config.buckets = 32;
  config.sim.deadline_s = 4.5;
  config.sim.dropout_prob = 0.1;
  config.sim.battery_floor_soc = 0.2;
  config.sim.update_dim = 16;
  config.sim.parallelism = c.parallelism;
  config.sim.seed = kSeed;
  config.dynamics = scenario_config(c.scenario, kSeed ^ 0x64796e616d696373ULL);
  return config;
}

void expect_same_round(const FleetRoundResult& a, const FleetRoundResult& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped_crash, b.dropped_crash);
  EXPECT_EQ(a.dropped_deadline, b.dropped_deadline);
  EXPECT_EQ(a.dropped_stale, b.dropped_stale);
  EXPECT_EQ(a.dropped_offline, b.dropped_offline);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.charge_edges, b.charge_edges);
  EXPECT_EQ(a.net_switches, b.net_switches);
  EXPECT_EQ(a.revivals, b.revivals);
  EXPECT_EQ(a.battery_deaths, b.battery_deaths);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.survivor_shards, b.survivor_shards);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.energy_wh, b.energy_wh);
  EXPECT_EQ(a.contributors, b.contributors);
  EXPECT_EQ(a.global_update, b.global_update);
}

class FleetSessionDriver : public testing::TestWithParam<DriverCase> {};

TEST_P(FleetSessionDriver, MatchesCliLoop) {
  const SessionConfig config = case_config(GetParam());

  std::ostringstream oracle_sink;
  obs::TraceWriter oracle_trace(oracle_sink);
  obs::MetricsRegistry oracle_metrics;
  const oracle::CliRun expected =
      oracle::cli_loop(config, kRounds, &oracle_trace, &oracle_metrics);

  std::ostringstream sink;
  obs::TraceWriter trace(sink);
  obs::MetricsRegistry metrics;
  Session session(config, &trace);
  std::size_t crashes = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const SessionRound got = session.step(round, &trace, &metrics);
    EXPECT_EQ(got.bound_s, expected.rounds[round].threshold_s);
    expect_same_round(got.result, expected.rounds[round].result);
    crashes += got.result.dropped_crash;
  }
  EXPECT_GT(crashes, 0u);  // the fault mix is not vacuous
  EXPECT_EQ(sink.str(), oracle_sink.str()) << "trace bytes differ";
  EXPECT_EQ(metrics.to_json(), oracle_metrics.to_json());
  EXPECT_EQ(session.state().battery_soc, expected.final_state.battery_soc);
  EXPECT_EQ(session.state().alive, expected.final_state.alive);
  EXPECT_EQ(session.state().network, expected.final_state.network);
}

INSTANTIATE_TEST_SUITE_P(PlannersByScenarios, FleetSessionDriver,
                         testing::ValuesIn(all_cases()), case_name);

TEST(FleetSession, UnknownPolicyThrowsBeforeGenerating) {
  std::ostringstream sink;
  obs::TraceWriter trace(sink);
  SessionConfig config;
  config.fleet_size = 100;
  config.policy = "fed_lbap";  // a scheduler function's name, not a planner name
  EXPECT_THROW((void)Session(config, &trace), std::invalid_argument);
  EXPECT_EQ(trace.events_written(), 0u);
  EXPECT_TRUE(sink.str().empty());
}

}  // namespace
}  // namespace fedsched::fleet
