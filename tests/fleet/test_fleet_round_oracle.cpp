// FleetSimulator::run_round against the event-heap loop it replaced
// (heap_round_oracle.hpp): the simulator sorts each round's events once,
// emits contributors in id order and runs its per-client dynamics passes on
// its pool. Both sides run on identically built (state, dynamics) pairs, and
// every round must agree bitwise: each FleetRoundResult field, the
// contributor list, the global update, the dynamics snapshot and the fleet
// columns the round writes.
//
// The cases cover the five scenario presets, the dynamic benchmark mix
// (charge-gated with churn and WiFi<->LTE flaps) and a tie-heavy fleet whose
// clients share finish times while drawing different power, so any change
// in the order of equal-time events moves the energy sum. Every case runs
// with crash dropouts and a finite deadline, serially and on a 4-thread
// pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "device/model_desc.hpp"
#include "fleet/dynamics.hpp"
#include "fleet/event_sim.hpp"
#include "fleet/fleet.hpp"
#include "heap_round_oracle.hpp"
#include "sched/bucketed.hpp"

namespace fedsched::fleet {
namespace {

constexpr std::size_t kClients = 20'000;
constexpr std::size_t kRounds = 3;
constexpr std::uint64_t kSeed = 19;

struct OracleCase {
  std::string name;
  std::size_t parallelism = 1;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.name << " at parallelism " << c.parallelism;
}

std::string case_name(const testing::TestParamInfo<OracleCase>& info) {
  std::string name = info.param.name + "_p" + std::to_string(info.param.parallelism);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

bool tie_heavy(const std::string& name) { return name == "tie-heavy"; }

FleetMix case_mix(const std::string& name) {
  FleetMix mix;
  mix.lte_fraction = 0.3;
  if (tie_heavy(name)) {
    // One device model on one network with no speed jitter: clients with
    // equal shard counts finish at the same instant.
    mix.device_weights = {1.0, 0.0, 0.0, 0.0};
    mix.lte_fraction = 0.0;
    mix.speed_sigma = 0.0;
  }
  return mix;
}

DynamicsConfig case_dynamics(const std::string& name) {
  if (name == "dynamic-mix") {
    // The fleet-dynamic-1m mix: charge-gated plus churn and net flaps.
    DynamicsConfig config = scenario_config("charge-gated", kSeed);
    config.join_fraction_per_round = 0.02;
    config.leave_prob_per_round = 0.02;
    config.net_switch_prob_per_round = 0.2;
    return config;
  }
  if (tie_heavy(name)) {
    // Integer cycle lengths and phases (set in build_side) put availability
    // closures and charge edges on the same integer instants as finishes.
    DynamicsConfig config;
    config.enabled = true;
    config.seed = kSeed;
    config.diurnal = true;
    config.day_period_s = 1024.0;
    config.day_fraction = 0.5;
    config.charging = true;
    config.charge_period_s = 256.0;
    config.charge_fraction = 0.25;
    config.join_fraction_per_round = 0.02;
    config.leave_prob_per_round = 0.02;
    config.net_switch_prob_per_round = 0.2;
    config.round_gap_s = 64.0;
    return config;
  }
  return scenario_config(name, kSeed);
}

/// One side of the comparison: a fleet and its dynamics layer.
struct Side {
  FleetState state;
  ClientDynamics dynamics;
};

Side build_side(const std::string& name, const FleetGenerator& generator) {
  Side side{generator.generate(kClients), ClientDynamics(case_dynamics(name), &generator)};
  if (tie_heavy(name)) {
    // Dyadic timing: compute = 1 + k seconds for k shards of 128 samples,
    // finish = 2 + k, all exact. Power varies, so equal-time drains differ.
    // Every fifth client has a tiny pack just above the death floor: one
    // attempt kills it and the charge between rounds revives it, in every
    // client chunk.
    FleetState& s = side.state;
    for (std::size_t j = 0; j < s.size(); ++j) {
      s.base_s[j] = 1.0;
      s.per_sample_s[j] = 0x1.0p-7;
      s.comm_s[j] = 1.0;
      s.train_power_w[j] *= 1.0 + static_cast<double>(j % 13) / 64.0;
      if (j % 5 == 0) {
        s.battery_capacity_wh[j] = 0.05;
        s.battery_soc[j] = 0.06;
      }
    }
    side.dynamics.ensure_size(s.size());
    DynamicsSnapshot snap = side.dynamics.snapshot();
    for (std::size_t j = 0; j < s.size(); ++j) {
      snap.avail_phase[j] = static_cast<double>((j * 37) % 1024);
      snap.charge_phase[j] = static_cast<double>((j * 11) % 256);
    }
    side.dynamics.restore(snap);
  }
  return side;
}

std::size_t case_shard_size(const std::string& name) {
  return tie_heavy(name) ? 128 : 100;
}

/// A fixed plan: 2 shards per schedulable client, 3 for every third id, so
/// the tie-heavy fleet finishes at 4 s or 5 s. Every seventh client gets
/// shards even when the dynamics layer masks it out, which makes stale plan
/// entries.
std::vector<std::size_t> plan_round(const FleetState& state, ClientDynamics& dynamics,
                                    std::size_t shard_size) {
  const sched::LinearCosts costs = dynamic_linear_costs(
      state, shard_size, dynamics, dynamics.config().battery_floor_soc);
  std::vector<std::size_t> plan(costs.users(), 0);
  for (std::size_t j = 0; j < plan.size(); ++j) {
    if (costs.capacity(j) > 0 || j % 7 == 0) plan[j] = j % 3 == 0 ? 3 : 2;
  }
  return plan;
}

/// The 60th percentile of the planned finish times of the live clients: a
/// deadline that drops the slowest 40% of them.
double finish_quantile(const FleetState& state, const std::vector<std::size_t>& plan,
                       std::size_t shard_size) {
  std::vector<double> finish;
  for (std::size_t j = 0; j < plan.size(); ++j) {
    if (plan[j] == 0 || state.alive[j] == 0) continue;
    finish.push_back(state.base_s[j] +
                     state.per_sample_s[j] * static_cast<double>(plan[j] * shard_size) +
                     state.comm_s[j]);
  }
  const auto at = finish.begin() + static_cast<std::ptrdiff_t>(finish.size() * 3 / 5);
  std::nth_element(finish.begin(), at, finish.end());
  return *at;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_result(const FleetRoundResult& got, const FleetRoundResult& want) {
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.participants, want.participants);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.dropped_crash, want.dropped_crash);
  EXPECT_EQ(got.dropped_deadline, want.dropped_deadline);
  EXPECT_EQ(got.dropped_stale, want.dropped_stale);
  EXPECT_EQ(got.dropped_offline, want.dropped_offline);
  EXPECT_EQ(got.joins, want.joins);
  EXPECT_EQ(got.leaves, want.leaves);
  EXPECT_EQ(got.charge_edges, want.charge_edges);
  EXPECT_EQ(got.net_switches, want.net_switches);
  EXPECT_EQ(got.revivals, want.revivals);
  EXPECT_EQ(got.battery_deaths, want.battery_deaths);
  EXPECT_EQ(got.events_processed, want.events_processed);
  EXPECT_EQ(got.survivor_shards, want.survivor_shards);
  EXPECT_EQ(bits(got.makespan_s), bits(want.makespan_s));
  EXPECT_EQ(bits(got.energy_wh), bits(want.energy_wh))
      << got.energy_wh << " vs " << want.energy_wh;
  EXPECT_EQ(got.contributors, want.contributors);
  EXPECT_TRUE(same_bits(got.global_update, want.global_update));
}

void expect_same_state(const FleetState& got, const FleetState& want) {
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(same_bits(got.battery_soc, want.battery_soc));
  EXPECT_TRUE(same_bits(got.alive, want.alive));
  EXPECT_TRUE(same_bits(got.network, want.network));
  EXPECT_TRUE(same_bits(got.comm_s, want.comm_s));
  EXPECT_TRUE(same_bits(got.comm_energy_wh, want.comm_energy_wh));
}

void expect_same_dynamics(const ClientDynamics& got, const ClientDynamics& want) {
  const DynamicsSnapshot a = got.snapshot();
  const DynamicsSnapshot b = want.snapshot();
  EXPECT_EQ(bits(a.now_s), bits(b.now_s));
  EXPECT_TRUE(same_bits(a.departed, b.departed));
  EXPECT_TRUE(same_bits(a.avail_phase, b.avail_phase));
  EXPECT_TRUE(same_bits(a.charge_phase, b.charge_phase));
}

class FleetRoundOracle : public testing::TestWithParam<OracleCase> {};

TEST_P(FleetRoundOracle, SortedRoundMatchesHeapLoop) {
  const std::string& name = GetParam().name;
  const FleetGenerator generator(case_mix(name), device::lenet_desc(), kSeed);
  const std::size_t shard_size = case_shard_size(name);

  Side sim_side = build_side(name, generator);
  Side heap_side = build_side(name, generator);

  FleetSimConfig config;
  config.shard_size = shard_size;
  config.dropout_prob = 0.1;
  config.update_dim = 16;
  config.group_size = 512;
  config.parallelism = GetParam().parallelism;
  config.seed = kSeed;
  // A finite deadline: the tie-heavy fleet's is 4 s, an integer, so its
  // dynamics clock stays on the integer grid.
  config.deadline_s = finish_quantile(
      sim_side.state, plan_round(sim_side.state, sim_side.dynamics, shard_size),
      shard_size);

  FleetSimulator sim(std::move(sim_side.state), config);
  ClientDynamics* sim_dyn = &sim_side.dynamics;
  ClientDynamics* heap_dyn = &heap_side.dynamics;
  const bool dyn = sim_dyn->enabled();

  std::size_t dropped_deadline = 0;
  std::size_t revivals = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<std::size_t> plan =
        plan_round(sim.state(), *sim_dyn, shard_size);
    const FleetRoundResult got =
        sim.run_round(plan, round, nullptr, dyn ? sim_dyn : nullptr);
    const FleetRoundResult want = oracle::heap_run_round(
        heap_side.state, config, plan, round, dyn ? heap_dyn : nullptr);
    expect_same_result(got, want);
    expect_same_state(sim.state(), heap_side.state);
    expect_same_dynamics(*sim_dyn, *heap_dyn);
    ASSERT_FALSE(testing::Test::HasFailure());

    EXPECT_GT(got.completed, 0u);
    EXPECT_GT(got.dropped_crash, 0u);
    dropped_deadline += got.dropped_deadline;
    revivals += got.revivals;
  }
  EXPECT_GT(dropped_deadline, 0u) << "the deadline must bite in some round";
  if (tie_heavy(name)) {
    EXPECT_GT(revivals, 0u);
  }
}

// The sort orders times through an integer image of their bits: negative
// times must come first, and -0.0 must tie with +0.0 so the client id
// decides, as it did in the heap.
TEST(FleetRoundOracle, SignedAndZeroFinishTimesKeepTheHeapOrder) {
  FleetState s;
  const std::size_t n = 60;
  const double kBase[] = {-3.0, -1.5, -0.0, 0.0, 1.5, -0.0};
  s.device_model.assign(n, 0);
  s.network.assign(n, 0);
  s.speed_factor.assign(n, 1.0);
  s.battery_soc.assign(n, 1.0);
  s.battery_capacity_wh.assign(n, 10.0);
  s.comm_energy_wh.assign(n, 0.1);
  s.temp_c.assign(n, 25.0);
  s.capacity_shards.assign(n, 8);
  s.alive.assign(n, 1);
  for (std::size_t j = 0; j < n; ++j) {
    // Finish = base + per_sample * samples + comm: -0.0 + -0.0 + -0.0 is
    // -0.0, and a -0.0 base plus +0.0 terms is +0.0.
    s.base_s.push_back(kBase[j % 6]);
    s.per_sample_s.push_back(j % 6 == 2 ? -0.0 : 0.0);
    s.comm_s.push_back(j % 6 == 2 ? -0.0 : 0.0);
    s.train_power_w.push_back(3600.0 + 7.0 * static_cast<double>(j));
  }
  FleetSimConfig config;
  config.shard_size = 10;
  config.update_dim = 4;
  FleetState heap_state = s;
  FleetSimulator sim(std::move(s), config);
  const std::vector<std::size_t> plan(n, 1);
  const FleetRoundResult got = sim.run_round(plan, 0);
  const FleetRoundResult want = oracle::heap_run_round(heap_state, config, plan, 0);
  expect_same_result(got, want);
  expect_same_state(sim.state(), heap_state);
  EXPECT_EQ(got.completed, n);
}

// Without dynamics the walk takes an attempt's compute span as finish - comm,
// which is not bitwise the span computed at admission. Packs sized so one
// attempt drains about a third of the battery make a one-ulp change in a
// drain show in the state of charge.
TEST(FleetRoundOracle, StaticDrainUsesFinishMinusComm) {
  FleetMix mix;
  mix.lte_fraction = 0.3;
  FleetState s = FleetGenerator(mix, device::lenet_desc(), kSeed).generate(2000);
  FleetSimConfig config;
  config.shard_size = 100;
  config.battery_floor_soc = 0.0;
  config.update_dim = 4;
  const std::vector<std::size_t> plan(s.size(), 2);
  std::size_t inexact = 0;
  for (std::size_t j = 0; j < s.size(); ++j) {
    const double compute_s = s.base_s[j] + s.per_sample_s[j] * 200.0;
    if ((compute_s + s.comm_s[j]) - s.comm_s[j] != compute_s) ++inexact;
    s.battery_capacity_wh[j] =
        3.0 * (s.train_power_w[j] * compute_s / 3600.0 + s.comm_energy_wh[j]);
  }
  ASSERT_GT(inexact, 0u) << "no client tells the two spans apart";
  FleetState heap_state = s;
  FleetSimulator sim(std::move(s), config);
  const FleetRoundResult got = sim.run_round(plan, 0);
  const FleetRoundResult want = oracle::heap_run_round(heap_state, config, plan, 0);
  expect_same_result(got, want);
  expect_same_state(sim.state(), heap_state);
}

std::vector<OracleCase> oracle_cases() {
  std::vector<std::string> names = scenario_names();
  names.push_back("dynamic-mix");
  names.push_back("tie-heavy");
  std::vector<OracleCase> cases;
  for (const std::string& name : names) {
    for (std::size_t parallelism : {1u, 4u}) cases.push_back({name, parallelism});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, FleetRoundOracle, testing::ValuesIn(oracle_cases()),
                         case_name);

}  // namespace
}  // namespace fedsched::fleet
