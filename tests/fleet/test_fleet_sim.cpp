// Fleet discrete-event simulator: event-loop semantics (idle clients cost
// nothing, deadline/crash/battery drops, persistent battery drain) and the
// tree-aggregation determinism contract — the two-level reduction must be
// bit-identical to the flat survivor-weighted sum on seeded fault mixes, at
// every group size and pool width (the synthetic updates live on a 2^-16
// fixed-point grid, so every reduction order is exact in double).

#include "fleet/event_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "device/model_desc.hpp"
#include "fl/aggregate.hpp"
#include "fleet/fleet.hpp"
#include "sched/bucketed.hpp"

namespace fedsched::fleet {
namespace {

FleetState generated_fleet(std::size_t n, std::uint64_t seed) {
  FleetMix mix;
  mix.lte_fraction = 0.3;
  mix.capacity_shards = 16;
  return FleetGenerator(mix, device::lenet_desc(), seed).generate(n);
}

/// Hand-built two-client fleet with transparent numbers.
FleetState tiny_fleet() {
  FleetState s;
  const std::size_t n = 2;
  s.device_model.assign(n, 0);
  s.network.assign(n, 0);
  s.speed_factor.assign(n, 1.0);
  s.base_s = {1.0, 1.0};
  s.per_sample_s = {0.01, 0.02};  // client 1 is slower
  s.comm_s = {1.0, 1.0};
  s.battery_soc = {1.0, 1.0};
  s.battery_capacity_wh = {10.0, 10.0};
  s.train_power_w = {3600.0, 3600.0};  // 1 Wh per compute-second
  s.comm_energy_wh = {0.1, 0.1};
  s.temp_c = {25.0, 25.0};
  s.capacity_shards = {100, 100};
  s.alive.assign(n, 1);
  return s;
}

std::vector<std::size_t> bucketed_plan(const FleetState& state,
                                       std::size_t shard_size,
                                       std::size_t total_shards) {
  const sched::LinearCosts costs =
      linear_costs(state, shard_size, /*battery_floor_soc=*/0.05);
  return sched::fed_lbap_bucketed(costs, total_shards, 64)
      .assignment.shards_per_user;
}

TEST(FleetSim, SyntheticUpdatesLiveOnFixedPointGrid) {
  for (std::uint32_t client : {0u, 17u, 999999u}) {
    for (std::size_t i = 0; i < 64; ++i) {
      const double v = synthetic_update_value(42, 3, client, i);
      EXPECT_GE(v, -1.0);
      EXPECT_LT(v, 1.0);
      const double scaled = v * 65536.0;  // must be an exact integer
      EXPECT_EQ(scaled, std::floor(scaled));
      // Pure function: same inputs, same value.
      EXPECT_EQ(v, synthetic_update_value(42, 3, client, i));
    }
  }
}

TEST(FleetSim, IdleClientsCostNothing) {
  FleetSimConfig config;
  config.shard_size = 10;
  FleetSimulator sim(generated_fleet(400, 11), config);
  const std::vector<double> soc_before = sim.state().battery_soc;

  // Only the first 100 clients participate.
  std::vector<std::size_t> plan(400, 0);
  for (std::size_t j = 0; j < 100; ++j) plan[j] = 2;
  const FleetRoundResult r = sim.run_round(plan, 0);

  EXPECT_EQ(r.participants, 100u);
  EXPECT_EQ(r.events_processed, 100u);  // one event per participant, no more
  for (std::size_t j = 100; j < 400; ++j) {
    EXPECT_EQ(sim.state().battery_soc[j], soc_before[j]) << "idle client " << j;
  }
  for (std::size_t j = 0; j < 100; ++j) {
    EXPECT_LT(sim.state().battery_soc[j], soc_before[j]) << "busy client " << j;
  }
}

TEST(FleetSim, CompletedRoundHasExactMakespanAndEnergy) {
  FleetSimConfig config;
  config.shard_size = 100;
  FleetSimulator sim(tiny_fleet(), config);
  const std::vector<std::size_t> plan = {1, 1};
  const FleetRoundResult r = sim.run_round(plan, 0);
  EXPECT_EQ(r.completed, 2u);
  // finish = base + per_sample*100 + comm: client 0 -> 3.0, client 1 -> 4.0.
  EXPECT_DOUBLE_EQ(r.makespan_s, 4.0);
  // energy = compute_s * 1 Wh/s + 0.1 comm: (2.0 + 0.1) + (3.0 + 0.1).
  EXPECT_DOUBLE_EQ(r.energy_wh, 5.2);
  EXPECT_EQ(r.survivor_shards, 2u);
  EXPECT_EQ(r.contributors, (std::vector<std::uint32_t>{0, 1}));
}

TEST(FleetSim, DeadlineDropsStragglerAndPinsMakespan) {
  FleetSimConfig config;
  config.shard_size = 100;
  config.deadline_s = 3.5;  // client 1 finishes at 4.0 -> dropped
  FleetSimulator sim(tiny_fleet(), config);
  const std::vector<std::size_t> plan = {1, 1};
  const FleetRoundResult r = sim.run_round(plan, 0);
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.dropped_deadline, 1u);
  EXPECT_EQ(r.contributors, (std::vector<std::uint32_t>{0}));
  // With drops under a finite deadline the server holds the round open.
  EXPECT_DOUBLE_EQ(r.makespan_s, 3.5);
}

TEST(FleetSim, BatteryDeathIsPermanent) {
  FleetState fleet = tiny_fleet();
  fleet.battery_soc[1] = 0.25;  // one big share will drain it through the floor
  FleetSimConfig config;
  config.shard_size = 100;
  config.battery_floor_soc = 0.05;
  FleetSimulator sim(std::move(fleet), config);
  // Client 1 trains 1 shard: compute 3.0 s -> 3.1 Wh -> soc 0.25 - 0.31 < 0.
  const std::vector<std::size_t> plan = {1, 1};
  const FleetRoundResult r = sim.run_round(plan, 0);
  EXPECT_EQ(r.battery_deaths, 1u);
  EXPECT_EQ(sim.state().alive[1], 0);
  EXPECT_EQ(sim.state().alive[0], 1);
  // Dead clients leave the schedulable fleet via the cost view.
  const sched::LinearCosts costs =
      linear_costs(sim.state(), 100, config.battery_floor_soc);
  EXPECT_EQ(costs.capacity(1), 0u);
  EXPECT_GT(costs.capacity(0), 0u);
}

// Regression (hand-computed): a client whose report was already delivered
// before its battery hit the floor contributes to *this* round's aggregate;
// death only removes it from future rounds.
TEST(FleetSim, BatteryDeathAfterReportStillContributes) {
  FleetState fleet = tiny_fleet();
  fleet.battery_soc[1] = 0.25;
  FleetSimConfig config;
  config.shard_size = 100;
  config.battery_floor_soc = 0.05;
  config.deadline_s = 10.0;  // finite, but nobody misses it
  config.update_dim = 8;
  FleetSimulator sim(std::move(fleet), config);
  // Client 0: compute 2.0 s, finish 3.0. Client 1: compute 3.0 s, finish 4.0,
  // drain 3.1 Wh -> soc 0.25 - 0.31 clamps to 0 -> dies *after* reporting.
  const std::vector<std::size_t> plan = {1, 1};
  const FleetRoundResult r = sim.run_round(plan, 0);

  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.contributors, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(r.survivor_shards, 2u);
  EXPECT_EQ(r.battery_deaths, 1u);
  EXPECT_EQ(r.dropped_crash, 0u);
  EXPECT_EQ(r.dropped_deadline, 0u);
  EXPECT_EQ(r.dropped_stale, 0u);
  // No in-flight drop -> the round closes at the real makespan, not the
  // deadline; energy covers both attempts: (2.0 + 0.1) + (3.0 + 0.1).
  EXPECT_DOUBLE_EQ(r.makespan_s, 4.0);
  EXPECT_DOUBLE_EQ(r.energy_wh, 5.2);
  // The aggregate is the equal-weight mean over BOTH clients' updates.
  ASSERT_EQ(r.global_update.size(), config.update_dim);
  for (std::size_t i = 0; i < config.update_dim; ++i) {
    const double expected =
        (synthetic_update_value(config.seed, 0, 0, i) +
         synthetic_update_value(config.seed, 0, 1, i)) /
        2.0;
    EXPECT_EQ(r.global_update[i], expected) << "coordinate " << i;  // bitwise
  }
  // Death still sticks for the next round.
  EXPECT_EQ(sim.state().alive[1], 0);
}

// Regression (hand-computed): a plan entry targeting an already-dead client
// never starts and burns nothing — it must not hold the round open until the
// deadline the way an in-flight crash/deadline drop does.
TEST(FleetSim, StalePlanTargetDoesNotPinMakespanToDeadline) {
  FleetState fleet = tiny_fleet();
  fleet.battery_soc[1] = 0.25;
  FleetSimConfig config;
  config.shard_size = 100;
  config.battery_floor_soc = 0.05;
  config.deadline_s = 10.0;
  FleetSimulator sim(std::move(fleet), config);
  const std::vector<std::size_t> plan = {1, 1};
  sim.run_round(plan, 0);  // round 0 kills client 1's battery
  ASSERT_EQ(sim.state().alive[1], 0);

  // Same (now stale) plan again: client 1 is a no-op, client 0 finishes at
  // 3.0 s — the round closes there, not at the 10 s deadline.
  const FleetRoundResult r = sim.run_round(plan, 1);
  EXPECT_EQ(r.participants, 2u);
  EXPECT_EQ(r.events_processed, 1u);  // the dead client never queued an event
  EXPECT_EQ(r.dropped_stale, 1u);
  EXPECT_EQ(r.dropped_crash, 0u);
  EXPECT_EQ(r.dropped_deadline, 0u);
  EXPECT_EQ(r.battery_deaths, 0u);
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.contributors, (std::vector<std::uint32_t>{0}));
  EXPECT_DOUBLE_EQ(r.makespan_s, 3.0);
  // Only client 0's attempt burned energy: 2.0 compute + 0.1 comm.
  EXPECT_DOUBLE_EQ(r.energy_wh, 2.1);
}

TEST(FleetSim, CrashDropoutIsSeedDeterministic) {
  FleetSimConfig config;
  config.shard_size = 10;
  config.dropout_prob = 0.3;
  config.seed = 99;
  const std::vector<std::size_t> plan(600, 1);
  FleetSimulator a(generated_fleet(600, 21), config);
  FleetSimulator b(generated_fleet(600, 21), config);
  const FleetRoundResult ra = a.run_round(plan, 2);
  const FleetRoundResult rb = b.run_round(plan, 2);
  EXPECT_GT(ra.dropped_crash, 0u);
  EXPECT_EQ(ra.dropped_crash, rb.dropped_crash);
  EXPECT_EQ(ra.contributors, rb.contributors);
  EXPECT_EQ(ra.global_update, rb.global_update);
}

TEST(FleetSim, TreeAggregationBitIdenticalToFlatOnFaultMixes) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (std::size_t group_size : {64u, 1024u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " group=" + std::to_string(group_size));
      FleetSimConfig config;
      config.shard_size = 10;
      config.dropout_prob = 0.25;
      config.deadline_s = 1e6;
      config.update_dim = 48;
      config.group_size = group_size;
      config.seed = seed;
      FleetSimulator sim(generated_fleet(2000, seed), config);
      const std::vector<std::size_t> plan =
          bucketed_plan(sim.state(), config.shard_size, 4000);
      const FleetRoundResult r = sim.run_round(plan, 1);
      ASSERT_GT(r.completed, 0u);
      ASSERT_GT(r.dropped_crash, 0u);  // the mix must actually drop clients

      // Flat left-to-right oracle over the same survivor set.
      std::vector<std::uint32_t> weights(r.contributors.size());
      for (std::size_t m = 0; m < r.contributors.size(); ++m) {
        weights[m] = static_cast<std::uint32_t>(plan[r.contributors[m]]);
      }
      std::vector<double> flat = fl::flat_weighted_sum(
          r.contributors, weights, config.update_dim,
          [&](std::uint32_t client, std::span<double> out) {
            synthetic_update(config.seed, 1, client, out);
          });
      for (double& v : flat) v /= static_cast<double>(r.survivor_shards);
      ASSERT_EQ(r.global_update.size(), flat.size());
      for (std::size_t i = 0; i < flat.size(); ++i) {
        EXPECT_EQ(r.global_update[i], flat[i]) << "coordinate " << i;  // bitwise
      }
    }
  }
}

TEST(FleetSim, ParallelWidthsBitIdentical) {
  for (std::size_t parallelism : {2u, 4u}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    FleetSimConfig serial;
    serial.shard_size = 10;
    serial.dropout_prob = 0.2;
    serial.update_dim = 32;
    serial.group_size = 128;
    serial.seed = 7;
    FleetSimConfig parallel = serial;
    parallel.parallelism = parallelism;

    FleetSimulator a(generated_fleet(1500, 33), serial);
    FleetSimulator b(generated_fleet(1500, 33), parallel);
    const std::vector<std::size_t> plan =
        bucketed_plan(a.state(), serial.shard_size, 3000);
    for (std::size_t round = 0; round < 3; ++round) {
      const FleetRoundResult ra = a.run_round(plan, round);
      const FleetRoundResult rb = b.run_round(plan, round);
      SCOPED_TRACE("round=" + std::to_string(round));
      EXPECT_EQ(ra.completed, rb.completed);
      EXPECT_EQ(ra.contributors, rb.contributors);
      EXPECT_EQ(ra.makespan_s, rb.makespan_s);
      EXPECT_EQ(ra.energy_wh, rb.energy_wh);
      EXPECT_EQ(ra.global_update, rb.global_update);  // bitwise
    }
    EXPECT_EQ(a.state().battery_soc, b.state().battery_soc);
    EXPECT_EQ(a.state().alive, b.state().alive);
  }
}

TEST(FleetSim, BatteryDrainsMonotonicallyAcrossRounds) {
  FleetSimConfig config;
  config.shard_size = 10;
  FleetSimulator sim(generated_fleet(300, 44), config);
  const std::vector<std::size_t> plan(300, 1);
  std::vector<double> prev = sim.state().battery_soc;
  for (std::size_t round = 0; round < 4; ++round) {
    sim.run_round(plan, round);
    for (std::size_t j = 0; j < 300; ++j) {
      EXPECT_LE(sim.state().battery_soc[j], prev[j]);
    }
    prev = sim.state().battery_soc;
  }
}

TEST(FleetSim, Validation) {
  FleetSimConfig config;
  EXPECT_THROW(FleetSimulator(FleetState{}, config), std::invalid_argument);
  FleetSimulator sim(tiny_fleet(), config);
  const std::vector<std::size_t> short_plan = {1};
  EXPECT_THROW(sim.run_round(short_plan, 0),
               std::invalid_argument);  // plan size mismatch

  // A column shorter than device_model would be read out of bounds.
  FleetState misaligned = tiny_fleet();
  misaligned.battery_soc.pop_back();
  EXPECT_THROW(FleetSimulator(std::move(misaligned), config), std::invalid_argument);

  // Event times are built from these three columns: NaN breaks the round's
  // strict event order, infinity makes the churn span infinite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  FleetState nan_base = tiny_fleet();
  nan_base.base_s[1] = nan;
  EXPECT_THROW(FleetSimulator(std::move(nan_base), config), std::invalid_argument);
  FleetState inf_per_sample = tiny_fleet();
  inf_per_sample.per_sample_s[0] = inf;
  EXPECT_THROW(FleetSimulator(std::move(inf_per_sample), config), std::invalid_argument);
  FleetState nan_comm = tiny_fleet();
  nan_comm.comm_s[0] = -nan;
  EXPECT_THROW(FleetSimulator(std::move(nan_comm), config), std::invalid_argument);
}

TEST(FleetSim, RejectsOutOfRangeDeadlineDropoutAndFloor) {
  // The ranges parse_fleet enforces on a coordinator fleet spec, so a CLI
  // fleet run fails on the values a coordinator run fails on.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double deadline : {0.0, -3.0, nan}) {
    FleetSimConfig config;
    config.deadline_s = deadline;
    EXPECT_THROW(FleetSimulator(tiny_fleet(), config), std::invalid_argument) << deadline;
  }
  for (const double dropout : {-0.1, 1.5, nan}) {
    FleetSimConfig config;
    config.dropout_prob = dropout;
    EXPECT_THROW(FleetSimulator(tiny_fleet(), config), std::invalid_argument) << dropout;
  }
  for (const double floor : {-0.5, 1.0, 1.5, nan}) {
    FleetSimConfig config;
    config.battery_floor_soc = floor;
    EXPECT_THROW(FleetSimulator(tiny_fleet(), config), std::invalid_argument) << floor;
  }
  // The closed ends stay valid: no deadline, certain dropout, a zero floor.
  FleetSimConfig edges;
  edges.deadline_s = std::numeric_limits<double>::infinity();
  edges.dropout_prob = 1.0;
  edges.battery_floor_soc = 0.0;
  EXPECT_NO_THROW(FleetSimulator(tiny_fleet(), edges));
}

}  // namespace
}  // namespace fedsched::fleet
