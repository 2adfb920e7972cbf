// Cross-runner determinism matrix — the single place the parallel contract
// is pinned: for FedAvg x faults {off, on} x replication {off, on}, a serial
// (--parallel 1) and a four-lane (--parallel 4) run must agree bit-for-bit
// on the RunResult *and* on the trace bytes. The gossip and async ablation
// runners model no faults, replication or traces, so each has one cell: the
// two widths must agree on every result field. Replaces the per-runner
// one-off determinism tests that used to live in
// tests/fl/test_parallel_determinism.cpp.
//
// Labeled `slow` in tests/CMakeLists.txt: the release CI job runs the full
// matrix, the TSan job runs the filtered core suites instead.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "data/synth.hpp"
#include "fl/async_runner.hpp"
#include "fl/gossip_runner.hpp"
#include "fl/runner.hpp"
#include "fleet/event_sim.hpp"
#include "fleet/fleet.hpp"
#include "obs/trace.hpp"
#include "sched/bucketed.hpp"

namespace fedsched::fl {
namespace {

struct Fixture {
  data::SynthConfig cfg = data::mnist_like();
  data::Dataset train = data::generate_balanced(cfg, 300, 60);
  data::Dataset test = data::generate_balanced(cfg, 100, 61);
  // Five clients against four lanes: chunks are uneven on purpose.
  std::vector<device::PhoneModel> phones = {
      device::PhoneModel::kNexus6, device::PhoneModel::kNexus6P,
      device::PhoneModel::kMate10, device::PhoneModel::kPixel2,
      device::PhoneModel::kNexus6};
  nn::ModelSpec spec;

  data::Partition partition() const {
    common::Rng rng(62);
    return data::partition_equal_iid(train, phones.size(), rng);
  }
};

struct Axes {
  bool faults = false;
  bool replication = false;
};

// Deterministic fault mix used by every "faults on" cell: hazards high
// enough that crashes, stalls, and flaky uploads all fire within 4 rounds
// on a 5-client fleet, which is what gives the replication planner real
// risk scores to hedge.
FaultConfig fault_mix() {
  FaultConfig faults;
  faults.enabled = true;
  faults.dropout_prob = 0.2;
  faults.stall_prob = 0.2;
  faults.transient_prob = 0.2;
  return faults;
}

replication::ReplicationConfig risk_replication() {
  replication::ReplicationConfig replicate;
  replicate.policy = replication::ReplicationPolicy::kRisk;
  replicate.budget_per_round = 2;
  replicate.risk_threshold = 0.2;
  return replicate;
}

std::string axes_name(const Axes& axes) {
  return std::string(axes.faults ? "faults" : "clean") + "/" +
         (axes.replication ? "replicated" : "plain");
}

const std::vector<Axes> kAxes = {
    {false, false}, {true, false}, {false, true}, {true, true}};

// ---- FedAvg -------------------------------------------------------------

struct FedAvgRun {
  RunResult result;
  std::vector<float> params;
  std::string trace;
};

FedAvgRun run_fedavg(const Fixture& f, const data::Partition& partition,
                     const Axes& axes, std::size_t parallelism) {
  std::ostringstream sink;
  obs::TraceWriter trace(sink);
  FlConfig config;
  config.rounds = 4;
  config.seed = 63;
  config.evaluate_each_round = true;
  config.parallelism = parallelism;
  if (axes.faults) config.faults = fault_mix();
  if (axes.replication) config.replicate = risk_replication();
  config.trace = &trace;
  FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                      device::NetworkType::kWifi, config);
  FedAvgRun run;
  run.result = runner.run(partition);
  run.params = runner.global_model().flat_params();
  run.trace = sink.str();
  return run;
}

void expect_identical_rounds(const std::vector<RoundRecord>& a,
                             const std::vector<RoundRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    SCOPED_TRACE(::testing::Message() << "round " << r);
    EXPECT_EQ(a[r].round, b[r].round);
    EXPECT_EQ(a[r].round_seconds, b[r].round_seconds);
    EXPECT_EQ(a[r].cumulative_seconds, b[r].cumulative_seconds);
    EXPECT_EQ(a[r].mean_train_loss, b[r].mean_train_loss);
    EXPECT_EQ(a[r].test_accuracy, b[r].test_accuracy);
    EXPECT_EQ(a[r].client_seconds, b[r].client_seconds);
    EXPECT_EQ(a[r].client_faults, b[r].client_faults);
    EXPECT_EQ(a[r].completed_clients, b[r].completed_clients);
    EXPECT_EQ(a[r].dropped_clients, b[r].dropped_clients);
    EXPECT_EQ(a[r].retry_count, b[r].retry_count);
    EXPECT_EQ(a[r].replicas_assigned, b[r].replicas_assigned);
    EXPECT_EQ(a[r].replicas_won, b[r].replicas_won);
    EXPECT_EQ(a[r].shares_rescued, b[r].shares_rescued);
  }
}

void expect_identical_replica_logs(
    const std::vector<replication::ShareResolution>& a,
    const std::vector<replication::ShareResolution>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "resolution " << k);
    EXPECT_EQ(a[k].owner, b[k].owner);
    EXPECT_EQ(a[k].arrived, b[k].arrived);
    EXPECT_EQ(a[k].rescued, b[k].rescued);
    EXPECT_EQ(a[k].winner, b[k].winner);
    EXPECT_EQ(a[k].finish_s, b[k].finish_s);
    EXPECT_EQ(a[k].replicas, b[k].replicas);
    EXPECT_EQ(a[k].replicas_completed, b[k].replicas_completed);
  }
}

TEST(DeterminismMatrix, FedAvgSerialVsParallelEveryCell) {
  Fixture f;
  const auto partition = f.partition();
  for (const Axes& axes : kAxes) {
    SCOPED_TRACE(axes_name(axes));
    const FedAvgRun serial = run_fedavg(f, partition, axes, 1);
    const FedAvgRun parallel = run_fedavg(f, partition, axes, 4);

    expect_identical_rounds(serial.result.rounds, parallel.result.rounds);
    expect_identical_replica_logs(serial.result.replica_log,
                                  parallel.result.replica_log);
    EXPECT_EQ(serial.result.final_accuracy, parallel.result.final_accuracy);
    EXPECT_EQ(serial.result.total_seconds, parallel.result.total_seconds);
    ASSERT_EQ(serial.params.size(), parallel.params.size());
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < serial.params.size(); ++i) {
      mismatched += (serial.params[i] != parallel.params[i]);
    }
    EXPECT_EQ(mismatched, 0u) << "final flat params differ";
    EXPECT_EQ(serial.trace, parallel.trace) << "trace bytes differ";
  }
}

TEST(DeterminismMatrix, FedAvgMatrixIsNotVacuous) {
  // The faults+replication cell must actually exercise the hedging path —
  // otherwise the matrix silently degenerates to the plain contract.
  Fixture f;
  const auto partition = f.partition();
  const FedAvgRun run = run_fedavg(f, partition, {true, true}, 1);
  std::size_t assigned = 0;
  for (const RoundRecord& r : run.result.rounds) assigned += r.replicas_assigned;
  EXPECT_GT(assigned, 0u) << "fault mix never triggered a replica; the "
                             "replication cells test nothing";
  EXPECT_FALSE(run.result.replica_log.empty());
}

TEST(DeterminismMatrix, FedAvgOffPolicyLeavesBytesUntouched) {
  // `--replicate-policy off` must be byte-identical to a config that never
  // mentions replication: same RunResult, same trace bytes (the acceptance
  // criterion for a gated feature).
  Fixture f;
  const auto partition = f.partition();
  const Axes with_faults{true, false};
  const FedAvgRun baseline = run_fedavg(f, partition, with_faults, 1);

  std::ostringstream sink;
  obs::TraceWriter trace(sink);
  FlConfig config;
  config.rounds = 4;
  config.seed = 63;
  config.evaluate_each_round = true;
  config.parallelism = 1;
  config.faults = fault_mix();
  config.replicate.policy = replication::ReplicationPolicy::kOff;
  config.replicate.budget_per_round = 7;  // ignored when off
  config.trace = &trace;
  FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                      device::NetworkType::kWifi, config);
  const RunResult off = runner.run(partition);

  expect_identical_rounds(baseline.result.rounds, off.rounds);
  EXPECT_EQ(baseline.result.final_accuracy, off.final_accuracy);
  EXPECT_EQ(baseline.result.total_seconds, off.total_seconds);
  EXPECT_TRUE(off.replica_log.empty());
  EXPECT_TRUE(off.client_health.empty());
  EXPECT_EQ(baseline.trace, sink.str()) << "off policy altered trace bytes";
}

TEST(DeterminismMatrix, FedAvgReferenceKernels1v4BitIdentical) {
  // KernelPolicy::kReference must honor the same contract as the default
  // blocked kernels (carried over from the old per-runner suite).
  Fixture f;
  f.spec.kernels = tensor::ops::KernelPolicy::kReference;
  const auto partition = f.partition();
  const Axes plain{false, false};
  const FedAvgRun serial = run_fedavg(f, partition, plain, 1);
  const FedAvgRun parallel = run_fedavg(f, partition, plain, 4);
  expect_identical_rounds(serial.result.rounds, parallel.result.rounds);
  ASSERT_EQ(serial.params.size(), parallel.params.size());
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < serial.params.size(); ++i) {
    mismatched += (serial.params[i] != parallel.params[i]);
  }
  EXPECT_EQ(mismatched, 0u) << "final flat params differ (reference kernels)";
  EXPECT_EQ(serial.trace, parallel.trace);
}

TEST(DeterminismMatrix, FedAvgHardwareWidthMatchesToo) {
  // parallelism = 0 (hardware concurrency, whatever this host has) must
  // agree with the serial path, including under faults + replication.
  Fixture f;
  const auto partition = f.partition();
  const Axes axes{true, true};
  const FedAvgRun serial = run_fedavg(f, partition, axes, 1);
  const FedAvgRun hardware = run_fedavg(f, partition, axes, 0);
  EXPECT_EQ(serial.result.final_accuracy, hardware.result.final_accuracy);
  EXPECT_EQ(serial.result.total_seconds, hardware.result.total_seconds);
  EXPECT_EQ(serial.trace, hardware.trace);
}

TEST(DeterminismMatrix, FedAvgRepeatedParallelRunsIdentical) {
  // Parallel runs must also be stable run-to-run (no scheduling leakage),
  // in the heaviest cell of the matrix.
  Fixture f;
  const auto partition = f.partition();
  const Axes axes{true, true};
  const FedAvgRun a = run_fedavg(f, partition, axes, 3);
  const FedAvgRun b = run_fedavg(f, partition, axes, 3);
  expect_identical_rounds(a.result.rounds, b.result.rounds);
  EXPECT_EQ(a.result.final_accuracy, b.result.final_accuracy);
  EXPECT_EQ(a.trace, b.trace);
}

// ---- Gossip -------------------------------------------------------------

GossipRunResult run_gossip(const Fixture& f, const data::Partition& partition,
                           std::size_t parallelism) {
  GossipConfig config;
  config.rounds = 4;
  config.seed = 66;
  config.topology = Topology::kRing;
  config.parallelism = parallelism;
  GossipRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                      device::NetworkType::kWifi, config);
  return runner.run(partition);
}

TEST(DeterminismMatrix, GossipSerialVsParallelEveryCell) {
  Fixture f;
  const auto partition = f.partition();
  const GossipRunResult serial = run_gossip(f, partition, 1);
  const GossipRunResult parallel = run_gossip(f, partition, 4);

  expect_identical_rounds(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.client_accuracy, parallel.client_accuracy);
  EXPECT_EQ(serial.mean_accuracy, parallel.mean_accuracy);
  EXPECT_EQ(serial.consensus_gap, parallel.consensus_gap);
  EXPECT_EQ(serial.total_seconds, parallel.total_seconds);
}

// ---- Async --------------------------------------------------------------

AsyncRunResult run_async(const Fixture& f, const data::Partition& partition,
                         std::size_t parallelism) {
  AsyncConfig config;
  config.horizon_seconds = 120.0;
  config.seed = 65;
  config.parallelism = parallelism;
  AsyncRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                     device::NetworkType::kWifi, config);
  return runner.run(partition);
}

TEST(DeterminismMatrix, AsyncSerialVsParallelEveryCell) {
  Fixture f;
  const auto partition = f.partition();
  const AsyncRunResult serial = run_async(f, partition, 1);
  const AsyncRunResult parallel = run_async(f, partition, 4);

  ASSERT_EQ(serial.updates.size(), parallel.updates.size());
  ASSERT_FALSE(serial.updates.empty());
  for (std::size_t k = 0; k < serial.updates.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "update " << k);
    EXPECT_EQ(serial.updates[k].time_s, parallel.updates[k].time_s);
    EXPECT_EQ(serial.updates[k].client, parallel.updates[k].client);
    EXPECT_EQ(serial.updates[k].staleness, parallel.updates[k].staleness);
    EXPECT_EQ(serial.updates[k].mix_weight, parallel.updates[k].mix_weight);
  }
  EXPECT_EQ(serial.final_accuracy, parallel.final_accuracy);
  EXPECT_EQ(serial.elapsed_seconds, parallel.elapsed_seconds);
}

// ---- Fleet tier ---------------------------------------------------------

struct FleetRun {
  std::vector<fleet::FleetRoundResult> rounds;
  fleet::FleetState final_state;
  std::string trace;
};

// The full fleet pipeline at 10k clients: generate -> bucketed plan -> three
// event-driven rounds under a crash/deadline fault mix, replanning against
// the drained fleet each round.
FleetRun run_fleet(std::size_t parallelism) {
  std::ostringstream sink;
  obs::TraceWriter trace(sink);

  fleet::FleetMix mix;
  mix.lte_fraction = 0.3;
  mix.capacity_shards = 16;
  const fleet::FleetGenerator gen(mix, device::lenet_desc(), 91);
  fleet::FleetSimConfig config;
  config.shard_size = 20;
  config.dropout_prob = 0.15;
  config.deadline_s = 1e5;
  config.update_dim = 32;
  config.group_size = 256;
  config.parallelism = parallelism;
  config.seed = 92;
  fleet::FleetSimulator sim(gen.generate(10000, &trace), config);

  FleetRun run;
  for (std::size_t round = 0; round < 3; ++round) {
    const sched::LinearCosts costs =
        fleet::linear_costs(sim.state(), config.shard_size, config.battery_floor_soc);
    const sched::BucketedLbapResult plan =
        sched::fed_lbap_bucketed(costs, 20000, 64, &trace);
    run.rounds.push_back(
        sim.run_round(plan.assignment.shards_per_user, round, &trace));
  }
  run.final_state = sim.state();
  run.trace = sink.str();
  return run;
}

TEST(DeterminismMatrix, FleetSerialVsParallelByteIdentical) {
  const FleetRun serial = run_fleet(1);
  const FleetRun parallel = run_fleet(4);

  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    SCOPED_TRACE(::testing::Message() << "round " << r);
    const auto& a = serial.rounds[r];
    const auto& b = parallel.rounds[r];
    EXPECT_EQ(a.participants, b.participants);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped_crash, b.dropped_crash);
    EXPECT_EQ(a.dropped_deadline, b.dropped_deadline);
    EXPECT_EQ(a.dropped_stale, b.dropped_stale);
    EXPECT_EQ(a.battery_deaths, b.battery_deaths);
    EXPECT_EQ(a.survivor_shards, b.survivor_shards);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.energy_wh, b.energy_wh);
    EXPECT_EQ(a.contributors, b.contributors);
    EXPECT_EQ(a.global_update, b.global_update);  // bitwise
    // The fault mix must not be vacuous.
    EXPECT_GT(a.dropped_crash, 0u);
  }
  EXPECT_EQ(serial.final_state.battery_soc, parallel.final_state.battery_soc);
  EXPECT_EQ(serial.final_state.alive, parallel.final_state.alive);
  EXPECT_EQ(serial.trace, parallel.trace) << "trace bytes differ";
}

// The dynamics row: 10k clients under simultaneous churn (joins + leaves)
// and diurnal availability, replanning over the dynamics-masked costs each
// round. The fleet grows mid-run via joins and shrinks via departures —
// every result field and the trace bytes must still be independent of the
// aggregation pool width.
FleetRun run_dynamic_fleet(std::size_t parallelism) {
  std::ostringstream sink;
  obs::TraceWriter trace(sink);

  fleet::FleetMix mix;
  mix.lte_fraction = 0.3;
  mix.capacity_shards = 16;
  const fleet::FleetGenerator gen(mix, device::lenet_desc(), 91);

  fleet::DynamicsConfig dyn_config = fleet::scenario_config("churn", 93);
  dyn_config.diurnal = true;
  dyn_config.day_fraction = 0.5;
  dyn_config.net_switch_prob_per_round = 0.05;
  fleet::ClientDynamics dynamics(dyn_config, &gen);

  fleet::FleetSimConfig config;
  config.shard_size = 20;
  config.dropout_prob = 0.15;
  config.deadline_s = 1e5;
  config.update_dim = 32;
  config.group_size = 256;
  config.parallelism = parallelism;
  config.seed = 92;
  fleet::FleetSimulator sim(gen.generate(10000, &trace), config);

  FleetRun run;
  for (std::size_t round = 0; round < 3; ++round) {
    const sched::LinearCosts costs =
        fleet::dynamic_linear_costs(sim.state(), config.shard_size, dynamics,
                                    config.battery_floor_soc);
    const sched::BucketedLbapResult plan =
        sched::fed_lbap_bucketed(costs, 10000, 64, &trace);
    run.rounds.push_back(
        sim.run_round(plan.assignment.shards_per_user, round, &trace, &dynamics));
  }
  run.final_state = sim.state();
  run.trace = sink.str();
  return run;
}

TEST(DeterminismMatrix, DynamicFleetSerialVsParallelByteIdentical) {
  const FleetRun serial = run_dynamic_fleet(1);
  const FleetRun parallel = run_dynamic_fleet(4);

  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  std::size_t joins = 0, leaves = 0;
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    SCOPED_TRACE(::testing::Message() << "round " << r);
    const auto& a = serial.rounds[r];
    const auto& b = parallel.rounds[r];
    EXPECT_EQ(a.participants, b.participants);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped_crash, b.dropped_crash);
    EXPECT_EQ(a.dropped_deadline, b.dropped_deadline);
    EXPECT_EQ(a.dropped_stale, b.dropped_stale);
    EXPECT_EQ(a.dropped_offline, b.dropped_offline);
    EXPECT_EQ(a.joins, b.joins);
    EXPECT_EQ(a.leaves, b.leaves);
    EXPECT_EQ(a.net_switches, b.net_switches);
    EXPECT_EQ(a.battery_deaths, b.battery_deaths);
    EXPECT_EQ(a.survivor_shards, b.survivor_shards);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.energy_wh, b.energy_wh);
    EXPECT_EQ(a.contributors, b.contributors);
    EXPECT_EQ(a.global_update, b.global_update);  // bitwise
    joins += a.joins;
    leaves += a.leaves;
  }
  // The dynamics mix must not be vacuous: the fleet actually churned.
  EXPECT_GT(joins, 0u);
  EXPECT_GT(leaves, 0u);
  EXPECT_GT(serial.final_state.size(), 10000u) << "joins must grow the fleet";
  EXPECT_EQ(serial.final_state.size(), parallel.final_state.size());
  EXPECT_EQ(serial.final_state.battery_soc, parallel.final_state.battery_soc);
  EXPECT_EQ(serial.final_state.alive, parallel.final_state.alive);
  EXPECT_EQ(serial.final_state.network, parallel.final_state.network);
  EXPECT_EQ(serial.trace, parallel.trace) << "trace bytes differ";
}

}  // namespace
}  // namespace fedsched::fl
