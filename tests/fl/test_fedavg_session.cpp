// FedAvgSession: FedAvgRunner::run split at round boundaries.
//   * a session reopened from its FSC1 file before every round — a new
//     runner each time, as after a coordinator restart — finishes
//     bit-identical to one kept resident: every checkpoint, the trace bytes,
//     the RunResult and the final parameters, with faults, a deadline,
//     battery tracking, rescheduling, replication and per-round evaluation
//     on, at parallelism 1 and 4; both equal run();
//   * a session opened from the final round's checkpoint is done and
//     finishes without stepping, into the same result and trace tail;
//   * step() past the round budget throws.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "data/partition.hpp"
#include "data/synth.hpp"
#include "fl/checkpoint/checkpoint.hpp"
#include "fl/runner.hpp"

namespace fedsched::fl {
namespace {

struct Fixture {
  data::SynthConfig cfg = data::mnist_like();
  data::Dataset train = data::generate_balanced(cfg, 300, 70);
  data::Dataset test = data::generate_balanced(cfg, 100, 71);
  std::vector<device::PhoneModel> phones = {
      device::PhoneModel::kNexus6, device::PhoneModel::kNexus6P,
      device::PhoneModel::kMate10, device::PhoneModel::kPixel2,
      device::PhoneModel::kNexus6};
  nn::ModelSpec spec;

  data::Partition partition() const {
    common::Rng rng(72);
    return data::partition_equal_iid(train, phones.size(), rng);
  }

  /// Every round-loop feature on: faults with battery tracking, a deadline
  /// that drops clients, LBAP rescheduling, risk replication and per-round
  /// evaluation.
  FlConfig config(std::size_t parallelism) const {
    FlConfig config;
    config.rounds = 6;
    config.seed = 73;
    config.evaluate_each_round = true;
    config.parallelism = parallelism;
    config.deadline_s = 1.8;
    config.faults.enabled = true;
    config.faults.dropout_prob = 0.2;
    config.faults.transient_prob = 0.1;
    config.faults.battery_enabled = true;
    config.faults.initial_soc_min = 0.5;
    const auto users = core::build_profiles(phones, device::lenet_desc(),
                                            device::NetworkType::kWifi, 300);
    config.reschedule.policy = health::ReschedulePolicy::kLbap;
    config.reschedule.health.probation_streak = 2;
    config.reschedule.users = users;
    config.reschedule.total_shards = 30;
    config.reschedule.shard_size = 10;
    config.reschedule.initial_shards = std::vector<std::size_t>(phones.size(), 6);
    config.replicate.policy = replication::ReplicationPolicy::kRisk;
    config.replicate.budget_per_round = 2;
    config.replicate.risk_threshold = 0.2;
    config.replicate.users = users;
    return config;
  }

  FedAvgRunner runner(FlConfig config, obs::TraceWriter* trace) const {
    config.trace = trace;
    return FedAvgRunner(train, test, spec, device::lenet_desc(), phones,
                        device::NetworkType::kWifi, config);
  }
};

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "fedsched_session_" + name;
}

void expect_same(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].round_seconds, b.rounds[r].round_seconds) << r;
    EXPECT_EQ(a.rounds[r].mean_train_loss, b.rounds[r].mean_train_loss) << r;
    EXPECT_EQ(a.rounds[r].test_accuracy, b.rounds[r].test_accuracy) << r;
    EXPECT_EQ(a.rounds[r].client_seconds, b.rounds[r].client_seconds) << r;
    EXPECT_EQ(a.rounds[r].client_faults, b.rounds[r].client_faults) << r;
    EXPECT_EQ(a.rounds[r].moved_shards, b.rounds[r].moved_shards) << r;
    EXPECT_EQ(a.rounds[r].replicas_assigned, b.rounds[r].replicas_assigned) << r;
  }
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  ASSERT_EQ(a.client_health.size(), b.client_health.size());
  for (std::size_t u = 0; u < a.client_health.size(); ++u) {
    EXPECT_EQ(a.client_health[u].status, b.client_health[u].status) << u;
    EXPECT_EQ(a.client_health[u].speed_ewma, b.client_health[u].speed_ewma) << u;
  }
  EXPECT_EQ(a.replica_log.size(), b.replica_log.size());
}

class FedAvgSessionWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FedAvgSessionWidth, ReopenedFromFsc1EveryRoundMatchesResident) {
  const Fixture f;
  const FlConfig config = f.config(GetParam());

  std::ostringstream resident_sink;
  obs::TraceWriter resident_trace(resident_sink);
  FedAvgRunner resident_runner = f.runner(config, &resident_trace);
  FedAvgSession resident(resident_runner, f.partition());
  std::vector<std::string> resident_ckpts;
  while (!resident.done()) {
    resident.step();
    resident_ckpts.push_back(checkpoint::encode_checkpoint(resident.checkpoint()));
  }
  const RunResult a = resident.finish();

  // One file per width: ctest runs the instances as concurrent processes.
  const std::string path = tmp_path("reopened_" + std::to_string(GetParam()) + ".bin");
  std::vector<std::string> reopened_ckpts;
  RunResult b;
  std::string reopened_trace;
  std::vector<float> reopened_params;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    std::ostringstream sink;
    obs::TraceWriter trace(sink);
    FedAvgRunner runner = f.runner(config, &trace);
    FedAvgSession session =
        round == 0 ? FedAvgSession(runner, f.partition())
                   : FedAvgSession(runner, checkpoint::load_checkpoint(path));
    ASSERT_EQ(session.rounds_completed(), round);
    session.step();
    const checkpoint::RunState state = session.checkpoint();
    EXPECT_EQ(state.battery_soc.size(), f.phones.size());
    checkpoint::save_checkpoint(state, path);
    reopened_ckpts.push_back(checkpoint::encode_checkpoint(state));
    if (session.done()) {
      b = session.finish();
      reopened_trace = sink.str();
      reopened_params = runner.global_model().flat_params();
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".meta.jsonl").c_str());

  EXPECT_EQ(resident_ckpts, reopened_ckpts);
  EXPECT_EQ(resident_sink.str(), reopened_trace);
  expect_same(a, b);
  EXPECT_EQ(resident_runner.global_model().flat_params(), reopened_params);

  // The scenario must reach every feature it claims to cover.
  std::size_t misses = 0, rescheduled = 0, replicas = 0;
  for (const RoundRecord& r : a.rounds) {
    rescheduled += r.rescheduled;
    replicas += r.replicas_assigned;
    for (FaultKind kind : r.client_faults) misses += kind == FaultKind::kDeadlineMiss;
  }
  EXPECT_GT(misses, 0u);
  EXPECT_GT(rescheduled, 0u);
  EXPECT_GT(replicas, 0u);

  // run() is the same session without checkpoints.
  FedAvgRunner oneshot = f.runner(config, nullptr);
  expect_same(oneshot.run(f.partition()), a);
  EXPECT_EQ(oneshot.global_model().flat_params(), reopened_params);
}

INSTANTIATE_TEST_SUITE_P(Widths, FedAvgSessionWidth, ::testing::Values(1u, 4u));

TEST(FedAvgSession, FinalCheckpointFinishesWithoutStepping) {
  const Fixture f;
  const FlConfig config = f.config(1);
  std::ostringstream full_sink;
  obs::TraceWriter full_trace(full_sink);
  FedAvgRunner full_runner = f.runner(config, &full_trace);
  FedAvgSession full(full_runner, f.partition());
  std::string last;
  while (!full.done()) {
    full.step();
    last = checkpoint::encode_checkpoint(full.checkpoint());
  }
  const RunResult expected = full.finish();

  const std::string path = tmp_path("final.bin");
  std::ostringstream sink;
  obs::TraceWriter trace(sink);
  FedAvgRunner runner = f.runner(config, &trace);
  {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(last.data(), 1, last.size(), out);
    std::fclose(out);
  }
  FedAvgSession tail(runner, checkpoint::load_checkpoint(path));
  std::remove(path.c_str());
  EXPECT_TRUE(tail.done());
  EXPECT_EQ(tail.rounds_completed(), config.rounds);
  expect_same(tail.finish(), expected);
  EXPECT_EQ(sink.str(), full_sink.str());
}

TEST(FedAvgSession, StepPastTheBudgetThrows) {
  const Fixture f;
  FlConfig config = f.config(1);
  config.rounds = 1;
  FedAvgRunner runner = f.runner(config, nullptr);
  FedAvgSession session(runner, f.partition());
  session.step();
  ASSERT_TRUE(session.done());
  EXPECT_THROW(session.step(), std::logic_error);
}

}  // namespace
}  // namespace fedsched::fl
