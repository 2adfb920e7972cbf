// Deterministic kill-and-resume: a run halted at a checkpoint and resumed
// must be bit-identical — in every RoundRecord, the final parameters, AND the
// trace bytes — to the same run left uninterrupted, at any parallelism width
// on either side of the kill. Runs are driven through FedAvgSession with the
// cadence `fedsched_cli train` applies (--checkpoint-every, --halt-after,
// --resume). Plus the binary format's own roundtrip.

#include "fl/checkpoint/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "data/partition.hpp"
#include "data/synth.hpp"
#include "fl/runner.hpp"

namespace fedsched::fl {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "fedsched_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Checkpoint, BinaryRoundTripPreservesEveryField) {
  checkpoint::RunState state;
  state.seed = 77;
  state.rounds_completed = 3;
  state.model_fingerprint = 0xFEEDBEEF;
  state.global_params = {1.5f, -2.25f, 0.0f};
  state.velocities = {{0.5f, 0.5f, -1.0f}, {}};
  state.device_clock_s = {10.0, 20.0};
  state.device_temp_c = {35.5, 41.0};
  state.battery_soc = {0.9, 0.45};
  state.partition.user_indices = {{0, 2, 4}, {1, 3}};
  RoundRecord record;
  record.round = 2;
  record.round_seconds = 12.5;
  record.cumulative_seconds = 30.0;
  record.mean_train_loss = 0.25;
  record.client_seconds = {12.5, 9.0};
  record.completed_clients = 1;
  record.dropped_clients = 1;
  record.retry_count = 3;
  record.skipped = false;
  record.rescheduled = true;
  record.moved_shards = 4;
  record.client_faults = {FaultKind::kNone, FaultKind::kCrash};
  state.rounds = {record};
  state.total_seconds = 30.0;
  state.recovery_active = true;
  health::ClientHealth sick;
  sick.status = health::ClientStatus::kProbation;
  sick.speed_ewma = 1.75;
  sick.has_observation = true;
  sick.fault_streak = 1;
  sick.total_faults = 2;
  sick.probations = 1;
  sick.probation_remaining = 2;
  sick.reassigned_shards = 4;
  sick.soc = 0.45;
  sick.soc_drop_ewma = 0.1;
  state.health.clients = {health::ClientHealth{}, sick};
  state.health.planned_multiplier = {1.0, 1.75};
  state.health.last_plan_round = 2;
  state.health.has_plan = true;
  state.health.status_dirty = true;
  state.replanner_shards = {5, 0};
  state.rng_words = {1, 2, 3, 4};
  state.trace_prefix = "{\"ev\":\"run_start\"}\n";
  state.trace_events = 1;

  const std::string path = tmp_path("roundtrip.bin");
  checkpoint::save_checkpoint(state, path);
  const checkpoint::RunState loaded = checkpoint::load_checkpoint(path);

  EXPECT_EQ(loaded.seed, state.seed);
  EXPECT_EQ(loaded.rounds_completed, state.rounds_completed);
  EXPECT_EQ(loaded.model_fingerprint, state.model_fingerprint);
  EXPECT_EQ(loaded.global_params, state.global_params);
  EXPECT_EQ(loaded.velocities, state.velocities);
  EXPECT_EQ(loaded.device_clock_s, state.device_clock_s);
  EXPECT_EQ(loaded.device_temp_c, state.device_temp_c);
  EXPECT_EQ(loaded.battery_soc, state.battery_soc);
  EXPECT_EQ(loaded.partition.user_indices, state.partition.user_indices);
  ASSERT_EQ(loaded.rounds.size(), 1u);
  const RoundRecord& r = loaded.rounds[0];
  EXPECT_EQ(r.round, record.round);
  EXPECT_EQ(r.round_seconds, record.round_seconds);
  EXPECT_EQ(r.cumulative_seconds, record.cumulative_seconds);
  EXPECT_EQ(r.mean_train_loss, record.mean_train_loss);
  EXPECT_EQ(r.client_seconds, record.client_seconds);
  EXPECT_EQ(r.completed_clients, record.completed_clients);
  EXPECT_EQ(r.dropped_clients, record.dropped_clients);
  EXPECT_EQ(r.retry_count, record.retry_count);
  EXPECT_EQ(r.skipped, record.skipped);
  EXPECT_EQ(r.rescheduled, record.rescheduled);
  EXPECT_EQ(r.moved_shards, record.moved_shards);
  EXPECT_EQ(r.client_faults, record.client_faults);
  EXPECT_EQ(loaded.total_seconds, state.total_seconds);
  EXPECT_EQ(loaded.recovery_active, state.recovery_active);
  ASSERT_EQ(loaded.health.clients.size(), 2u);
  EXPECT_EQ(loaded.health.clients[1].status, sick.status);
  EXPECT_EQ(loaded.health.clients[1].speed_ewma, sick.speed_ewma);
  EXPECT_EQ(loaded.health.clients[1].probation_remaining, sick.probation_remaining);
  EXPECT_EQ(loaded.health.clients[1].soc_drop_ewma, sick.soc_drop_ewma);
  EXPECT_EQ(loaded.health.planned_multiplier, state.health.planned_multiplier);
  EXPECT_EQ(loaded.health.last_plan_round, state.health.last_plan_round);
  EXPECT_EQ(loaded.health.has_plan, state.health.has_plan);
  EXPECT_EQ(loaded.health.status_dirty, state.health.status_dirty);
  EXPECT_EQ(loaded.replanner_shards, state.replanner_shards);
  EXPECT_EQ(loaded.rng_words, state.rng_words);
  EXPECT_EQ(loaded.trace_prefix, state.trace_prefix);
  EXPECT_EQ(loaded.trace_events, state.trace_events);

  // The sidecar is advisory but must exist and be one JSON line.
  const std::string sidecar = slurp(path + ".meta.jsonl");
  EXPECT_NE(sidecar.find("\"version\":"), std::string::npos);

  std::remove(path.c_str());
  std::remove((path + ".meta.jsonl").c_str());
}

TEST(Checkpoint, LoadRejectsGarbageAndMissingFiles) {
  const std::string path = tmp_path("garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all, definitely long enough to read a header";
  }
  EXPECT_THROW(checkpoint::load_checkpoint(path), std::runtime_error);
  EXPECT_THROW(checkpoint::load_checkpoint(tmp_path("does_not_exist.bin")),
               std::runtime_error);
  std::remove(path.c_str());
}

// Where a test run checkpoints, halts and resumes (0 / "" = never).
struct Cadence {
  std::string path;
  std::size_t every_rounds = 0;
  std::size_t halt_after_rounds = 0;
  std::string resume_from;
};

struct Outcome {
  RunResult result;
  bool halted = false;
};

// Shared scenario for the resume tests: five uneven clients, faults on, and
// online rescheduling — the full recovery path must survive the kill.
struct ResumeFixture {
  data::SynthConfig cfg = data::mnist_like();
  data::Dataset train = data::generate_balanced(cfg, 300, 60);
  data::Dataset test = data::generate_balanced(cfg, 100, 61);
  std::vector<device::PhoneModel> phones = {
      device::PhoneModel::kNexus6, device::PhoneModel::kNexus6P,
      device::PhoneModel::kMate10, device::PhoneModel::kPixel2,
      device::PhoneModel::kNexus6};
  nn::ModelSpec spec;

  data::Partition partition() const {
    common::Rng rng(62);
    return data::partition_equal_iid(train, phones.size(), rng);
  }

  FlConfig config(std::size_t rounds, std::size_t parallelism) const {
    FlConfig config;
    config.rounds = rounds;
    config.seed = 63;
    config.evaluate_each_round = true;
    config.parallelism = parallelism;
    config.faults.enabled = true;
    config.faults.dropout_prob = 0.25;
    config.faults.transient_prob = 0.1;
    config.reschedule.policy = health::ReschedulePolicy::kLbap;
    config.reschedule.health.probation_streak = 1;
    config.reschedule.users = core::build_profiles(
        phones, device::lenet_desc(), device::NetworkType::kWifi, 300);
    config.reschedule.total_shards = 30;
    config.reschedule.shard_size = 10;
    config.reschedule.initial_shards =
        std::vector<std::size_t>(phones.size(), 6);
    return config;
  }

  /// Run `config` through a FedAvgSession (fresh, or from the checkpoint
  /// at `cadence.resume_from`), saving to `cadence.path` after every
  /// `every_rounds` rounds and at `halt_after_rounds`, where it stops
  /// without finishing.
  Outcome run(const FlConfig& config, const Cadence& cadence = {},
              std::vector<float>* params = nullptr,
              obs::TraceWriter* trace = nullptr) const {
    FlConfig with_trace = config;
    if (trace) with_trace.trace = trace;
    FedAvgRunner runner(train, test, spec, device::lenet_desc(), phones,
                       device::NetworkType::kWifi, with_trace);
    FedAvgSession session =
        cadence.resume_from.empty()
            ? FedAvgSession(runner, partition())
            : FedAvgSession(runner, checkpoint::load_checkpoint(cadence.resume_from));
    Outcome out;
    while (!session.done() && !out.halted) {
      session.step();
      const std::size_t completed = session.rounds_completed();
      out.halted = completed == cadence.halt_after_rounds;
      if (out.halted ||
          (cadence.every_rounds > 0 && completed % cadence.every_rounds == 0)) {
        checkpoint::save_checkpoint(session.checkpoint(), cadence.path);
      }
    }
    out.result = out.halted ? session.result() : session.finish();
    if (params) *params = runner.global_model().flat_params();
    return out;
  }
};

void expect_identical_results(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].round, b.rounds[r].round);
    EXPECT_EQ(a.rounds[r].round_seconds, b.rounds[r].round_seconds) << r;
    EXPECT_EQ(a.rounds[r].cumulative_seconds, b.rounds[r].cumulative_seconds);
    EXPECT_EQ(a.rounds[r].mean_train_loss, b.rounds[r].mean_train_loss) << r;
    EXPECT_EQ(a.rounds[r].test_accuracy, b.rounds[r].test_accuracy) << r;
    EXPECT_EQ(a.rounds[r].client_seconds, b.rounds[r].client_seconds) << r;
    EXPECT_EQ(a.rounds[r].completed_clients, b.rounds[r].completed_clients);
    EXPECT_EQ(a.rounds[r].dropped_clients, b.rounds[r].dropped_clients);
    EXPECT_EQ(a.rounds[r].retry_count, b.rounds[r].retry_count) << r;
    EXPECT_EQ(a.rounds[r].skipped, b.rounds[r].skipped) << r;
    EXPECT_EQ(a.rounds[r].rescheduled, b.rounds[r].rescheduled) << r;
    EXPECT_EQ(a.rounds[r].moved_shards, b.rounds[r].moved_shards) << r;
    EXPECT_EQ(a.rounds[r].client_faults, b.rounds[r].client_faults) << r;
  }
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  ASSERT_EQ(a.client_health.size(), b.client_health.size());
  for (std::size_t u = 0; u < a.client_health.size(); ++u) {
    EXPECT_EQ(a.client_health[u].status, b.client_health[u].status) << u;
    EXPECT_EQ(a.client_health[u].speed_ewma, b.client_health[u].speed_ewma);
    EXPECT_EQ(a.client_health[u].total_faults, b.client_health[u].total_faults);
    EXPECT_EQ(a.client_health[u].reassigned_shards,
              b.client_health[u].reassigned_shards)
        << u;
  }
}

TEST(Resume, KillAndResumeBitIdenticalToUninterrupted) {
  ResumeFixture f;
  const std::string ckpt = tmp_path("resume_kill.bin");
  const std::string ckpt2 = tmp_path("resume_kill2.bin");
  const std::string trace_full = tmp_path("resume_full.jsonl");
  const std::string trace_resumed = tmp_path("resume_resumed.jsonl");

  // Uninterrupted 8-round baseline — same checkpoint cadence as the killed
  // run, a requirement for byte-identical traces.
  const FlConfig config = f.config(8, 1);
  Cadence full;
  full.path = ckpt2;
  full.every_rounds = 4;
  std::vector<float> full_params;
  obs::TraceWriter full_trace = obs::TraceWriter::to_file(trace_full);
  const Outcome uninterrupted = f.run(config, full, &full_params, &full_trace);
  full_trace.flush();
  ASSERT_FALSE(uninterrupted.halted);

  // Kill after round 4...
  Cadence halted;
  halted.path = ckpt;
  halted.every_rounds = 4;
  halted.halt_after_rounds = 4;
  obs::TraceWriter halt_trace = obs::TraceWriter::to_file(tmp_path("resume_halt.jsonl"));
  const Outcome half = f.run(config, halted, nullptr, &halt_trace);
  halt_trace.flush();
  ASSERT_TRUE(half.halted);
  ASSERT_EQ(half.result.rounds.size(), 4u);

  // ...and resume to completion.
  Cadence resumed;
  resumed.path = ckpt2;
  resumed.every_rounds = 4;
  resumed.resume_from = ckpt;
  std::vector<float> resumed_params;
  obs::TraceWriter resume_trace = obs::TraceWriter::to_file(trace_resumed);
  const Outcome rest = f.run(config, resumed, &resumed_params, &resume_trace);
  resume_trace.flush();
  ASSERT_FALSE(rest.halted);

  expect_identical_results(uninterrupted.result, rest.result);
  ASSERT_EQ(full_params.size(), resumed_params.size());
  for (std::size_t i = 0; i < full_params.size(); ++i) {
    ASSERT_EQ(full_params[i], resumed_params[i]) << "param " << i;
  }
  const std::string full_bytes = slurp(trace_full);
  const std::string resumed_bytes = slurp(trace_resumed);
  ASSERT_FALSE(full_bytes.empty());
  EXPECT_EQ(full_bytes, resumed_bytes) << "trace bytes diverged after resume";

  for (const std::string& p :
       {ckpt, ckpt2, trace_full, trace_resumed, tmp_path("resume_halt.jsonl")}) {
    std::remove(p.c_str());
    std::remove((p + ".meta.jsonl").c_str());
  }
}

TEST(Resume, ParallelWidthOfResumedRunDoesNotMatter) {
  ResumeFixture f;
  const std::string ckpt = tmp_path("resume_width.bin");

  Cadence halted;
  halted.path = ckpt;
  halted.halt_after_rounds = 3;
  ASSERT_TRUE(f.run(f.config(6, 1), halted).halted);

  auto resume_width = [&](std::size_t parallelism) {
    Cadence resumed;
    resumed.resume_from = ckpt;
    std::vector<float> params;
    const RunResult result = f.run(f.config(6, parallelism), resumed, &params).result;
    return std::pair(result, params);
  };
  const auto [serial, serial_params] = resume_width(1);
  const auto [wide, wide_params] = resume_width(4);

  expect_identical_results(serial, wide);
  ASSERT_EQ(serial_params, wide_params);
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".meta.jsonl").c_str());
}

TEST(Resume, MismatchedRunRejected) {
  ResumeFixture f;
  const std::string ckpt = tmp_path("resume_mismatch.bin");
  Cadence halted;
  halted.path = ckpt;
  halted.halt_after_rounds = 3;
  ASSERT_TRUE(f.run(f.config(6, 1), halted).halted);
  Cadence resumed;
  resumed.resume_from = ckpt;

  // Wrong seed: the checkpoint must be refused, not silently diverge.
  FlConfig wrong_seed = f.config(6, 1);
  wrong_seed.seed = 9999;
  EXPECT_THROW(f.run(wrong_seed, resumed), std::runtime_error);

  // Recovery off but checkpoint says it was on: also refused.
  FlConfig wrong_mode = f.config(6, 1);
  wrong_mode.reschedule = health::ReschedulePlan{};
  EXPECT_THROW(f.run(wrong_mode, resumed), std::runtime_error);

  std::remove(ckpt.c_str());
  std::remove((ckpt + ".meta.jsonl").c_str());
}

TEST(Resume, RecoveryPathBitIdenticalAcrossParallelism) {
  // The whole closed loop — health observations, replans, repartitions —
  // with no checkpointing at all, at widths 1 and 4.
  ResumeFixture f;
  auto run_width = [&](std::size_t parallelism) {
    std::vector<float> params;
    const RunResult result = f.run(f.config(8, parallelism), {}, &params).result;
    return std::pair(result, params);
  };
  const auto [serial, serial_params] = run_width(1);
  const auto [wide, wide_params] = run_width(4);

  expect_identical_results(serial, wide);
  ASSERT_EQ(serial_params, wide_params);
  // The scenario must actually exercise the replanner, or this test proves
  // nothing about the recovery path.
  std::size_t reschedules = 0;
  for (const RoundRecord& r : serial.rounds) reschedules += r.rescheduled;
  EXPECT_GT(reschedules, 0u);
}

}  // namespace
}  // namespace fedsched::fl
