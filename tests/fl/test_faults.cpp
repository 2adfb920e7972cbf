// The fault model's contract: every draw is a pure function of
// (seed, round, client), disabled injection is bit-for-bit invisible, and
// FedAvg stays deterministic at every parallelism width with faults on.

#include "fl/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/experiment.hpp"
#include "data/partition.hpp"
#include "data/synth.hpp"
#include "fl/runner.hpp"
#include "fl/trainer.hpp"
#include "nn/models.hpp"

namespace fedsched::fl {
namespace {

RoundTimings sample_timings() {
  RoundTimings t;
  t.download_s = 1.5;
  t.upload_s = 2.5;
  t.compute_s = 10.0;
  t.baseline_s = t.download_s + t.upload_s + t.compute_s;
  return t;
}

TEST(FaultInjector, DisabledPassesBaselineThrough) {
  const FaultInjector injector({}, 7);
  EXPECT_FALSE(injector.enabled());
  const auto out = injector.evaluate(0, 0, sample_timings(), kNoDeadline);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.kind, FaultKind::kNone);
  EXPECT_EQ(out.elapsed_s, sample_timings().baseline_s);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.comm_scale, 1.0);
}

TEST(FaultInjector, DisabledStillEnforcesDeadline) {
  const FaultInjector injector({}, 7);
  const auto out = injector.evaluate(0, 0, sample_timings(), 10.0);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.kind, FaultKind::kDeadlineMiss);
  // The client still burned its full round time before the server gave up.
  EXPECT_EQ(out.elapsed_s, sample_timings().baseline_s);
}

TEST(FaultInjector, EnabledZeroProbsBitIdenticalToDisabled) {
  FaultConfig zero;
  zero.enabled = true;
  const FaultInjector off({}, 42);
  const FaultInjector on(zero, 42);
  for (std::size_t round = 0; round < 5; ++round) {
    for (std::size_t client = 0; client < 7; ++client) {
      const auto a = off.evaluate(round, client, sample_timings(), kNoDeadline);
      const auto b = on.evaluate(round, client, sample_timings(), kNoDeadline);
      EXPECT_EQ(a.elapsed_s, b.elapsed_s) << round << "/" << client;
      EXPECT_EQ(a.completed, b.completed);
      EXPECT_EQ(a.retries, b.retries);
    }
  }
}

TEST(FaultInjector, CrashChargesDownloadPlusCompute) {
  FaultConfig faults;
  faults.enabled = true;
  faults.dropout_prob = 1.0;
  const FaultInjector injector(faults, 3);
  const auto t = sample_timings();
  const auto out = injector.evaluate(2, 4, t, kNoDeadline);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.kind, FaultKind::kCrash);
  // Died before the upload: the server never sees it, but the device was
  // busy through the download and the local training.
  EXPECT_DOUBLE_EQ(out.elapsed_s, t.download_s + t.compute_s);
}

TEST(FaultInjector, RetryBackoffAccounting) {
  FaultConfig faults;
  faults.enabled = true;
  faults.transient_prob = 1.0;  // every attempt fails
  faults.max_retries = 3;
  faults.backoff_base_s = 2.0;
  const FaultInjector injector(faults, 3);
  const auto t = sample_timings();
  const auto out = injector.evaluate(0, 0, t, kNoDeadline);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.kind, FaultKind::kRetriesExhausted);
  EXPECT_EQ(out.retries, 3u);
  // R retries: R extra uploads plus exponential backoff 2+4+8 =
  // backoff_base * (2^R - 1), all charged to simulated time.
  const double expected = t.download_s + t.compute_s + 4.0 * t.upload_s +
                          faults.backoff_base_s * 7.0;
  EXPECT_NEAR(out.elapsed_s, expected, 1e-9);
}

TEST(FaultInjector, StallScalesCommOnly) {
  FaultConfig faults;
  faults.enabled = true;
  faults.stall_prob = 1.0;
  faults.stall_factor = 3.0;
  const FaultInjector injector(faults, 3);
  const auto t = sample_timings();
  const auto out = injector.evaluate(0, 0, t, kNoDeadline);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.comm_scale, 3.0);
  EXPECT_NEAR(out.elapsed_s, 3.0 * t.download_s + t.compute_s + 3.0 * t.upload_s,
              1e-9);
}

TEST(FaultInjector, EvaluateIsPureInRoundAndClient) {
  FaultConfig faults;
  faults.enabled = true;
  faults.dropout_prob = 0.4;
  faults.stall_prob = 0.3;
  faults.transient_prob = 0.3;
  const FaultInjector injector(faults, 11);
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t client = 0; client < 4; ++client) {
      const auto a = injector.evaluate(round, client, sample_timings(), 20.0);
      const auto b = injector.evaluate(round, client, sample_timings(), 20.0);
      EXPECT_EQ(a.elapsed_s, b.elapsed_s);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.retries, b.retries);
    }
  }
}

TEST(FaultInjector, ValidationRejectsBadConfigs) {
  FaultConfig faults;
  faults.dropout_prob = 1.5;
  EXPECT_THROW(FaultInjector(faults, 1), std::invalid_argument);
  faults = {};
  faults.stall_factor = 0.5;
  EXPECT_THROW(FaultInjector(faults, 1), std::invalid_argument);
  faults = {};
  faults.initial_soc_min = 0.9;
  faults.initial_soc_max = 0.1;
  EXPECT_THROW(FaultInjector(faults, 1), std::invalid_argument);
  faults = {};
  faults.max_retries = 63;
  EXPECT_THROW(FaultInjector(faults, 1), std::invalid_argument);
  faults = {};
  faults.backoff_base_s = -1.0;
  EXPECT_THROW(FaultInjector(faults, 1), std::invalid_argument);
}

TEST(FaultInjector, InitialSocDeterministicWithinRange) {
  FaultConfig faults;
  faults.enabled = true;
  faults.battery_enabled = true;
  faults.initial_soc_min = 0.2;
  faults.initial_soc_max = 0.4;
  const FaultInjector injector(faults, 5);
  for (std::size_t u = 0; u < 10; ++u) {
    const double soc = injector.initial_soc(u);
    EXPECT_GE(soc, 0.2);
    EXPECT_LT(soc, 0.4);
    EXPECT_EQ(soc, injector.initial_soc(u));
  }
}

TEST(FaultInjector, RoundEnergyScalesWithCommScale) {
  const auto& spec = device::spec_by_name("Nexus6");
  const auto model = device::lenet_desc();
  const double base =
      round_energy_wh(spec, model, 10.0, device::NetworkType::kWifi, 1.0);
  const double stalled =
      round_energy_wh(spec, model, 10.0, device::NetworkType::kWifi, 4.0);
  EXPECT_GT(base, 0.0);
  EXPECT_GT(stalled, base);
}

// ---------------------------------------------------------------------------
// Runner-level behavior.

struct Fixture {
  data::SynthConfig cfg = data::mnist_like();
  data::Dataset train = data::generate_balanced(cfg, 300, 60);
  data::Dataset test = data::generate_balanced(cfg, 100, 61);
  std::vector<device::PhoneModel> phones = {device::PhoneModel::kNexus6,
                                            device::PhoneModel::kMate10,
                                            device::PhoneModel::kPixel2};
  nn::ModelSpec spec;

  data::Partition partition() const {
    common::Rng rng(62);
    return data::partition_equal_iid(train, phones.size(), rng);
  }
};

// Pick a run seed whose round-0 crash pattern mixes survivors and victims —
// the crash draw depends only on (seed, round, client), never on timings.
std::uint64_t seed_with_mixed_dropout(const FaultConfig& faults, std::size_t n) {
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    const FaultInjector probe(faults, seed);
    std::size_t survivors = 0;
    for (std::size_t u = 0; u < n; ++u) {
      survivors += probe.evaluate(0, u, sample_timings(), kNoDeadline).completed;
    }
    if (survivors > 0 && survivors < n) return seed;
  }
  ADD_FAILURE() << "no seed below 200 gives a mixed dropout pattern";
  return 1;
}

TEST(RunnerFaults, FedAvgDropoutAggregationMatchesHandComputation) {
  Fixture f;
  const auto partition = f.partition();

  FaultConfig faults;
  faults.enabled = true;
  faults.dropout_prob = 0.5;
  const std::uint64_t seed = seed_with_mixed_dropout(faults, f.phones.size());

  FlConfig config;
  config.rounds = 1;
  config.seed = seed;
  config.faults = faults;
  FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                      device::NetworkType::kWifi, config);
  const RunResult result = runner.run(partition);
  ASSERT_EQ(result.rounds.size(), 1u);
  const RoundRecord& record = result.rounds[0];
  ASSERT_GT(record.completed_clients, 0u);
  ASSERT_GT(record.dropped_clients, 0u);

  // Replicate the round by hand: train each survivor from the shared init
  // with the runner's own per-client stream, then average weighted by the
  // survivor's share of the *surviving* samples, in client order.
  common::Rng init_rng(seed);
  nn::Model model = nn::build_model(f.spec, init_rng);
  const std::vector<float> init_params = model.flat_params();

  std::size_t survivor_samples = 0;
  for (std::size_t u = 0; u < f.phones.size(); ++u) {
    if (record.client_faults[u] == FaultKind::kNone) {
      survivor_samples += partition.user_indices[u].size();
    }
  }

  common::Rng round_rng(seed ^ 0xF1F1F1F1ULL);
  std::vector<float> expected(init_params.size(), 0.0f);
  for (std::size_t u = 0; u < f.phones.size(); ++u) {
    if (record.client_faults[u] != FaultKind::kNone) continue;
    model.set_flat_params(init_params);
    nn::Sgd sgd(config.sgd);
    common::Rng client_rng = round_rng.fork(u);  // round 0: index = u
    (void)train_epoch(model, sgd, f.train, partition.user_indices[u],
                      config.batch_size, client_rng);
    const std::vector<float> local = model.flat_params();
    const float weight =
        static_cast<float>(partition.user_indices[u].size()) /
        static_cast<float>(survivor_samples);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      expected[i] += weight * local[i];
    }
  }

  const std::vector<float> actual = runner.global_model().flat_params();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "param " << i;
  }
}

TEST(RunnerFaults, ZeroSurvivorRoundSkipsAndKeepsModel) {
  Fixture f;
  FaultConfig faults;
  faults.enabled = true;
  faults.dropout_prob = 1.0;

  FlConfig config;
  config.rounds = 3;
  config.seed = 5;
  config.faults = faults;
  config.deadline_s = 100.0;
  FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                      device::NetworkType::kWifi, config);
  const RunResult result = runner.run(f.partition());
  ASSERT_EQ(result.rounds.size(), 3u);
  double cumulative = 0.0;
  for (const auto& record : result.rounds) {
    EXPECT_TRUE(record.skipped);
    EXPECT_EQ(record.completed_clients, 0u);
    EXPECT_EQ(record.dropped_clients, f.phones.size());
    EXPECT_EQ(record.round_seconds, 100.0);  // server held the round open
    // The skipped RoundRecord is fully pinned: no survivors means no loss
    // average (0, not NaN from a 0/0 weight) and no reschedule markers, and
    // the wall clock still advances past the wasted round.
    EXPECT_EQ(record.mean_train_loss, 0.0);
    EXPECT_FALSE(record.rescheduled);
    EXPECT_EQ(record.moved_shards, 0u);
    cumulative += record.round_seconds;
    EXPECT_EQ(record.cumulative_seconds, cumulative);
    for (FaultKind kind : record.client_faults) {
      EXPECT_EQ(kind, FaultKind::kCrash);
    }
  }
  // The global model never moved.
  common::Rng init_rng(config.seed);
  const auto init_params = nn::build_model(f.spec, init_rng).flat_params();
  EXPECT_EQ(runner.global_model().flat_params(), init_params);
}

TEST(RunnerFaults, DeadlineDropsStragglerAndCapsRoundTime) {
  Fixture f;
  f.phones = {device::PhoneModel::kNexus6P, device::PhoneModel::kPixel2};
  common::Rng rng(3);
  const auto partition = data::partition_equal_iid(f.train, 2, rng);

  FlConfig config;
  config.rounds = 1;
  config.seed = 9;
  auto run_with_deadline = [&](double deadline) {
    FlConfig c = config;
    c.deadline_s = deadline;
    FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                        device::NetworkType::kWifi, c);
    return runner.run(partition);
  };

  const RunResult open = run_with_deadline(kNoDeadline);
  const double slow = open.rounds[0].client_seconds[0];
  const double fast = open.rounds[0].client_seconds[1];
  ASSERT_GT(slow, fast);

  const double deadline = 0.5 * (slow + fast);
  const RunResult capped = run_with_deadline(deadline);
  const RoundRecord& record = capped.rounds[0];
  EXPECT_EQ(record.completed_clients, 1u);
  EXPECT_EQ(record.dropped_clients, 1u);
  EXPECT_EQ(record.client_faults[0], FaultKind::kDeadlineMiss);
  EXPECT_EQ(record.client_faults[1], FaultKind::kNone);
  EXPECT_EQ(record.round_seconds, deadline);
  // The straggler's device was still busy for its full round.
  EXPECT_EQ(record.client_seconds[0], slow);
}

TEST(RunnerFaults, BatteryDeathIsPermanent) {
  Fixture f;
  FaultConfig faults;
  faults.enabled = true;
  faults.battery_enabled = true;
  faults.battery_floor_soc = 0.05;
  // Just above the floor: the first round's drain kills every client.
  faults.initial_soc_min = faults.initial_soc_max = 0.0500001;

  FlConfig config;
  config.rounds = 3;
  config.seed = 13;
  config.faults = faults;
  FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                      device::NetworkType::kWifi, config);
  const RunResult result = runner.run(f.partition());
  ASSERT_EQ(result.rounds.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    const RoundRecord& record = result.rounds[r];
    EXPECT_TRUE(record.skipped);
    for (std::size_t u = 0; u < f.phones.size(); ++u) {
      EXPECT_EQ(record.client_faults[u], FaultKind::kBatteryDead);
      if (r == 0) {
        // Died mid-round: the device was busy until the failed upload.
        EXPECT_GT(record.client_seconds[u], 0.0);
      } else {
        // Dead at round start: never powered on again.
        EXPECT_EQ(record.client_seconds[u], 0.0);
      }
    }
  }
}

TEST(RunnerFaults, EnabledZeroProbRunBitIdenticalToDisabled) {
  Fixture f;
  const auto partition = f.partition();
  auto run_with = [&](const FaultConfig& faults) {
    FlConfig config;
    config.rounds = 2;
    config.seed = 21;
    config.faults = faults;
    FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                        device::NetworkType::kWifi, config);
    RunResult result = runner.run(partition);
    return std::pair(std::move(result), runner.global_model().flat_params());
  };
  FaultConfig zero;
  zero.enabled = true;
  const auto [off, off_params] = run_with({});
  const auto [on, on_params] = run_with(zero);
  EXPECT_EQ(off.total_seconds, on.total_seconds);
  EXPECT_EQ(off.final_accuracy, on.final_accuracy);
  EXPECT_EQ(off_params, on_params);
  for (std::size_t r = 0; r < off.rounds.size(); ++r) {
    EXPECT_EQ(off.rounds[r].round_seconds, on.rounds[r].round_seconds);
    EXPECT_EQ(on.rounds[r].dropped_clients, 0u);
    EXPECT_EQ(on.rounds[r].completed_clients, f.phones.size());
  }
}

FaultConfig stress_faults() {
  FaultConfig faults;
  faults.enabled = true;
  faults.dropout_prob = 0.25;
  faults.stall_prob = 0.25;
  faults.stall_factor = 3.0;
  faults.transient_prob = 0.3;
  faults.max_retries = 2;
  faults.backoff_base_s = 1.0;
  faults.battery_enabled = true;
  faults.initial_soc_min = 0.1;
  faults.initial_soc_max = 1.0;
  return faults;
}

TEST(FaultDeterminism, FedAvgParallelWidthsBitIdenticalUnderFaults) {
  Fixture f;
  const auto partition = f.partition();
  auto run_width = [&](std::size_t parallelism) {
    FlConfig config;
    config.rounds = 3;
    config.seed = 77;
    config.parallelism = parallelism;
    config.faults = stress_faults();
    config.deadline_s = 40.0;
    FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                        device::NetworkType::kWifi, config);
    RunResult result = runner.run(partition);
    return std::pair(std::move(result), runner.global_model().flat_params());
  };
  const auto [serial, serial_params] = run_width(1);
  const auto [parallel, parallel_params] = run_width(4);

  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  bool any_fault = false;
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    const auto& a = serial.rounds[r];
    const auto& b = parallel.rounds[r];
    EXPECT_EQ(a.round_seconds, b.round_seconds) << "round " << r;
    EXPECT_EQ(a.completed_clients, b.completed_clients) << "round " << r;
    EXPECT_EQ(a.dropped_clients, b.dropped_clients) << "round " << r;
    EXPECT_EQ(a.retry_count, b.retry_count) << "round " << r;
    EXPECT_EQ(a.client_faults, b.client_faults) << "round " << r;
    EXPECT_EQ(a.client_seconds, b.client_seconds) << "round " << r;
    any_fault |= a.dropped_clients > 0 || a.retry_count > 0;
  }
  EXPECT_TRUE(any_fault) << "stress config triggered nothing; weak test";
  EXPECT_EQ(serial.final_accuracy, parallel.final_accuracy);
  EXPECT_EQ(serial_params, parallel_params);
}

// ---------------------------------------------------------------------------
// core::simulate_epoch_faulty.

TEST(SimulateEpochFaulty, FaultFreeMatchesSimulateEpoch) {
  const std::vector<device::PhoneModel> phones = {device::PhoneModel::kNexus6,
                                                  device::PhoneModel::kPixel2};
  const auto model = device::lenet_desc();
  const std::vector<std::size_t> counts = {400, 800};
  const auto plain = core::simulate_epoch(phones, model,
                                          device::NetworkType::kWifi, counts);
  const auto faulty = core::simulate_epoch_faulty(
      phones, model, device::NetworkType::kWifi, counts, FaultConfig{});
  EXPECT_EQ(faulty.epoch.client_seconds, plain.client_seconds);
  EXPECT_EQ(faulty.epoch.makespan, plain.makespan);
  EXPECT_EQ(faulty.epoch.mean, plain.mean);
  EXPECT_EQ(faulty.completed, 2u);
  EXPECT_EQ(faulty.dropped, 0u);
}

TEST(SimulateEpochFaulty, FullDropoutCapsMakespanAtDeadline) {
  const std::vector<device::PhoneModel> phones = {device::PhoneModel::kNexus6,
                                                  device::PhoneModel::kPixel2};
  FaultConfig faults;
  faults.enabled = true;
  faults.dropout_prob = 1.0;
  const auto sim = core::simulate_epoch_faulty(
      phones, device::lenet_desc(), device::NetworkType::kWifi, {400, 800},
      faults, 25.0, 3);
  EXPECT_EQ(sim.completed, 0u);
  EXPECT_EQ(sim.dropped, 2u);
  EXPECT_EQ(sim.epoch.makespan, 25.0);
  EXPECT_EQ(sim.client_faults[0], FaultKind::kCrash);
}

}  // namespace
}  // namespace fedsched::fl
