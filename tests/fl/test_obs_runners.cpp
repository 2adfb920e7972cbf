// Observability contracts of the FedAvg runner (docs/API.md):
//   1. Traces are byte-identical at every `parallelism` width — they record
//      simulated time only and are emitted from serial sections.
//   2. The disabled sink is free: a runner handed no TraceWriter/
//      MetricsRegistry produces a bit-identical result to one that traces.

#include <gtest/gtest.h>

#include <sstream>

#include "data/partition.hpp"
#include "data/synth.hpp"
#include "fl/report.hpp"
#include "fl/runner.hpp"

namespace fedsched::fl {
namespace {

struct Fixture {
  data::SynthConfig cfg = data::mnist_like();
  data::Dataset train = data::generate_balanced(cfg, 360, 10);
  data::Dataset test = data::generate_balanced(cfg, 150, 11);
  std::vector<device::PhoneModel> phones = {
      device::PhoneModel::kNexus6, device::PhoneModel::kNexus6P,
      device::PhoneModel::kMate10, device::PhoneModel::kPixel2};
  nn::ModelSpec spec;

  // Hazards on every axis so the trace exercises faults, retries and drops.
  FaultConfig faults() const {
    FaultConfig f;
    f.enabled = true;
    f.dropout_prob = 0.2;
    f.transient_prob = 0.2;
    f.stall_prob = 0.2;
    return f;
  }

  data::Partition partition() const {
    common::Rng rng(1);
    return data::partition_equal_iid(train, phones.size(), rng);
  }
};

void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].round_seconds, b.rounds[r].round_seconds);
    EXPECT_EQ(a.rounds[r].mean_train_loss, b.rounds[r].mean_train_loss);
    EXPECT_EQ(a.rounds[r].client_seconds, b.rounds[r].client_seconds);
    EXPECT_EQ(a.rounds[r].client_faults, b.rounds[r].client_faults);
    EXPECT_EQ(a.rounds[r].completed_clients, b.rounds[r].completed_clients);
    EXPECT_EQ(a.rounds[r].dropped_clients, b.rounds[r].dropped_clients);
    EXPECT_EQ(a.rounds[r].retry_count, b.rounds[r].retry_count);
  }
}

TEST(ObsRunners, FedAvgTraceByteIdenticalAcrossParallelism) {
  Fixture f;
  const auto partition = f.partition();
  auto traced_run = [&](std::size_t parallelism) {
    std::ostringstream os;
    obs::TraceWriter trace(os);
    FlConfig config;
    config.rounds = 3;
    config.seed = 42;
    config.parallelism = parallelism;
    config.faults = f.faults();
    config.deadline_s = 120.0;
    config.trace = &trace;
    FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                        device::NetworkType::kWifi, config);
    (void)runner.run(partition);
    return os.str();
  };
  const std::string serial = traced_run(1);
  const std::string parallel = traced_run(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);  // byte-equal, not just equivalent
}

TEST(ObsRunners, DisabledSinkLeavesRunResultBitIdentical) {
  Fixture f;
  const auto partition = f.partition();
  auto run_once = [&](bool with_sinks, obs::MetricsRegistry* metrics) {
    std::ostringstream os;
    obs::TraceWriter trace(os);
    FlConfig config;
    config.rounds = 3;
    config.seed = 42;
    config.faults = f.faults();
    config.deadline_s = 120.0;
    if (with_sinks) {
      config.trace = &trace;
      config.metrics = metrics;
    }
    FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                        device::NetworkType::kWifi, config);
    return runner.run(partition);
  };
  obs::MetricsRegistry metrics;
  const RunResult plain = run_once(false, nullptr);
  const RunResult traced = run_once(true, &metrics);
  expect_same_result(plain, traced);
  EXPECT_FALSE(metrics.empty());
}

TEST(ObsRunners, MetricsMatchResultAggregates) {
  Fixture f;
  obs::MetricsRegistry metrics;
  FlConfig config;
  config.rounds = 3;
  config.seed = 42;
  config.faults = f.faults();
  config.deadline_s = 120.0;
  config.metrics = &metrics;
  FedAvgRunner runner(f.train, f.test, f.spec, device::lenet_desc(), f.phones,
                      device::NetworkType::kWifi, config);
  const RunResult result = runner.run(f.partition());

  std::size_t completed = 0, dropped = 0, retries = 0;
  for (const auto& r : result.rounds) {
    completed += r.completed_clients;
    dropped += r.dropped_clients;
    retries += r.retry_count;
  }
  EXPECT_EQ(metrics.counter("fl.rounds"), result.rounds.size());
  EXPECT_EQ(metrics.counter("fl.clients_completed"), completed);
  EXPECT_EQ(metrics.counter("fl.clients_dropped"), dropped);
  EXPECT_EQ(metrics.counter("fl.upload_retries"), retries);
  EXPECT_EQ(metrics.gauge("fl.final_accuracy"), result.final_accuracy);
  const auto* rounds_hist = metrics.histogram("fl.round_seconds");
  ASSERT_NE(rounds_hist, nullptr);
  EXPECT_EQ(rounds_hist->count(), result.rounds.size());
}

}  // namespace
}  // namespace fedsched::fl
