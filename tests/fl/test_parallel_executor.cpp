// ClientExecutor's claim cursor: every client runs once, a serial executor
// runs in claim order (largest work first), errors surface after the other
// lanes finish, and a worker never serves two clients at once. Then the
// contract that matters: a FedAvg run on Fed-LBAP-style unequal shares, whose
// claim order is not index order, is bit-identical at widths 1 and 4.
// (The determinism matrix runs equal shares only.)

#include "fl/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/partition.hpp"
#include "data/synth.hpp"
#include "fl/runner.hpp"
#include "obs/trace.hpp"

namespace fedsched::fl {
namespace {

nn::ModelSpec tiny_spec() {
  nn::ModelSpec spec;
  spec.in_h = spec.in_w = 8;
  spec.classes = 4;
  return spec;
}

void pause_briefly() { std::this_thread::sleep_for(std::chrono::milliseconds(2)); }

TEST(ParallelExecutor, EveryClientRunsExactlyOnce) {
  for (std::size_t width : {1u, 2u, 4u}) {
    ClientExecutor executor(tiny_spec(), width);
    ASSERT_EQ(executor.width(), width);
    for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 13u}) {
      for (bool weighted : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "width " << width << ", " << n
                                          << " clients, weighted " << weighted);
        std::vector<std::size_t> work;
        if (weighted) {
          for (std::size_t u = 0; u < n; ++u) work.push_back((u * 7) % 5);
        }
        std::vector<std::atomic<int>> runs(n);
        executor.for_each_client(
            n, [&](std::size_t u, nn::Model&) { runs.at(u).fetch_add(1); }, work);
        for (std::size_t u = 0; u < n; ++u) EXPECT_EQ(runs[u].load(), 1) << "client " << u;
      }
    }
  }
}

TEST(ParallelExecutor, SerialExecutorRunsInClaimOrder) {
  ClientExecutor executor(tiny_spec(), 1);
  std::vector<std::size_t> visited;
  const auto record = [&](std::size_t u, nn::Model&) { visited.push_back(u); };

  // Largest work first; equal work goes to the lower id.
  const std::vector<std::size_t> work = {3, 9, 9, 1, 0, 9};
  executor.for_each_client(work.size(), record, work);
  EXPECT_EQ(visited, (std::vector<std::size_t>{1, 2, 5, 0, 3, 4}));

  // No work: index order.
  visited.clear();
  executor.for_each_client(4, record);
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2, 3}));

  // The Table III shares (Fed-LBAP on Testbed II).
  visited.clear();
  const std::vector<std::size_t> table3 = {6550, 6550, 2100, 2150, 4500, 8150};
  executor.for_each_client(table3.size(), record, table3);
  EXPECT_EQ(visited, (std::vector<std::size_t>{5, 0, 1, 4, 3, 2}));
}

TEST(ParallelExecutor, RejectsWorkOfTheWrongSize) {
  ClientExecutor executor(tiny_spec(), 2);
  const std::vector<std::size_t> work = {1, 2, 3};
  EXPECT_THROW(executor.for_each_client(4, [](std::size_t, nn::Model&) {}, work),
               std::invalid_argument);
}

TEST(ParallelExecutor, ExceptionPropagatesAfterOtherLanesFinish) {
  constexpr std::size_t kClients = 12;
  constexpr std::size_t kThrower = 0;
  for (std::size_t width : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    ClientExecutor executor(tiny_spec(), width);
    std::vector<std::atomic<int>> runs(kClients);
    std::atomic<int> in_flight{0};
    const auto body = [&](std::size_t u, nn::Model&) {
      runs[u].fetch_add(1);
      if (u == kThrower) throw std::runtime_error("client failed");
      in_flight.fetch_add(1);
      pause_briefly();
      in_flight.fetch_sub(1);
    };
    EXPECT_THROW(executor.for_each_client(kClients, body), std::runtime_error);
    EXPECT_EQ(in_flight.load(), 0) << "rethrown while a lane was still running";
    EXPECT_EQ(runs[kThrower].load(), 1);
    for (std::size_t u = 1; u < kClients; ++u) {
      // The failing lane stops claiming; the others drain the cursor. A
      // serial executor stops at the failing client, which it claims first.
      EXPECT_EQ(runs[u].load(), width == 1 ? 0 : 1) << "client " << u;
    }
  }
}

TEST(ParallelExecutor, NoWorkerServesTwoClientsAtOnce) {
  constexpr std::size_t kWidth = 4;
  constexpr std::size_t kClients = 24;
  ClientExecutor executor(tiny_spec(), kWidth);
  std::mutex mu;
  std::set<const nn::Model*> busy;
  std::set<const nn::Model*> seen;
  std::atomic<int> overlaps{0};
  std::vector<std::size_t> work(kClients);
  for (std::size_t u = 0; u < kClients; ++u) work[u] = (u * 11) % 7;
  executor.for_each_client(
      kClients,
      [&](std::size_t, nn::Model& worker) {
        {
          const std::lock_guard lock(mu);
          if (!busy.insert(&worker).second) overlaps.fetch_add(1);
          seen.insert(&worker);
        }
        pause_briefly();
        const std::lock_guard lock(mu);
        busy.erase(&worker);
      },
      work);
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_LE(seen.size(), kWidth);
  EXPECT_TRUE(busy.empty());
}

// ---- FedAvg on unequal shares ---------------------------------------------

struct SkewedRun {
  RunResult result;
  std::vector<float> params;
  std::string trace;
};

// Testbed II at the Table III proportions (6550/6550/2100/2150/4500/8150 of
// 30,000 samples), scaled to 600: the largest share is the last client, so
// largest-first claiming differs from index order.
SkewedRun run_skewed(std::size_t parallelism, bool faults) {
  const data::SynthConfig cfg = data::mnist_like();
  const data::Dataset train = data::generate_balanced(cfg, 600, 70);
  const data::Dataset test = data::generate_balanced(cfg, 120, 71);
  common::Rng rng(72);
  const data::Partition partition = data::partition_with_sizes_iid(
      train, data::proportional_sizes(600, {6550, 6550, 2100, 2150, 4500, 8150}), rng);

  std::ostringstream sink;
  obs::TraceWriter trace(sink);
  FlConfig config;
  config.rounds = 3;
  config.seed = 73;
  config.evaluate_each_round = true;
  config.parallelism = parallelism;
  config.trace = &trace;
  if (faults) {
    config.faults.enabled = true;
    config.faults.dropout_prob = 0.25;
    config.faults.transient_prob = 0.2;
    config.replicate.policy = replication::ReplicationPolicy::kRisk;
    config.replicate.budget_per_round = 2;
    config.replicate.risk_threshold = 0.2;
  }
  FedAvgRunner runner(train, test, nn::ModelSpec{}, device::lenet_desc(),
                      device::testbed(2), device::NetworkType::kWifi, config);
  SkewedRun run;
  run.result = runner.run(partition);
  run.params = runner.global_model().flat_params();
  run.trace = sink.str();
  return run;
}

void expect_same_rounds(const std::vector<RoundRecord>& a,
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
    EXPECT_EQ(a[r].completed_clients, b[r].completed_clients);
    EXPECT_EQ(a[r].dropped_clients, b[r].dropped_clients);
    EXPECT_EQ(a[r].retry_count, b[r].retry_count);
    EXPECT_EQ(a[r].skipped, b[r].skipped);
    EXPECT_EQ(a[r].client_faults, b[r].client_faults);
    EXPECT_EQ(a[r].rescheduled, b[r].rescheduled);
    EXPECT_EQ(a[r].moved_shards, b[r].moved_shards);
    EXPECT_EQ(a[r].replicas_assigned, b[r].replicas_assigned);
    EXPECT_EQ(a[r].replicas_won, b[r].replicas_won);
    EXPECT_EQ(a[r].shares_rescued, b[r].shares_rescued);
  }
}

TEST(ParallelFedAvg, SkewedSharesMatchSerialBitForBit) {
  for (bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faults + replication" : "clean");
    const SkewedRun serial = run_skewed(1, faults);
    const SkewedRun parallel = run_skewed(4, faults);
    expect_same_rounds(serial.result.rounds, parallel.result.rounds);
    EXPECT_EQ(serial.result.final_accuracy, parallel.result.final_accuracy);
    EXPECT_EQ(serial.result.total_seconds, parallel.result.total_seconds);
    EXPECT_EQ(serial.params, parallel.params) << "final flat params differ";
    EXPECT_EQ(serial.trace, parallel.trace) << "trace bytes differ";
    EXPECT_FALSE(serial.trace.empty());
  }
}

}  // namespace
}  // namespace fedsched::fl
