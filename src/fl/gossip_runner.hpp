#pragma once
// Decentralized FL (gossip averaging) — the server-less topology the paper
// notes its framework is "amenable to" (Section IV-A, citing decentralized
// PSGD [8]).
//
// Each round every client trains locally, then averages its parameters with
// its neighbors' post-training parameters, weighted by sample counts over the
// closed neighborhood (a doubly-stochastic-in-expectation mixing for the
// ring; exact FedAvg when the graph is complete). Round time is still the
// synchronous makespan: neighbors exchange models peer-to-peer, so each
// client pays one upload and degree downloads of the model.
//
// This is the topology baseline of bench/ablation_topology: it models no
// faults, deadlines, batteries, rescheduling or replication and emits no
// trace — FedAvgRunner carries those.

#include "data/partition.hpp"
#include "fl/runner.hpp"

namespace fedsched::fl {

enum class Topology {
  kRing,      // each client exchanges with its two neighbors
  kComplete,  // all-to-all: equivalent to FedAvg with a virtual server
};

[[nodiscard]] const char* topology_name(Topology topology) noexcept;

/// Neighbor lists (excluding self) for n clients under the topology.
[[nodiscard]] std::vector<std::vector<std::size_t>> build_topology(Topology topology,
                                                                   std::size_t n);

struct GossipConfig {
  std::size_t rounds = 10;
  std::size_t batch_size = 20;
  nn::SgdConfig sgd{.learning_rate = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f};
  Topology topology = Topology::kRing;
  std::uint64_t seed = 1;
  /// Lanes training clients concurrently on the process pool: 0 = hardware
  /// concurrency, 1 = inline. Results are identical for every value.
  std::size_t parallelism = 0;
};

struct GossipRunResult {
  /// Per-round timing and mean training loss (the fault, recovery and
  /// replication fields of RoundRecord stay at their defaults).
  std::vector<RoundRecord> rounds;
  /// Accuracy of every client's final local model (they need not agree).
  std::vector<double> client_accuracy;
  double mean_accuracy = 0.0;
  /// Max pairwise L2 distance between client models after the last round —
  /// the consensus error the averaging is supposed to shrink.
  double consensus_gap = 0.0;
  double total_seconds = 0.0;
};

class GossipRunner {
 public:
  GossipRunner(const data::Dataset& train, const data::Dataset& test,
               nn::ModelSpec model_spec, device::ModelDesc device_model,
               std::vector<device::PhoneModel> phones, device::NetworkType network,
               GossipConfig config);

  [[nodiscard]] GossipRunResult run(const data::Partition& partition);

 private:
  const data::Dataset& train_;
  const data::Dataset& test_;
  nn::ModelSpec model_spec_;
  device::ModelDesc device_model_;
  std::vector<device::PhoneModel> phones_;
  device::NetworkType network_;
  GossipConfig config_;
  ClientExecutor executor_;  // per-lane worker models + pool
};

}  // namespace fedsched::fl
