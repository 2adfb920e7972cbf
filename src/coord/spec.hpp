#pragma once
// Run specifications the coordinator accepts over the wire.
//
// v1 supports the two run kinds that exercise both fidelity tiers: `train`
// (the synchronous FedAvg testbed runner, fl/runner.hpp) and `fleet` (the
// discrete-event fleet simulator, fleet/event_sim.hpp). Each spec carries
// exactly the knobs of the matching CLI subcommand's deterministic core, so
// a run submitted to the coordinator produces RunResult values and trace
// bytes identical to the same spec driven through `fedsched_cli train
// --checkpoint-every 1` / `fedsched_cli fleet` — the coordinator's
// byte-identity contract (docs/API.md "Coordinator service"). The async and
// gossip runners are ablation baselines (bench/ablation_*), not run kinds.
//
// parse_run_spec validates field kinds and ranges and throws on anything
// malformed — a rejected spec never touches coordinator state.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "common/json.hpp"

namespace fedsched::coord {

/// Testbed FedAvg run — mirrors `fedsched_cli train`'s deterministic core.
struct TrainRunSpec {
  std::string dataset = "mnist";    // mnist | cifar
  int testbed = 1;                  // 1 | 2 | 3
  std::string model = "LeNet";      // LeNet | VGG6
  std::size_t samples = 1200;
  std::string policy = "fed-lbap";  // fed-lbap | equal | prop | random
  std::size_t rounds = 10;
  std::uint64_t seed = 1;
  /// Client lanes inside the run, on the process pool (results
  /// bit-identical at any value); coordinator runs default to serial so
  /// multiplexed runs do not oversubscribe the host.
  std::size_t parallelism = 1;
  bool evaluate_each_round = false;
};

/// Fleet-tier run — mirrors `fedsched_cli fleet`.
struct FleetRunSpec {
  std::size_t fleet_size = 10'000;
  std::string mix;                  // fleet::parse_fleet_mix syntax; "" = default
  std::string model = "LeNet";      // LeNet | VGG6
  std::size_t shard = 100;
  std::size_t buckets = 64;
  std::size_t rounds = 1;
  std::size_t total_shards = 0;     // 0 = 2 * fleet_size (the CLI default)
  std::string policy = "fed-lbap";  // one of fleet::planner_names()
  double deadline_s = std::numeric_limits<double>::infinity();
  double dropout = 0.0;
  double battery_floor = 0.05;
  std::uint64_t seed = 1;
  std::size_t parallelism = 1;

  [[nodiscard]] std::size_t effective_total_shards() const noexcept {
    return total_shards == 0 ? 2 * fleet_size : total_shards;
  }
};

enum class RunKind { kTrain, kFleet };

struct RunSpec {
  std::string id;
  RunKind kind = RunKind::kTrain;
  TrainRunSpec train;
  FleetRunSpec fleet;

  /// Simulated clients this run keeps resident while active — the quantity
  /// admission control budgets against.
  [[nodiscard]] std::size_t resident_clients() const;
  [[nodiscard]] std::size_t total_rounds() const {
    return kind == RunKind::kTrain ? train.rounds : fleet.rounds;
  }
};

[[nodiscard]] const char* run_kind_name(RunKind kind);

/// Parse and validate a spec object ({"id": ..., "kind": "train"|"fleet",
/// ...}). Unknown kinds, wrong field types, and out-of-range values throw
/// std::runtime_error; a malformed `mix` throws fleet::parse_fleet_mix's
/// std::invalid_argument.
[[nodiscard]] RunSpec parse_run_spec(const common::JsonValue& v);

/// Canonical JSON rendering; parse_run_spec round-trips it.
[[nodiscard]] std::string run_spec_json(const RunSpec& spec);

}  // namespace fedsched::coord
