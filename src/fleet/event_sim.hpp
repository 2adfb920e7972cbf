#pragma once
// Discrete-event round simulator for fleet-scale FL.
//
// A round handles events, not clients: only clients holding shards get
// events. Its cost is linear in the round's E events (a fixed number of
// radix-sort passes, then one walk) plus two byte-sized scans of the n
// clients (admission reads the plan; the contributor list is read back in
// id order), so an idle client costs a plan entry and a status byte, and
// no event. Every event of a round is known before the first one is
// handled: admission
// yields each participant's finish and, with dynamics, its availability
// closure and charge edges; churn comes from stateless draws; and no
// handler schedules a new event. So the round collects its events in one
// vector, sorts it once by (time, kind, client) and walks it in order.
//
// The order is strict: within a round a client has at most one finish, one
// availability closure, one leave and one net switch, its charge edges
// have strictly increasing times, and joins carry distinct arrival indices.
// So the sorted sequence is the only one, the same sequence a min-heap over
// these events popped, and it fixes the processing order independently of
// how the plan was produced. Event times are finite by construction (the
// constructor rejects non-finite timing columns), so the order is well
// defined. The sort is a stable radix sort over an integer image of the
// time, fed each kind's events in client order (fleet/event_sim.cpp);
// tests/fleet/test_fleet_round_oracle.cpp checks it bitwise against the old
// heap loop.
//
// Faults mirror the testbed tier's kinds at fleet fidelity: a hashed
// per-(seed, round, client) dropout draw (crash), a round deadline, and
// battery death against a state-of-charge floor. Battery drain persists in
// FleetState across rounds; clients whose battery dies are marked not alive
// and drop out of future plans via fleet::linear_costs. Death gates *future*
// schedulability only: a client whose report was already delivered this
// round still contributes to the aggregate, and then leaves the fleet
// (`battery_deaths` counts the transition). A stale plan that still targets
// an already-dead client is a planner no-op — it never starts, burns
// nothing, and is tallied as `dropped_stale`, outside the deadline-hold
// rule, because the server already knows that client is gone.
//
// Aggregation reduces the survivors' synthetic updates with the two-level
// tree of fl::tree_weighted_sum, shard-count weighted. Updates are
// fixed-point: every coordinate is a multiple of 2^-16 with |v| < 1, drawn
// by a stateless splitmix64 hash of (seed, round, client, index), so all
// reduction orders are exact in double and the tree result is bit-identical
// to the flat left-to-right sum at every --parallel width
// (tests/fleet/test_fleet_sim.cpp).
//
// Client dynamics (fleet/dynamics.hpp) join the same sorted event vector as
// first-class events ranked *before* finish events at equal times:
// availability-edge and leave cancel in-flight work (partial energy burned,
// tallied as `dropped_offline`, which joins the deadline-hold rule),
// charge-edge flips are observational counts, net-switch swaps the client's
// network-cost row for future rounds, and join appends a new client through
// the generator's prefix-stable extend. With a null or disabled dynamics
// layer only finish events exist — results and trace bytes are
// bit-identical to a build without dynamics.
//
// With `parallelism` other than 1 the tree reduction and the dynamics
// layer's per-client passes (churn draws, end-of-round charging) fork over
// fixed chunks on the process pool (common::global_pool()); the simulator
// owns no threads. Every pass is exact in any order, so results stay
// bit-identical at every width.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "fleet/dynamics.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedsched::fleet {

struct FleetSimConfig {
  std::size_t shard_size = 100;
  /// Round deadline in simulated seconds; infinity = wait for the straggler.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Per-(round, client) crash probability, drawn from a stateless hash.
  double dropout_prob = 0.0;
  /// State-of-charge floor below which the OS kills the training app.
  double battery_floor_soc = 0.05;
  /// Dimension of the synthetic client updates.
  std::size_t update_dim = 32;
  /// Tree-aggregation fan-in (clients per shard-group partial).
  std::size_t group_size = 1024;
  /// Where the tree aggregation and the dynamics layer's per-client passes
  /// run: 1 = serially on the caller, any other value = on the process pool
  /// (common::global_pool()).
  std::size_t parallelism = 1;
  std::uint64_t seed = 0x5eedULL;
};

struct FleetRoundResult {
  std::size_t round = 0;
  std::size_t participants = 0;
  std::size_t completed = 0;
  std::size_t dropped_crash = 0;
  std::size_t dropped_deadline = 0;
  /// Plan entries targeting clients already dead — or, with dynamics, not
  /// schedulable — at round start (never ran).
  std::size_t dropped_stale = 0;
  /// In-flight clients cancelled mid-round by an availability-window closure
  /// or a churn departure (partial energy burned, no report delivered).
  std::size_t dropped_offline = 0;
  /// Dynamics tallies (all zero when the layer is null or disabled).
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t charge_edges = 0;
  std::size_t net_switches = 0;
  /// Dead clients revived by end-of-round charging (see
  /// ClientDynamics::finish_round).
  std::size_t revivals = 0;
  /// Clients whose battery hit the floor during this round's attempt; they
  /// leave the schedulable fleet afterward (an already-delivered report
  /// still counts, so a death is not itself a drop).
  std::size_t battery_deaths = 0;
  std::size_t events_processed = 0;
  std::size_t survivor_shards = 0;
  double makespan_s = 0.0;
  double energy_wh = 0.0;
  /// Completed client ids, ascending (the tree-reduction member list).
  std::vector<std::uint32_t> contributors;
  /// Shard-weighted mean of the survivors' updates (empty if none survived).
  std::vector<double> global_update;
};

/// One coordinate of the synthetic update: a multiple of 2^-16 in [-1, 1),
/// a pure function of (seed, round, client, index).
[[nodiscard]] double synthetic_update_value(std::uint64_t seed, std::size_t round,
                                            std::uint32_t client,
                                            std::size_t index) noexcept;

/// Fill `out` with client's full update for the round.
void synthetic_update(std::uint64_t seed, std::size_t round, std::uint32_t client,
                      std::span<double> out) noexcept;

class FleetSimulator {
 public:
  /// Takes ownership of the state; battery/health mutate across rounds.
  /// Throws std::invalid_argument for an empty fleet, columns whose length
  /// differs from device_model's, or a non-finite base_s, per_sample_s or
  /// comm_s (event times are built from them).
  FleetSimulator(FleetState state, FleetSimConfig config);

  [[nodiscard]] const FleetState& state() const noexcept { return state_; }
  [[nodiscard]] const FleetSimConfig& config() const noexcept { return config_; }

  /// Simulate one round of the given plan (shards_per_client[j] = shards
  /// assigned to client j; zero = idle). Emits a `fleet_round` trace event
  /// when given an enabled writer; trace bytes carry simulated quantities
  /// only and are byte-identical at any parallelism.
  ///
  /// `dynamics` (optional) merges churn / availability / charging / network
  /// events into the round (the fleet may grow via joins — replan from
  /// state().size() next round). Its trace fields and `fleet.*` metrics
  /// counters are only emitted when the layer is enabled, so a null or
  /// disabled layer leaves trace bytes unchanged. `metrics` (optional)
  /// accumulates fleet.joins|leaves|charge_edges|net_switches counters.
  FleetRoundResult run_round(std::span<const std::size_t> shards_per_client,
                             std::size_t round, obs::TraceWriter* trace = nullptr,
                             ClientDynamics* dynamics = nullptr,
                             obs::MetricsRegistry* metrics = nullptr);

 private:
  FleetState state_;
  FleetSimConfig config_;
};

}  // namespace fedsched::fleet
