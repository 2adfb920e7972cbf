#pragma once
// Seeded client-dynamics layer for the fleet tier: real fleets do not just
// crash and drain — they churn (arrivals/departures mid-run), cycle through
// day/night availability windows, charge intermittently (with
// train-only-while-charging policies), and flip between WiFi and LTE. This
// layer models all four as deterministic functions of (seed, client, round)
// so traces stay byte-identical at any --parallel width, and feeds
// FleetSimulator's event loop first-class events: availability-edge,
// charge-edge, join, leave, net-switch.
//
// Determinism contract / draw-order format:
//  - Per-client streams come from `Rng(seed).fork(client)` — a pure function
//    of (seed, client id) — with a fixed draw order that is part of the
//    format: [0] availability phase uniform in [0, day_period_s), [1] charge
//    phase uniform in [0, charge_period_s). Both are drawn whether or not the
//    feature is enabled, so toggling one scenario knob never shifts another
//    knob's stream, and a client keeps its phases when the fleet grows.
//  - Per-round draws (leave, join, net-switch) are stateless splitmix64
//    hashes of (seed ^ domain-tag, round, client), mirroring the crash draws
//    of fleet/event_sim.cpp: no draw ever depends on processing order.
//  - Availability and charging are *closed-form* cycles, not integrated
//    state: client j is available at absolute time t iff
//    fmod(t + phase_j, period) < fraction * period (a half-open window), and
//    likewise for plugged. Edge events are therefore observations of the
//    cycle, and the battery recharge integral is exact.
//
// Churn grows the FleetState through FleetGenerator::extend, so a joined
// client's attributes follow the generator's own draw-order format and ids
// are never reused (the fleet only ever appends). Departures are permanent.
//
// The disabled config (enabled == false) is inert by construction: the
// simulator never consults the layer, results and trace bytes are
// bit-identical to a build without it (tests/fleet/test_dynamics_property.cpp
// pins this).

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "fleet/fleet.hpp"

namespace fedsched::common {
class ThreadPool;
}  // namespace fedsched::common

namespace fedsched::fleet {

struct DynamicsConfig {
  /// Master gate. Disabled leaves every fleet run bit-identical.
  bool enabled = false;
  std::uint64_t seed = 0xd11aULL;

  /// Day/night availability: each client is available for day_fraction of
  /// every day_period_s cycle, at a per-client phase offset.
  bool diurnal = false;
  double day_period_s = 86'400.0;
  double day_fraction = 0.5;

  /// Plugged/unplugged charging cycle. While plugged the battery charges at
  /// charge_power_w; a dead client whose state of charge recovers above
  /// battery_floor_soc + revive_margin_soc re-enters the schedulable fleet.
  bool charging = false;
  double charge_period_s = 14'400.0;
  double charge_fraction = 0.3;
  double charge_power_w = 7.5;
  /// Train-only-while-charging policy: unplugged clients are masked out of
  /// the schedulable set (admission-time gate; an in-flight client that
  /// unplugs mid-round keeps training).
  bool charge_only = false;
  double revive_margin_soc = 0.05;
  /// Must match FleetSimConfig::battery_floor_soc for revival to line up
  /// with the simulator's death rule.
  double battery_floor_soc = 0.05;

  /// Churn: expected joins per round as a fraction of the currently alive
  /// population, and per-client departure probability per round.
  double join_fraction_per_round = 0.0;
  double leave_prob_per_round = 0.0;

  /// Per-client probability of a WiFi<->LTE switch per round. The switch
  /// swaps the client's network-cost row (comm seconds + comm energy) for
  /// all future rounds.
  double net_switch_prob_per_round = 0.0;

  /// Idle simulated seconds between rounds (lets diurnal/charge cycles
  /// progress between rounds whose makespan is much shorter than a day).
  double round_gap_s = 0.0;
};

/// Named scenario presets for the benches and the CLI `--scenario` flag:
/// static (dynamics disabled), churn, diurnal, charge-gated, net-flap.
/// Throws on unknown names.
[[nodiscard]] DynamicsConfig scenario_config(std::string_view name,
                                             std::uint64_t seed);
/// The preset names, in matrix order.
[[nodiscard]] const std::vector<std::string>& scenario_names();

/// One dynamics event inside a round, at a time relative to the round start.
struct DynEvent {
  enum class Kind : std::uint8_t {
    kAvailOff = 0,  // an in-flight client's availability window closed
    kLeave = 1,     // churn departure (permanent)
    kChargeEdge = 2,  // plugged state flipped (observational)
    kNetSwitch = 3,   // WiFi<->LTE transition
    kJoin = 4,        // churn arrival (new client id appended)
  };
  double time_s = 0.0;
  Kind kind = Kind::kAvailOff;
  /// Client id; for kJoin, the arrival sequence number within the round.
  std::uint32_t client = 0;
};

/// Bitwise-stable snapshot of the dynamics state (see snapshot()/restore()).
struct DynamicsSnapshot {
  double now_s = 0.0;
  std::vector<std::uint8_t> departed;
  std::vector<double> avail_phase;
  std::vector<double> charge_phase;
};

class ClientDynamics {
 public:
  /// `generator` supplies join attributes and the per-network comm tables;
  /// it may be null only when churn and net-flap are off. It must outlive
  /// the dynamics object.
  explicit ClientDynamics(DynamicsConfig config,
                          const FleetGenerator* generator = nullptr);

  [[nodiscard]] const DynamicsConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }
  /// The absolute simulated clock; round r runs at [now_s, now_s + span).
  [[nodiscard]] double now_s() const noexcept { return now_s_; }

  /// Draw per-client phases for clients [current, n) — idempotent, called by
  /// the cost mask and the simulator before reading any per-client cycle.
  void ensure_size(std::size_t n);

  [[nodiscard]] bool departed(std::size_t j) const {
    return j < departed_.size() && departed_[j] != 0;
  }
  /// Closed-form cycle membership at absolute time t.
  [[nodiscard]] bool available(std::size_t j, double t) const;
  [[nodiscard]] bool plugged(std::size_t j, double t) const;
  [[nodiscard]] double avail_phase(std::size_t j) const { return avail_phase_[j]; }
  [[nodiscard]] double charge_phase(std::size_t j) const {
    return charge_phase_[j];
  }

  /// The scheduler admission gate at the current clock: alive, not departed,
  /// inside the availability window, and plugged if charge_only.
  [[nodiscard]] bool schedulable(const FleetState& state, std::size_t j) const;

  /// First availability-window closure in (0, limit) seconds after the
  /// current clock, or +infinity. Assumes the window is open at now_s.
  [[nodiscard]] double avail_off_within(std::size_t j, double limit) const;
  /// Append every plugged-state flip in (0, limit) seconds after the current
  /// clock to `out` (ascending).
  void charge_edges_within(std::size_t j, double limit,
                           std::vector<double>& out) const;

  /// All churn / network events for `round` spread over [0, span): leave and
  /// net-switch draws for every alive, non-departed client, plus join
  /// arrivals sized from the alive count. Returned in draw order, not time
  /// order: by client id (a client's leave before its net switch), then the
  /// joins by arrival index. FleetSimulator sorts them together with the
  /// round's other events; its stable sort relies on each kind's events
  /// arriving in ascending client (or arrival) order, as they do here. With
  /// a pool the draws run over fixed client chunks concatenated in chunk
  /// order, so the result does not depend on the pool.
  [[nodiscard]] std::vector<DynEvent> churn_events(
      const FleetState& state, std::size_t round, double span,
      common::ThreadPool* pool = nullptr) const;

  /// Effect handlers, called by the simulator as it walks the round's
  /// sorted events.
  void mark_departed(std::size_t j);
  /// Swap client j's network-cost row (WiFi<->LTE); returns the new network.
  std::uint8_t apply_net_switch(FleetState& state, std::size_t j) const;
  /// Append one joined client via FleetGenerator::extend; returns its id.
  std::uint32_t append_join(FleetState& state);

  /// Close the round: integrate charging over [now_s, now_s + span +
  /// round_gap_s] for every client, revive charged-up dead clients, advance
  /// the clock. Returns the number of revivals. Each client's update reads
  /// and writes only its own entries, so with a pool the clients are charged
  /// in fixed chunks and the per-chunk revival counts summed: integers, so
  /// the result is the same in any order.
  std::size_t finish_round(FleetState& state, double span_s,
                           common::ThreadPool* pool = nullptr);

  /// Bitwise-stable save/restore (tests pin snapshot -> restore -> continue
  /// against an uninterrupted run).
  [[nodiscard]] DynamicsSnapshot snapshot() const;
  void restore(const DynamicsSnapshot& snap);

 private:
  DynamicsConfig config_;
  const FleetGenerator* generator_;
  common::Rng root_;
  double now_s_ = 0.0;
  std::vector<std::uint8_t> departed_;
  std::vector<double> avail_phase_;
  std::vector<double> charge_phase_;
};

/// Dynamics-aware scheduler view: fleet::linear_costs with the dynamics
/// layer's schedulable() as its predicate, so capacity is zeroed for every
/// client the layer rules out (dead, departed, outside its availability
/// window, or unplugged under charge_only) in the one pass that builds the
/// view. The mask is recomputed from live state on every call — never
/// cached — so a client that dies and later re-enters via charging gets a
/// fresh row at the next replan.
[[nodiscard]] sched::LinearCosts dynamic_linear_costs(
    const FleetState& state, std::size_t shard_size, ClientDynamics& dynamics,
    double battery_floor_soc);

}  // namespace fedsched::fleet
