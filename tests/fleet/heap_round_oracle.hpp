#pragma once
// Test-only oracle: the event-heap round loop FleetSimulator::run_round was
// first written with. It pushed every event of the round onto a
// std::priority_queue before the first pop and walked the pops. The library
// now sorts the round's events once and emits contributors in id order
// (fleet/event_sim.cpp); this keeps the pop-by-pop loop, with the churn draws
// it consumed in their old time-sorted form, so
// tests/fleet/test_fleet_round_oracle.cpp can compare every result field,
// the dynamics state and the fleet columns bitwise. Only the trace and
// metrics emission are left out.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fl/aggregate.hpp"
#include "fleet/dynamics.hpp"
#include "fleet/event_sim.hpp"

namespace fedsched::fleet::oracle {

namespace detail {

/// Stateless two-input mixer built on splitmix64.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL);
  return common::splitmix64(s);
}

inline double hash_to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// The simulator's and the dynamics layer's domain tags.
constexpr std::uint64_t kDropoutTag = 0x66616c6c6f766572ULL;
constexpr std::uint64_t kLeaveTag = 0x6c65617665727321ULL;
constexpr std::uint64_t kJoinTag = 0x6a6f696e65727321ULL;
constexpr std::uint64_t kNetTag = 0x6e6574666c617073ULL;
constexpr std::uint64_t kWhenSalt = 0x7768656e3f3f3f3fULL;

}  // namespace detail

/// ClientDynamics::churn_events as the heap loop consumed it: one serial
/// pass over the clients, sorted by (time, kind, client).
inline std::vector<DynEvent> heap_churn_events(const ClientDynamics& dynamics,
                                               const FleetState& state,
                                               std::size_t round, double span) {
  using detail::hash_to_unit;
  using detail::mix;
  const DynamicsConfig& config_ = dynamics.config();
  std::vector<DynEvent> events;
  if (span <= 0.0) span = 1.0;  // degenerate round: pin draws at time 0..span

  std::size_t alive_count = 0;
  const std::size_t n = state.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (state.alive[j] == 0 || dynamics.departed(j)) continue;
    ++alive_count;
    if (config_.leave_prob_per_round > 0.0) {
      const std::uint64_t h = mix(mix(config_.seed ^ detail::kLeaveTag, round), j);
      if (hash_to_unit(h) < config_.leave_prob_per_round) {
        const double when =
            span * hash_to_unit(mix(h, detail::kWhenSalt));
        events.push_back({when, DynEvent::Kind::kLeave,
                          static_cast<std::uint32_t>(j)});
      }
    }
    if (config_.net_switch_prob_per_round > 0.0) {
      const std::uint64_t h = mix(mix(config_.seed ^ detail::kNetTag, round), j);
      if (hash_to_unit(h) < config_.net_switch_prob_per_round) {
        const double when = span * hash_to_unit(mix(h, detail::kWhenSalt));
        events.push_back({when, DynEvent::Kind::kNetSwitch,
                          static_cast<std::uint32_t>(j)});
      }
    }
  }

  if (config_.join_fraction_per_round > 0.0) {
    const double expected =
        config_.join_fraction_per_round * static_cast<double>(alive_count);
    std::size_t count = static_cast<std::size_t>(std::floor(expected));
    const double frac = expected - std::floor(expected);
    if (hash_to_unit(mix(config_.seed ^ detail::kJoinTag, round)) < frac) ++count;
    for (std::size_t i = 0; i < count; ++i) {
      const double when =
          span * hash_to_unit(mix(mix(config_.seed ^ detail::kJoinTag, round), i + 1));
      events.push_back({when, DynEvent::Kind::kJoin,
                        static_cast<std::uint32_t>(i)});
    }
  }

  std::sort(events.begin(), events.end(),
            [](const DynEvent& a, const DynEvent& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.client < b.client;
            });
  return events;
}

/// FleetSimulator::run_round with the event heap, over a caller-owned state
/// and config. `pool` only feeds the tree reduction, which is bit-identical
/// at any width; the dynamics layer closes the round serially.
inline FleetRoundResult heap_run_round(FleetState& state_,
                                       const FleetSimConfig& config_,
                                       std::span<const std::size_t> shards_per_client,
                                       std::size_t round,
                                       ClientDynamics* dynamics = nullptr,
                                       common::ThreadPool* pool = nullptr) {
  using detail::hash_to_unit;
  using detail::mix;
  constexpr std::uint64_t kDropoutTag = detail::kDropoutTag;
  if (shards_per_client.size() != state_.size()) {
    throw std::invalid_argument("FleetSimulator::run_round: plan size mismatch");
  }
  const bool dyn = dynamics != nullptr && dynamics->enabled();
  if (dyn) dynamics->ensure_size(state_.size());

  FleetRoundResult result;
  result.round = round;

  // One heap for everything: finish events and dynamics events, ordered by
  // (time, kind, client). Dynamics kinds (0..4, fleet/dynamics.hpp) rank
  // before kFinish at equal times — availability windows are half-open, so a
  // closure at exactly the finish instant cancels the report. With dynamics
  // off only kFinish events exist and the order is the classic
  // (finish, client) order.
  constexpr std::uint8_t kFinish = 5;
  struct Event {
    double time_s;
    std::uint8_t kind;
    std::uint32_t client;
    bool operator>(const Event& o) const {
      if (time_s != o.time_s) return time_s > o.time_s;
      if (kind != o.kind) return kind > o.kind;
      return client > o.client;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;

  // Per-client compute span of the in-flight attempt (indexed by round-start
  // id); inflight[j] clears on finish or cancellation. Joins appended
  // mid-round get ids >= initial_n and are never in-flight this round.
  const std::size_t initial_n = state_.size();
  std::vector<double> compute_s_of(dyn ? initial_n : 0, 0.0);
  std::vector<std::uint8_t> inflight(dyn ? initial_n : 0, 0);
  std::vector<double> edge_scratch;

  // Only plan participants enter the queue; idle clients are never touched.
  double plan_span = 0.0;
  for (std::size_t j = 0; j < initial_n; ++j) {
    const std::size_t shards = shards_per_client[j];
    if (shards == 0) continue;
    ++result.participants;
    if (!state_.alive[j] || (dyn && !dynamics->schedulable(state_, j))) {
      // A stale plan may still target a dead (or, with dynamics, offline /
      // departed / unplugged) client; it never starts and burns nothing — a
      // planner no-op, not a round fault.
      ++result.dropped_stale;
      continue;
    }
    const double compute_s =
        state_.base_s[j] +
        state_.per_sample_s[j] *
            static_cast<double>(shards * config_.shard_size);
    const double finish_s = compute_s + state_.comm_s[j];
    queue.push({finish_s, kFinish, static_cast<std::uint32_t>(j)});
    plan_span = std::max(plan_span, finish_s);
    if (dyn) {
      compute_s_of[j] = compute_s;
      inflight[j] = 1;
      const double off_s = dynamics->avail_off_within(j, finish_s);
      if (off_s < finish_s) {
        queue.push({off_s, static_cast<std::uint8_t>(DynEvent::Kind::kAvailOff),
                    static_cast<std::uint32_t>(j)});
      }
      edge_scratch.clear();
      dynamics->charge_edges_within(j, finish_s, edge_scratch);
      for (double edge_s : edge_scratch) {
        queue.push({edge_s, static_cast<std::uint8_t>(DynEvent::Kind::kChargeEdge),
                    static_cast<std::uint32_t>(j)});
      }
    }
  }

  if (dyn) {
    for (const DynEvent& ev : heap_churn_events(*dynamics, state_, round, plan_span)) {
      queue.push({ev.time_s, static_cast<std::uint8_t>(ev.kind), ev.client});
    }
  }

  // Cancel an in-flight attempt at `at_s`: the compute burned so far drains
  // the battery, comm energy only if the upload already started. Death still
  // applies — a cancelled attempt can kill the battery.
  const auto cancel_inflight = [&](std::uint32_t j, double at_s) {
    const double burned_compute_s = std::min(at_s, compute_s_of[j]);
    const double drain_wh =
        state_.train_power_w[j] * burned_compute_s / 3600.0 +
        (at_s > compute_s_of[j] ? state_.comm_energy_wh[j] : 0.0);
    result.energy_wh += drain_wh;
    state_.battery_soc[j] = std::max(
        0.0, state_.battery_soc[j] - drain_wh / state_.battery_capacity_wh[j]);
    if (state_.battery_soc[j] <= config_.battery_floor_soc && state_.alive[j]) {
      state_.alive[j] = 0;
      ++result.battery_deaths;
    }
    inflight[j] = 0;
    ++result.dropped_offline;
  };

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    ++result.events_processed;
    const std::uint32_t j = ev.client;

    if (ev.kind != kFinish) {
      switch (static_cast<DynEvent::Kind>(ev.kind)) {
        case DynEvent::Kind::kAvailOff:
          if (inflight[j]) cancel_inflight(j, ev.time_s);
          break;
        case DynEvent::Kind::kLeave:
          dynamics->mark_departed(j);
          ++result.leaves;
          if (j < inflight.size() && inflight[j]) cancel_inflight(j, ev.time_s);
          break;
        case DynEvent::Kind::kChargeEdge:
          ++result.charge_edges;
          break;
        case DynEvent::Kind::kNetSwitch:
          dynamics->apply_net_switch(state_, j);
          ++result.net_switches;
          break;
        case DynEvent::Kind::kJoin:
          dynamics->append_join(state_);
          ++result.joins;
          break;
      }
      continue;
    }

    if (dyn && !inflight[j]) continue;  // cancelled before it finished
    if (dyn) inflight[j] = 0;

    // The attempt burns energy whether or not the report makes it back. A
    // mid-round net-switch mutates comm_s, so with dynamics the compute span
    // comes from the snapshot taken at admission (the exchange energy uses
    // the current row: the switch carried the actual bytes).
    const double compute_s =
        dyn ? compute_s_of[j] : ev.time_s - state_.comm_s[j];
    const double drain_wh = state_.train_power_w[j] * compute_s / 3600.0 +
                            state_.comm_energy_wh[j];
    result.energy_wh += drain_wh;
    state_.battery_soc[j] = std::max(
        0.0, state_.battery_soc[j] - drain_wh / state_.battery_capacity_wh[j]);

    if (state_.battery_soc[j] <= config_.battery_floor_soc) {
      // Battery death is permanent, but it gates *future* schedulability
      // only: by the time the OS kills the app the finish event — report
      // included — has already been delivered, so the client still counts
      // toward this round (and may still crash or miss the deadline below).
      state_.alive[j] = 0;
      ++result.battery_deaths;
    }
    const double crash_draw =
        hash_to_unit(mix(mix(config_.seed ^ kDropoutTag, round), j));
    if (crash_draw < config_.dropout_prob) {
      ++result.dropped_crash;
      continue;
    }
    if (ev.time_s > config_.deadline_s) {
      ++result.dropped_deadline;
      continue;
    }
    result.contributors.push_back(j);
    result.survivor_shards += shards_per_client[j];
    result.makespan_s = std::max(result.makespan_s, ev.time_s);
  }
  result.completed = result.contributors.size();

  // Events arrive in finish order; canonicalize the member list to client-id
  // order so the tree partition is a pure function of the survivor set.
  std::sort(result.contributors.begin(), result.contributors.end());

  const std::size_t dropped = result.dropped_crash + result.dropped_deadline +
                              result.dropped_offline;
  if (dropped > 0 && std::isfinite(config_.deadline_s)) {
    // With in-flight drops under a finite deadline the server holds the
    // round open until the deadline closes it — same semantics as the
    // testbed runners. An offline cancellation is an in-flight drop: the
    // server waited for that report until the deadline told it to stop.
    // Stale-plan no-ops never started, so the server is not waiting on them
    // and they do not pin the round open.
    result.makespan_s = config_.deadline_s;
  }

  if (!result.contributors.empty()) {
    std::vector<std::uint32_t> weights(result.contributors.size());
    for (std::size_t m = 0; m < result.contributors.size(); ++m) {
      weights[m] =
          static_cast<std::uint32_t>(shards_per_client[result.contributors[m]]);
    }
    const std::uint64_t seed = config_.seed;
    const auto update_into = [seed, round](std::uint32_t client,
                                           std::span<double> out) {
      synthetic_update(seed, round, client, out);
    };
    result.global_update = fl::tree_weighted_sum(
        result.contributors, weights, config_.update_dim, update_into,
        config_.group_size, pool);
    const double total_weight = static_cast<double>(result.survivor_shards);
    for (double& v : result.global_update) v /= total_weight;
  }

  if (dyn) {
    // Close the round: integrate charging over the round span plus the
    // configured inter-round gap, revive charged-up dead clients, advance
    // the dynamics clock.
    result.revivals = dynamics->finish_round(state_, result.makespan_s);
  }
  return result;
}

}  // namespace fedsched::fleet::oracle
