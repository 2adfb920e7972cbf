#include "fleet/event_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fl/aggregate.hpp"

namespace fedsched::fleet {

namespace {

/// Stateless two-input mixer built on splitmix64.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL);
  return common::splitmix64(s);
}

// Domain tags keep the dropout stream independent of the update stream.
constexpr std::uint64_t kDropoutTag = 0x66616c6c6f766572ULL;
constexpr std::uint64_t kUpdateTag = 0x7570646174657321ULL;

double hash_to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// One event of a round. Dynamics kinds (0..4, fleet/dynamics.hpp) rank
/// before kFinish at equal times: availability windows are half-open, so a
/// closure at exactly the finish instant cancels the report.
constexpr std::uint8_t kFinish = 5;
struct Event {
  double time_s;
  std::uint8_t kind;
  std::uint32_t client;
};

/// Order-preserving integer image of a finite time: a < b iff
/// time_key(a) < time_key(b). Adding 0.0 first turns -0.0 into +0.0, so
/// times that compare equal get equal keys.
std::uint64_t time_key(double t) noexcept {
  const std::uint64_t b = std::bit_cast<std::uint64_t>(t + 0.0);
  return b >> 63 ? ~b : b | (std::uint64_t{1} << 63);
}

/// Sort a round's events into (time, kind, client) order with one stable
/// LSD radix sort: a pass on the kind, then four 16-bit digits of the time
/// key. The caller appends each kind's events in ascending client order
/// (admission walks the clients by id, churn draws come in draw order), and
/// stability keeps that order among equal (time, kind), so the client
/// tie-break needs no pass of its own. A digit that every event shares is
/// skipped.
void sort_events(std::vector<Event>& events) {
  if (events.empty()) return;
  constexpr std::size_t kRadix = std::size_t{1} << 16;
  std::vector<Event> sorted(events.size());
  std::vector<std::size_t> offset(kRadix);
  const auto pass = [&](const auto& digit) {
    std::fill(offset.begin(), offset.end(), 0);
    for (const Event& ev : events) ++offset[digit(ev)];
    if (offset[digit(events.front())] == events.size()) return;
    std::size_t sum = 0;
    for (std::size_t& o : offset) sum += std::exchange(o, sum);
    for (const Event& ev : events) sorted[offset[digit(ev)]++] = ev;
    events.swap(sorted);
  };
  pass([](const Event& ev) { return ev.kind; });
  for (int shift = 0; shift < 64; shift += 16) {
    pass([shift](const Event& ev) { return (time_key(ev.time_s) >> shift) & 0xffff; });
  }
}

}  // namespace

double synthetic_update_value(std::uint64_t seed, std::size_t round,
                              std::uint32_t client, std::size_t index) noexcept {
  const std::uint64_t h =
      mix(mix(mix(seed ^ kUpdateTag, round), client), index);
  // Top 17 bits -> signed grid point in [-2^16, 2^16), scaled by 2^-16:
  // every value is a multiple of 2^-16 with |v| <= 1, so weighted sums with
  // integer weights below ~2^36 are exact in double in any order.
  const std::int64_t q =
      static_cast<std::int64_t>(h >> 47) - (std::int64_t{1} << 16);
  return static_cast<double>(q) * 0x1.0p-16;
}

void synthetic_update(std::uint64_t seed, std::size_t round, std::uint32_t client,
                      std::span<double> out) noexcept {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = synthetic_update_value(seed, round, client, i);
  }
}

FleetSimulator::FleetSimulator(FleetState state, FleetSimConfig config)
    : state_(std::move(state)), config_(config) {
  const std::size_t n = state_.size();
  if (n == 0) throw std::invalid_argument("FleetSimulator: empty fleet");
  const bool aligned =
      state_.network.size() == n && state_.speed_factor.size() == n &&
      state_.base_s.size() == n && state_.per_sample_s.size() == n &&
      state_.comm_s.size() == n && state_.battery_soc.size() == n &&
      state_.battery_capacity_wh.size() == n && state_.train_power_w.size() == n &&
      state_.comm_energy_wh.size() == n && state_.temp_c.size() == n &&
      state_.capacity_shards.size() == n && state_.alive.size() == n;
  if (!aligned) throw std::invalid_argument("FleetSimulator: misaligned state columns");
  for (std::size_t j = 0; j < n; ++j) {
    // Event times are sums of these three: a NaN would break the strict
    // order the round's sort needs, and an infinity would make the churn
    // span infinite (inf * 0 is NaN).
    if (!std::isfinite(state_.base_s[j]) || !std::isfinite(state_.per_sample_s[j]) ||
        !std::isfinite(state_.comm_s[j])) {
      throw std::invalid_argument(
          "FleetSimulator: non-finite base_s, per_sample_s or comm_s");
    }
  }
  if (config_.shard_size == 0) {
    throw std::invalid_argument("FleetSimulator: zero shard size");
  }
  if (config_.update_dim == 0) {
    throw std::invalid_argument("FleetSimulator: zero update dim");
  }
  if (config_.group_size == 0) {
    throw std::invalid_argument("FleetSimulator: zero group size");
  }
}

FleetRoundResult FleetSimulator::run_round(
    std::span<const std::size_t> shards_per_client, std::size_t round,
    obs::TraceWriter* trace, ClientDynamics* dynamics,
    obs::MetricsRegistry* metrics) {
  if (shards_per_client.size() != state_.size()) {
    throw std::invalid_argument("FleetSimulator::run_round: plan size mismatch");
  }
  const bool dyn = dynamics != nullptr && dynamics->enabled();
  common::ThreadPool* const pool =
      config_.parallelism == 1 ? nullptr : &common::global_pool();
  if (dyn) dynamics->ensure_size(state_.size());

  FleetRoundResult result;
  result.round = round;

  // Every event of the round is known before the first one is handled:
  // finish events and the dynamics events of in-flight clients come from
  // admission, churn from draws, and no handler schedules a new event. So
  // the round collects them in one vector, sorts it once by (time, kind,
  // client) and walks it.
  std::vector<Event> events;

  // Per-client progress of the round-start clients: admitted, then either
  // cancelled, finished, or finished as a contributor. Joins appended
  // mid-round get ids >= initial_n and never run this round.
  enum : std::uint8_t { kIdle = 0, kInFlight = 1, kContributed = 2 };
  const std::size_t initial_n = state_.size();
  std::vector<std::uint8_t> status(initial_n, kIdle);
  // Compute span of each in-flight attempt, taken at admission (dynamics
  // only: a mid-round net switch moves comm_s).
  std::vector<double> compute_s_of(dyn ? initial_n : 0, 0.0);
  std::vector<double> edge_scratch;

  // Only plan participants get events; idle clients are never touched.
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
    events.push_back({finish_s, kFinish, static_cast<std::uint32_t>(j)});
    status[j] = kInFlight;
    plan_span = std::max(plan_span, finish_s);
    if (dyn) {
      compute_s_of[j] = compute_s;
      const double off_s = dynamics->avail_off_within(j, finish_s);
      if (off_s < finish_s) {
        events.push_back({off_s, static_cast<std::uint8_t>(DynEvent::Kind::kAvailOff),
                          static_cast<std::uint32_t>(j)});
      }
      edge_scratch.clear();
      dynamics->charge_edges_within(j, finish_s, edge_scratch);
      for (double edge_s : edge_scratch) {
        events.push_back({edge_s, static_cast<std::uint8_t>(DynEvent::Kind::kChargeEdge),
                          static_cast<std::uint32_t>(j)});
      }
    }
  }

  if (dyn) {
    for (const DynEvent& ev :
         dynamics->churn_events(state_, round, plan_span, pool)) {
      events.push_back({ev.time_s, static_cast<std::uint8_t>(ev.kind), ev.client});
    }
  }
  sort_events(events);
  result.events_processed = events.size();

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
    status[j] = kIdle;
    ++result.dropped_offline;
  };

  // The walk: energy is summed in event order, which fixes its rounding.
  for (const Event& ev : events) {
    const std::uint32_t j = ev.client;

    if (ev.kind != kFinish) {
      switch (static_cast<DynEvent::Kind>(ev.kind)) {
        case DynEvent::Kind::kAvailOff:
          if (status[j] == kInFlight) cancel_inflight(j, ev.time_s);
          break;
        case DynEvent::Kind::kLeave:
          dynamics->mark_departed(j);
          ++result.leaves;
          if (j < initial_n && status[j] == kInFlight) cancel_inflight(j, ev.time_s);
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

    if (status[j] != kInFlight) continue;  // cancelled before it finished
    status[j] = kIdle;

    // The attempt burns energy whether or not the report makes it back. A
    // mid-round net-switch mutates comm_s, so with dynamics the compute span
    // comes from the snapshot taken at admission (the exchange energy uses
    // the current row: the switch carried the actual bytes). Without
    // dynamics it is finish - comm, which need not round back to the
    // admission-time span: that is the rounding the results were pinned with.
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
    status[j] = kContributed;
    ++result.completed;
    result.survivor_shards += shards_per_client[j];
    result.makespan_s = std::max(result.makespan_s, ev.time_s);
  }
  events = {};

  // Emit the member list in client-id order, so the tree partition is a
  // pure function of the survivor set.
  result.contributors.reserve(result.completed);
  for (std::size_t j = 0; j < initial_n; ++j) {
    if (status[j] == kContributed) {
      result.contributors.push_back(static_cast<std::uint32_t>(j));
    }
  }

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
    result.revivals = dynamics->finish_round(state_, result.makespan_s, pool);
    if (metrics != nullptr) {
      metrics->add("fleet.joins", result.joins);
      metrics->add("fleet.leaves", result.leaves);
      metrics->add("fleet.charge_edges", result.charge_edges);
      metrics->add("fleet.net_switches", result.net_switches);
    }
  }

  if (trace != nullptr && trace->enabled()) {
    common::JsonObject ev;
    ev.field("ev", "fleet_round")
        .field("round", round)
        .field("participants", result.participants)
        .field("completed", result.completed)
        .field("dropped_crash", result.dropped_crash)
        .field("dropped_deadline", result.dropped_deadline)
        .field("dropped_stale", result.dropped_stale)
        .field("battery_deaths", result.battery_deaths)
        .field("events", result.events_processed)
        .field("survivor_shards", result.survivor_shards)
        .field("makespan_s", result.makespan_s)
        .field("energy_wh", result.energy_wh);
    if (dyn) {
      // Dynamics fields only appear when the layer is enabled, keeping the
      // disabled trace byte-identical to pre-dynamics builds.
      ev.field("dropped_offline", result.dropped_offline)
          .field("joins", result.joins)
          .field("leaves", result.leaves)
          .field("charge_edges", result.charge_edges)
          .field("net_switches", result.net_switches)
          .field("revivals", result.revivals)
          .field("clock_s", dynamics->now_s());
    }
    trace->write(ev);
  }
  return result;
}

}  // namespace fedsched::fleet
