#pragma once
// Fleet-scale client population: seeded generation of 1k..1M simulated
// battery-powered clients as structure-of-arrays state.
//
// Per-client objects (Device + Battery + UserProfile) carry strings, vtables
// and thermal integrators — fine for the paper's 10-device testbed,
// prohibitive at a million clients. The fleet tier instead samples a
// device-model / battery / network *mixture* into parallel vectors (one
// entry per client, one vector per attribute), mirroring how BOINC's MGE
// scheduler drives volunteer fleets from compact per-device status records.
//
// Determinism contract: generation derives every client's attributes from
// `rng.fork(client_index)` — a pure function of (seed, index) — so the
// generated state is bitwise identical for a given (mix, model, seed, n)
// regardless of generation order, and clients keep their identity when the
// fleet grows (client j of an n-client fleet equals client j of any larger
// fleet with the same seed). tests/fleet/test_fleet_generator.cpp enforces
// mixture proportions, vector alignment and seed determinism.
//
// The expensive per-phone quantities (linear time model, sustained training
// power, comm energy) are derived once per PhoneModel from the calibrated
// device simulator, then specialized per client with a lognormal speed
// jitter — only cheap arithmetic happens per client.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "device/model_desc.hpp"
#include "device/spec.hpp"
#include "obs/trace.hpp"
#include "sched/linear_costs.hpp"

namespace fedsched::fleet {

inline constexpr std::size_t kPhoneModelCount = std::size(device::kAllPhoneModels);

/// Population mixture the generator samples from.
struct FleetMix {
  /// Relative weight per device model, aligned with device::kAllPhoneModels.
  std::array<double, kPhoneModelCount> device_weights{1.0, 1.0, 1.0, 1.0};
  /// Fraction of clients on LTE (the rest on WiFi).
  double lte_fraction = 0.25;
  /// Initial state of charge drawn uniformly from [soc_min, soc_max].
  double soc_min = 0.5;
  double soc_max = 1.0;
  /// Lognormal sigma of the per-client speed factor (0 = identical devices).
  double speed_sigma = 0.15;
  /// Per-client shard capacity handed to the schedulers (Eq. 9's C_j).
  std::uint32_t capacity_shards = 64;
};

/// Parse "nexus6:0.4,mate10:0.4,pixel2:0.2,lte:0.5" — device names weight the
/// model mixture (unnamed models get weight 0; all-zero weights throw), the
/// optional `lte:` entry sets the LTE fraction. Throws on unknown names or
/// malformed entries.
[[nodiscard]] FleetMix parse_fleet_mix(const std::string& spec);

/// Structure-of-arrays client state: vectors are index-aligned, one entry per
/// client. `alive` is the health flag the simulator clears on battery death.
struct FleetState {
  std::vector<std::uint8_t> device_model;    // index into kAllPhoneModels
  std::vector<std::uint8_t> network;         // 0 = WiFi, 1 = LTE
  std::vector<double> speed_factor;          // lognormal jitter around 1
  std::vector<double> base_s;                // per-round fixed compute seconds
  std::vector<double> per_sample_s;          // marginal compute seconds/sample
  std::vector<double> comm_s;                // per-round model exchange seconds
  std::vector<double> battery_soc;           // state of charge in [0, 1]
  std::vector<double> battery_capacity_wh;   // pack size
  std::vector<double> train_power_w;         // sustained draw while training
  std::vector<double> comm_energy_wh;        // per-round exchange energy
  std::vector<double> temp_c;                // initial skin temperature
  std::vector<std::uint32_t> capacity_shards;
  std::vector<std::uint8_t> alive;           // 1 = schedulable

  [[nodiscard]] std::size_t size() const noexcept { return device_model.size(); }
};

class FleetGenerator {
 public:
  /// Anchors per-phone linear time models and energy rates against the
  /// calibrated device simulator for `model` (two-point fit over a training
  /// trajectory, thermal drift folded into the slope).
  FleetGenerator(FleetMix mix, device::ModelDesc model, std::uint64_t seed);

  [[nodiscard]] const FleetMix& mix() const noexcept { return mix_; }
  [[nodiscard]] const device::ModelDesc& model() const noexcept { return model_; }

  /// Generate n clients. Emits a `fleet_generate` trace event when given an
  /// enabled writer (population counts only — all deterministic).
  [[nodiscard]] FleetState generate(std::size_t n,
                                    obs::TraceWriter* trace = nullptr) const;

  /// Grow an existing fleet to target_n clients. Client j's attributes are a
  /// pure function of (seed, j) — the prefix-stability contract — so clients
  /// appended later (e.g. churn joins) are bitwise identical to the ones a
  /// single generate(target_n) call would have produced. No-op when the
  /// fleet already has target_n clients.
  void extend(FleetState& state, std::size_t target_n) const;

  /// Per-network round-exchange tables the generator anchored (index by
  /// lte ? 1 : 0) — what a WiFi<->LTE transition swaps in.
  [[nodiscard]] double comm_seconds(bool lte) const noexcept {
    return comm_s_by_network_[lte ? 1 : 0];
  }
  [[nodiscard]] double comm_energy_wh(bool lte) const noexcept {
    return comm_energy_by_network_[lte ? 1 : 0];
  }

 private:
  struct PhoneBase {
    double intercept_s = 0.0;
    double per_sample_s = 0.0;
    double train_power_w = 0.0;
    double battery_capacity_wh = 0.0;
    double ambient_c = 25.0;
  };

  FleetMix mix_;
  device::ModelDesc model_;
  common::Rng root_;
  std::array<PhoneBase, kPhoneModelCount> base_{};
  std::array<double, 2> comm_s_by_network_{};        // [wifi, lte]
  std::array<double, 2> comm_energy_by_network_{};   // [wifi, lte]
};

/// Scheduler view of a fleet: cost(j, k) = (base_s + comm_s) +
/// (per_sample_s * shard_size) * k, capacity 0 for dead clients. The view
/// also carries the affine energy model (training power over the compute
/// span plus comm energy) and each client's battery budget above
/// `battery_floor_soc`, which the energy-aware schedulers consume. A
/// non-empty `schedulable` predicate zeroes the capacity of every client it
/// rejects as well (the dynamics layer's mask, fleet/dynamics.hpp).
[[nodiscard]] sched::LinearCosts linear_costs(
    const FleetState& state, std::size_t shard_size, double battery_floor_soc,
    const std::function<bool(std::size_t)>& schedulable = {});

}  // namespace fedsched::fleet
