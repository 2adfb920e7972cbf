#pragma once
// Experiment glue shared by examples and bench harnesses: turning a testbed
// (list of phone models) into scheduler-ready user profiles, and evaluating
// an assignment's epoch time on fresh device simulators (ground truth, as
// opposed to the profile's estimate).

#include <cstdint>
#include <string>
#include <vector>

#include "device/device.hpp"
#include "fl/faults.hpp"
#include "obs/trace.hpp"
#include "sched/types.hpp"

namespace fedsched::core {

struct ProfileOptions {
  /// Anchor data sizes measured per device; defaults scale with the total.
  std::vector<std::size_t> anchor_sizes;
  double measurement_noise = 0.0;
  std::uint64_t seed = 2020;
};

/// "Nexus6(a)", "Nexus6(b)", ... — the paper's user naming in Table IV.
[[nodiscard]] std::vector<std::string> testbed_names(
    const std::vector<device::PhoneModel>& phones);

/// Build per-user profiles for the testbed: interpolated time profiles
/// measured on fresh simulated devices plus the link's comm constant.
[[nodiscard]] std::vector<sched::UserProfile> build_profiles(
    const std::vector<device::PhoneModel>& phones, const device::ModelDesc& model,
    device::NetworkType network, std::size_t total_samples,
    const ProfileOptions& options = {});

struct EpochSimulation {
  std::vector<double> client_seconds;  // comm + compute per user
  double makespan = 0.0;
  double mean = 0.0;
};

/// Run one epoch on fresh devices with the given per-user sample counts:
/// simulate_epoch_faulty's fault-free, deadline-free epoch.
[[nodiscard]] EpochSimulation simulate_epoch(
    const std::vector<device::PhoneModel>& phones, const device::ModelDesc& model,
    device::NetworkType network, const std::vector<std::size_t>& sample_counts);

struct FaultyEpochSimulation {
  /// client_seconds charge each client's full busy time, including retry
  /// backoff and time burned on failed rounds.
  EpochSimulation epoch;
  std::size_t completed = 0;
  std::size_t dropped = 0;
  std::size_t retries = 0;
  std::vector<fl::FaultKind> client_faults;
};

/// simulate_epoch under a fault model: same device ground truth, but each
/// client's round passes through a fl::FaultInjector seeded with `seed` (as
/// round 0), and `deadline_s` caps the makespan when anyone drops. A NaN or
/// non-positive `deadline_s` throws std::invalid_argument; infinity means no
/// deadline. A non-null `trace` receives one `epoch_client` event per
/// participating client (client order) and a closing `epoch_end` event.
[[nodiscard]] FaultyEpochSimulation simulate_epoch_faulty(
    const std::vector<device::PhoneModel>& phones, const device::ModelDesc& model,
    device::NetworkType network, const std::vector<std::size_t>& sample_counts,
    const fl::FaultConfig& faults, double deadline_s = fl::kNoDeadline,
    std::uint64_t seed = 1, obs::TraceWriter* trace = nullptr);

/// Straggler gap: (max - mean) / mean over the participating clients.
[[nodiscard]] double straggler_gap(const std::vector<double>& client_seconds);

/// Derive each user's shard capacity (Eq. 9's C_j) from its battery: the
/// schedulable energy at the given state of charge divided by the per-shard
/// training + per-round comm energy. Mutates capacity_shards in place.
void apply_battery_capacity(std::vector<sched::UserProfile>& users,
                            const device::ModelDesc& model,
                            device::NetworkType network, std::size_t shard_size,
                            double state_of_charge = 1.0);

}  // namespace fedsched::core
