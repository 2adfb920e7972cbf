#pragma once
// Deterministic fault injection for the FL runners.
//
// Battery-powered clients fail: apps crash mid-round, batteries die, radios
// stall, uploads drop and need retries. FaultInjector turns those hazards
// into *deterministic* per-(round, client) decisions: every draw comes from
// an Rng forked by a pure function of (round, client), never from a shared
// stream, so the schedule of failures is identical at every `parallelism`
// width and bit-for-bit reproducible across runs — the determinism contract
// (docs/API.md) extends to faulty fleets.
//
// Two invariants the runners rely on:
//   1. With FaultConfig::enabled == false, evaluate() returns the runner's
//      own fault-free elapsed time (RoundTimings::baseline_s) untouched, so
//      a disabled injector is bit-identical to no injector at all.
//   2. With enabled == true but no hazard triggered for a (round, client),
//      the baseline is returned as well — enabling faults with zero
//      probabilities changes nothing, bit for bit.
//
// Simulated-time accounting: a transient upload failure charges the failed
// upload plus an exponential backoff wait to the client's clock; a crash
// burns download + compute but never uploads; a stalled link multiplies
// every transfer by `stall_factor`.

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "device/model_desc.hpp"
#include "device/network.hpp"
#include "device/spec.hpp"

namespace fedsched::fl {

struct FaultConfig {
  /// Master switch. Off (default) = every runner is bit-identical to a
  /// build without the fault subsystem.
  bool enabled = false;

  /// P[client crashes before upload] per (round, client).
  double dropout_prob = 0.0;
  /// P[link stalls for the whole round] per (round, client).
  double stall_prob = 0.0;
  /// Multiplicative comm slowdown while stalled (>= 1).
  double stall_factor = 4.0;
  /// P[one upload attempt fails transiently]; retried with backoff.
  double transient_prob = 0.0;
  /// Re-upload attempts after the first failed one.
  std::size_t max_retries = 2;
  /// Wait before retry i (1-based) is backoff_base_s * 2^(i-1) simulated
  /// seconds, charged to the client's round time.
  double backoff_base_s = 2.0;

  /// Track a per-client battery; the device dies (permanently drops out)
  /// once state of charge falls to battery_floor_soc.
  bool battery_enabled = false;
  double battery_floor_soc = 0.05;
  /// Initial state of charge drawn uniformly per client from this range.
  double initial_soc_min = 1.0;
  double initial_soc_max = 1.0;

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const;
};

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCrash,             // dropout before upload
  kBatteryDead,       // battery hit the floor (permanent)
  kRetriesExhausted,  // transient failures ate all retries
  kDeadlineMiss,      // finished, but after the round deadline
  kFaultKindCount,    // sentinel — keep last; sizes per-kind arrays
};

/// Number of real FaultKind values (the sentinel excluded). Size any
/// per-kind array from this so growing the enum cannot index out of bounds.
inline constexpr std::size_t kFaultKindCount =
    static_cast<std::size_t>(FaultKind::kFaultKindCount);

[[nodiscard]] const char* fault_name(FaultKind kind) noexcept;

/// Fault-free timing components of one client round. `baseline_s` is the
/// elapsed time exactly as the runner composes it (download + compute +
/// upload in the runner's own association) so the no-fault path reproduces
/// it bit for bit; the components let the injector recompose under stalls
/// and retries.
struct RoundTimings {
  double baseline_s = 0.0;
  double download_s = 0.0;  // all downloads of the round
  double compute_s = 0.0;
  double upload_s = 0.0;    // one upload attempt
};

struct FaultOutcome {
  FaultKind kind = FaultKind::kNone;
  bool completed = true;
  /// Busy simulated seconds, including failed attempts and backoff waits.
  double elapsed_s = 0.0;
  std::size_t retries = 0;
  /// Comm multiplier applied this round (stall_factor when stalled, else 1).
  double comm_scale = 1.0;
};

class FaultInjector {
 public:
  /// Seeded from the run seed; validates the config.
  FaultInjector(FaultConfig config, std::uint64_t run_seed);

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }
  [[nodiscard]] bool battery_enabled() const noexcept {
    return config_.enabled && config_.battery_enabled;
  }

  /// Initial state of charge for a client; pure function of (seed, client).
  [[nodiscard]] double initial_soc(std::size_t client) const;

  /// Fold the hazards into a fault-free round timing and apply the round
  /// deadline. Pure function of its arguments — safe from any lane.
  [[nodiscard]] FaultOutcome evaluate(std::size_t round, std::size_t client,
                                      const RoundTimings& timings,
                                      double deadline_s) const;

 private:
  FaultConfig config_;
  common::Rng fault_base_;  // never advanced; forked per (round, client)
  common::Rng soc_base_;    // never advanced; forked per client
};

/// Energy (Wh) a client's battery is charged for one round: full-power draw
/// for the computed duration plus radio energy scaled by the stall factor.
/// Deliberately simpler than device::training_energy_wh (which integrates a
/// cold-start thermal trajectory) so it can price the *actual* simulated
/// duration of a round mid-run.
[[nodiscard]] double round_energy_wh(const device::DeviceSpec& spec,
                                     const device::ModelDesc& model,
                                     double compute_s, device::NetworkType network,
                                     double comm_scale);

/// +infinity: the default "no deadline" sentinel for runner configs.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

}  // namespace fedsched::fl
