#pragma once
// Per-client health tracking — the observation half of the self-healing loop.
//
// The schedulers plan from *offline* profiles, but the paper's own motivation
// (thermal throttling, battery death) means device costs drift during a run.
// HealthTracker folds what the runners actually observe — round times,
// crash/stall/retry history, battery drain — into a per-client state the
// online replanner (fl/health/replanner.hpp) can re-plan from:
//
//   * speed multiplier: an EWMA of measured/predicted round time. 1.0 means
//     the device runs on-profile; 1.4 means it has drifted 40% slow (heat,
//     persistent stalls) and its cost-matrix row should be stretched by 1.4.
//   * fault streaks: consecutive failed rounds send a client to *probation*
//     (zero shards for a bounded, exponentially backed-off number of rounds,
//     then retried); enough cumulative faults blacklist it permanently.
//   * battery projection: an EWMA of per-round state-of-charge drop projects
//     when the device will hit the death floor; clients projected to die
//     within the horizon stop receiving shards before they take a round down.
//
// Determinism: the tracker is fed from the runners' serial bookkeeping
// sections with client-indexed observation arrays, so its state — and every
// replan decision derived from it — is bit-identical at any `parallelism`
// width and serializable into checkpoints (fl/checkpoint).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fl/faults.hpp"

namespace fedsched::fl::health {

struct HealthConfig {
  /// EWMA weight of the newest measured/predicted ratio (0 < alpha <= 1).
  double ewma_alpha = 0.3;
  /// Relative drift from the multiplier baked into the current plan that
  /// triggers a replan: |ewma / planned_multiplier - 1| > drift_threshold.
  double drift_threshold = 0.25;
  /// Consecutive faulted rounds before a client is benched.
  std::size_t probation_streak = 2;
  /// Base bench length in rounds; doubles per successive probation
  /// (bounded retry-with-backoff), capped at probation_max_rounds.
  std::size_t probation_rounds = 2;
  std::size_t probation_max_rounds = 8;
  /// Cumulative failed rounds after which a client is dropped for good.
  std::size_t blacklist_faults = 6;
  /// Rounds of projected battery life a schedulable client must have left
  /// (soc - horizon * drain_ewma must stay above the floor).
  double battery_horizon_rounds = 2.0;
  /// State-of-charge floor used for the projection (mirrors the fault
  /// model's battery_floor_soc; kept separate so health can be conservative).
  double battery_floor_soc = 0.05;
  /// Minimum rounds between replans (hysteresis against thrashing).
  std::size_t replan_cooldown_rounds = 1;

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const;
};

enum class ClientStatus : std::uint8_t {
  kHealthy = 0,
  kProbation,    // benched for a bounded number of rounds, then retried
  kBlacklisted,  // too many cumulative faults; permanently excluded
  kDead,         // battery hit the floor; permanently excluded
};

[[nodiscard]] const char* status_name(ClientStatus status) noexcept;

struct ClientHealth {
  ClientStatus status = ClientStatus::kHealthy;
  /// EWMA of measured/predicted round time; 1.0 until the first observation.
  double speed_ewma = 1.0;
  bool has_observation = false;
  /// Consecutive faulted rounds (reset by a completed round).
  std::size_t fault_streak = 0;
  std::size_t total_faults = 0;
  std::size_t total_retries = 0;
  /// Times this client has been benched, and rounds left on the bench.
  std::size_t probations = 0;
  std::size_t probation_remaining = 0;
  /// Cumulative shards the replanner moved away from this client.
  std::size_t reassigned_shards = 0;
  /// Last observed state of charge (-1 = no battery tracking) and the EWMA
  /// of per-round drops.
  double soc = -1.0;
  double soc_drop_ewma = 0.0;
};

class HealthTracker {
 public:
  HealthTracker(HealthConfig config, std::size_t n_clients);

  [[nodiscard]] const HealthConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t clients() const noexcept { return clients_.size(); }
  [[nodiscard]] const ClientHealth& client(std::size_t u) const {
    return clients_.at(u);
  }
  [[nodiscard]] const std::vector<ClientHealth>& all() const noexcept {
    return clients_;
  }

  /// One client's verdict for a finished round.
  struct Observation {
    bool participated = false;  // held shards this round
    double predicted_s = 0.0;   // profile prediction; <= 0 skips drift update
    double measured_s = 0.0;    // simulated busy time
    FaultKind fault = FaultKind::kNone;
    bool completed = false;
    std::size_t retries = 0;
    double soc = -1.0;  // state of charge after the round; < 0 = untracked
  };

  /// Fold a full fleet round: updates EWMAs, streaks, battery projections,
  /// ticks probation clocks (benched clients count the round even though
  /// they held no shards), and applies status transitions. Call from the
  /// runner's serial section with a client-indexed vector.
  void observe_round(const std::vector<Observation>& observations);

  /// May the client receive shards in the next plan? False for probation /
  /// blacklisted / dead clients and for batteries projected to die within
  /// the horizon.
  [[nodiscard]] bool eligible(std::size_t u) const;

  /// Cost stretch for the scheduler: the drift EWMA, floored at 0.05 so a
  /// corrupted observation can never produce a free client.
  [[nodiscard]] double cost_multiplier(std::size_t u) const;

  /// True when the fleet has drifted from the current plan enough to replan:
  /// a status changed since the last plan, or some active client's multiplier
  /// moved more than drift_threshold from the one the plan was built with.
  /// Always false inside the cooldown window.
  [[nodiscard]] bool replan_due(std::size_t round) const;

  /// Record that a plan was (re)built at `round`: resets the drift baseline
  /// to the current multipliers and clears the status-change flag.
  void note_replan(std::size_t round);

  /// Shards the replanner moved away from client u (recovery accounting).
  void add_reassigned(std::size_t u, std::size_t shards);

  [[nodiscard]] std::size_t eligible_count() const;

  // --- checkpoint hooks (fl/checkpoint serializes these verbatim) ---------
  struct Snapshot {
    std::vector<ClientHealth> clients;
    std::vector<double> planned_multiplier;
    std::size_t last_plan_round = 0;
    bool has_plan = false;
    bool status_dirty = false;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

 private:
  void apply_fault(std::size_t u);
  [[nodiscard]] bool battery_risky(const ClientHealth& c) const;

  HealthConfig config_;
  std::vector<ClientHealth> clients_;
  /// Multiplier each client carried into the current plan (drift baseline).
  std::vector<double> planned_multiplier_;
  std::size_t last_plan_round_ = 0;
  bool has_plan_ = false;
  bool status_dirty_ = false;
};

}  // namespace fedsched::fl::health
