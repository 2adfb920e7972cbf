#pragma once
// Speculative shard replication — hedging against stragglers and crashes.
//
// The self-healing loop (fl/health) reacts *after* drift is observed: a
// client must fault or drift before the replanner moves its shards. This
// layer acts *before* the loss lands: each round the ReplicationPlanner
// scores every client's risk of straggling or dying from live HealthTracker
// state (fault streaks, cumulative faults, speed-drift EWMA, battery
// projection — the SEAS idea of computing per-workunit replica counts from
// device reliability) and assigns the shares of at-risk clients redundantly
// to healthy fast hosts, capped by a per-round replica budget.
//
// First-finisher semantics: the server needs exactly one copy of each share.
// A replicated share closes at the *earliest* arrived copy — primary or
// replica — so a straggling primary no longer gates the round, and a crashed
// primary whose replica survives is rescued instead of dropped. Ties are
// broken by client id, so resolution is a pure function of the simulated
// timeline and bit-identical at any `parallelism` width.
//
// Cost accounting: a replica host trains the owner's share *after* its own
// (one extra compute block on its device clock, plus one extra upload), its
// battery pays for the extra work, and its own fault verdict applies to the
// replica too — a replica's host can itself crash, stall, or die. Losing
// replicas are pure waste (the fl.replica_waste metric); the trade is extra
// fleet compute for tail latency, which is exactly the production knob.
//
// Aggregation stays survivor-weighted and counts every share once, no matter
// how many copies completed: primary and replica train the same share from
// the same pulled parameters with the same (round, owner)-keyed RNG and the
// owner's optimizer state, so whichever copy wins contributes bit-identical
// parameters. A disabled policy (kOff) leaves runs — results, trace bytes,
// metrics — bit-identical to a build without the replication layer.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fl/faults.hpp"
#include "fl/health/health.hpp"
#include "sched/types.hpp"

namespace fedsched::fl::replication {

enum class ReplicationPolicy : std::uint8_t {
  kOff = 0,  // no replicas; bit-identical to pre-replication builds
  kRisk,     // SEAS-style: replica counts scale with per-client risk scores
};

struct ReplicationConfig {
  ReplicationPolicy policy = ReplicationPolicy::kOff;
  /// Max replicas assigned per round across the whole fleet.
  std::size_t budget_per_round = 4;
  /// Shares of clients at/above this risk score are hedged.
  double risk_threshold = 0.25;
  /// Max copies of one share beyond the primary.
  std::size_t max_replicas_per_share = 2;
  /// Baseline offline profiles used to rank hosts by predicted replica
  /// finish time (the same machinery the replanner stretches). Optional:
  /// when empty, hosts rank by observed drift multiplier alone.
  std::vector<sched::UserProfile> users;

  [[nodiscard]] bool enabled() const noexcept {
    return policy != ReplicationPolicy::kOff;
  }
  /// Throws std::invalid_argument on an inconsistent config (only when
  /// enabled(); an off config is always valid).
  void validate(std::size_t n_clients) const;
};

/// One speculative copy: `host` trains `owner`'s share this round.
struct ReplicaAssignment {
  std::size_t owner = 0;
  std::size_t host = 0;
  /// Planner's predicted arrival of the copy (0 when no profiles given).
  double predicted_finish_s = 0.0;
};

/// The round's hedge plan. Owners appear in descending risk order (ties by
/// id); a host carries at most one replica per round.
struct RoundPlan {
  std::vector<ReplicaAssignment> assignments;
  /// Per-client risk score the plan was built from.
  std::vector<double> risk;
  /// Clients at/above the risk threshold (before budget/host limits).
  std::size_t flagged = 0;

  [[nodiscard]] bool empty() const noexcept { return assignments.empty(); }
};

class ReplicationPlanner {
 public:
  /// Throws std::invalid_argument when the enabled config is inconsistent
  /// with `n_clients`.
  ReplicationPlanner(ReplicationConfig config, std::size_t n_clients);

  [[nodiscard]] const ReplicationConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled(); }

  /// SEAS-style risk of losing client u's share this round, in [0, 1]:
  /// fault streaks (about to be benched), cumulative faults (creeping toward
  /// the blacklist), upward speed drift (straggling), and a projected
  /// battery death inside the health horizon. Pure function of the tracker.
  [[nodiscard]] double risk_score(const health::HealthTracker& tracker,
                                  std::size_t u) const;

  /// Build the round's plan. `share_sizes[u]` is the sample count client u
  /// holds (owners and hosts both need a non-empty share); `local_epochs`
  /// scales the predicted replica compute. Owners are taken in descending
  /// (risk, id asc) order while the budget lasts; hosts are eligible,
  /// unflagged clients in ascending predicted-cost order, one replica each.
  [[nodiscard]] RoundPlan plan(const health::HealthTracker& tracker,
                               const std::vector<std::size_t>& share_sizes,
                               std::size_t local_epochs) const;

 private:
  ReplicationConfig config_;
  std::size_t n_clients_;
};

/// Simulated outcome of one replica, produced by the runner (which owns the
/// device clocks, batteries and the injector).
struct ReplicaOutcome {
  std::size_t owner = 0;
  std::size_t host = 0;
  bool completed = false;
  /// Simulated arrival of the copy (host's own elapsed + replica compute +
  /// replica upload). Meaningful even when lost to a deadline.
  double finish_s = 0.0;
  /// kNone when completed; otherwise why the copy was lost (the host's own
  /// fault, a mid-replica battery death, or a deadline miss).
  FaultKind kind = FaultKind::kNone;
};

/// First-finisher verdict for one replicated share.
struct ShareResolution {
  std::size_t owner = 0;
  /// At least one copy (primary or replica) completed.
  bool arrived = false;
  /// The primary failed but a replica saved the share.
  bool rescued = false;
  /// Client id of the earliest arrived copy (ties broken by id; owner wins
  /// a tie with any replica only through its lower id, never specially).
  std::size_t winner = 0;
  /// Arrival of the winning copy — what gates the round for this share.
  double finish_s = 0.0;
  std::size_t replicas = 0;
  std::size_t replicas_completed = 0;
};

/// Deterministic first-finisher resolution: min over arrived copies by
/// (finish_s, client id). Pure function of its arguments.
[[nodiscard]] ShareResolution resolve_first_finisher(
    std::size_t owner, bool primary_completed, double primary_elapsed_s,
    std::span<const ReplicaOutcome> replicas);

}  // namespace fedsched::fl::replication
