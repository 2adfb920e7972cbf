#pragma once
// Fed-MinEnergy — minimal-energy scheduling with a bounded-makespan contract
// (Pilla, arXiv:2209.06210), the scheduler that extends the paper's battery
// focus: instead of balancing time, spend as little fleet energy as possible
// while staying within a slack factor of the optimal makespan.
//
// The algorithm is a marginal-energy greedy over LinearCosts' affine energy
// model. Every step assigns the next shard to the client whose *marginal*
// energy Δ_j = energy(j, k+1) − energy(j, k) is smallest (lowest id on
// ties): an idle client bids its opening energy base_wh + per_shard_wh, a
// busy one only its per-shard slope, so load concentrates on the most
// efficient devices until their caps close. Three caps bound each client:
//
//  - capacity (the usual C_j),
//  - battery: energy(j, k) must fit the client's remaining budget above the
//    state-of-charge floor (never schedule a client into battery death),
//  - time: cost(j, k) <= makespan_cap_s. The cap defaults to
//    makespan_slack × the makespan of an internal bucketed Fed-LBAP probe,
//    so the result is "energy-minimal within slack× of the balanced plan".
//
// If the time caps cannot host every shard (heavily masked fleets), the cap
// is dropped for the remainder — degrade, don't abort — and the spill is
// reported as relaxed_shards. Battery and capacity caps are never relaxed;
// infeasibility against those throws, mirroring the other schedulers.
//
// The greedy fills whole clients in order of their opening bids (a client
// that wins keeps winning until its cap closes), so each pass is one
// weighted cut (sched/weighted_cut.hpp). Complexity: the probe's
// fed_lbap_bucketed plus O(n) expected per pass.

#include <cstddef>

#include "obs/trace.hpp"
#include "sched/linear_costs.hpp"
#include "sched/types.hpp"

namespace fedsched::sched {

struct MinEnergyConfig {
  /// Allowed makespan stretch over the internal Fed-LBAP probe's makespan.
  double makespan_slack = 1.4;
  /// Buckets for the internal probe (only used when makespan_cap_s == 0).
  std::size_t probe_buckets = 256;
  /// Explicit makespan cap in seconds; 0 derives the cap from the probe.
  /// Infinity disables the time cap entirely (pure energy greedy).
  double makespan_cap_s = 0.0;
};

struct MinEnergyResult {
  Assignment assignment;
  double makespan_seconds = 0.0;
  /// Sum of busy users' energy(j, k_j) — the objective.
  double total_energy_wh = 0.0;
  /// The effective time cap the greedy ran under.
  double time_cap_s = 0.0;
  /// Shards placed only after the time cap was dropped (0 when feasible).
  std::size_t relaxed_shards = 0;
  std::size_t steps = 0;
};

/// Requires costs.has_energy(). Throws if the battery-and-capacity-feasible
/// loads cannot host total_shards. A non-null `trace` receives one
/// `sched_minenergy` decision event (cap, relaxed count, energy, makespan).
MinEnergyResult fed_minenergy(const LinearCosts& costs, std::size_t total_shards,
                              const MinEnergyConfig& config = {},
                              obs::TraceWriter* trace = nullptr);

}  // namespace fedsched::sched
