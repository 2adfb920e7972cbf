#include "sched/minenergy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/json.hpp"
#include "sched/bucketed.hpp"
#include "sched/weighted_cut.hpp"

namespace fedsched::sched {

MinEnergyResult fed_minenergy(const LinearCosts& costs, std::size_t total_shards,
                              const MinEnergyConfig& config,
                              obs::TraceWriter* trace) {
  if (total_shards == 0) throw std::invalid_argument("fed_minenergy: zero shards");
  if (!costs.has_energy()) {
    throw std::invalid_argument("fed_minenergy: costs carry no energy model");
  }
  if (!(config.makespan_slack >= 1.0)) {
    throw std::invalid_argument("fed_minenergy: slack must be >= 1");
  }
  const std::size_t n = costs.users();

  // Battery + capacity feasibility is a hard precondition; the time cap below
  // is the only constraint the greedy may relax.
  std::vector<std::size_t> hard_cap(n);
  std::size_t hard_total = 0;
  for (std::size_t j = 0; j < n; ++j) {
    hard_cap[j] = costs.max_shards_within_battery(j);
    hard_total += hard_cap[j];
  }
  if (hard_total < total_shards) {
    throw std::invalid_argument(
        "fed_minenergy: battery budgets cannot host the dataset");
  }

  double cap_s = config.makespan_cap_s;
  if (cap_s == 0.0) {
    const BucketedLbapResult probe =
        fed_lbap_bucketed(costs, total_shards, config.probe_buckets);
    cap_s = config.makespan_slack * probe.makespan_seconds;
  }

  MinEnergyResult result;
  result.time_cap_s = cap_s;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n, 0);

  // Per-client cap under the current constraint set, and the greedy shared
  // by the capped pass and the relaxed pass. The greedy gives each shard to
  // the client with the smallest marginal energy, lowest id on ties. A
  // client that wins at bid b bids per_shard_energy_wh(j) next, and that is
  // <= b: an opening bid is energy(j, 1) = base + slope, base >= 0 and
  // rounding is monotone. So the winner keeps winning until its cap closes,
  // and the greedy fills whole clients in (opening bid, id) order: the
  // client at which the cumulative free capacity reaches `want` takes the
  // remainder, and one weighted cut finds it.
  std::vector<std::size_t> cap(n);
  const auto fill_caps = [&](bool timed) {
    for (std::size_t j = 0; j < n; ++j) {
      cap[j] = timed && std::isfinite(cap_s)
                   ? std::min(hard_cap[j], costs.max_shards_within(j, cap_s))
                   : hard_cap[j];
    }
  };
  const auto greedy = [&](std::size_t want) {
    std::vector<CutRecord> bids;
    bids.reserve(n);
    std::size_t spare = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (shards[j] >= cap[j]) continue;
      const double bid = shards[j] == 0 ? costs.energy(j, 1)
                                        : costs.per_shard_energy_wh(j);
      bids.push_back({bid, static_cast<std::uint32_t>(j),
                      static_cast<std::uint32_t>(cap[j] - shards[j])});
      spare += cap[j] - shards[j];
    }
    std::size_t filled = bids.size();
    if (want < spare) {
      const WeightedCut cut = weighted_cut(bids, want);
      filled = cut.index;
      shards[bids[cut.index].user] += want - cut.weight_before;
    }
    for (std::size_t i = 0; i < filled; ++i) shards[bids[i].user] += bids[i].weight;
    const std::size_t placed = std::min(want, spare);
    result.steps += placed;
    return placed;
  };

  fill_caps(true);
  std::size_t placed = greedy(total_shards);
  if (placed < total_shards) {
    // Time caps alone cannot host the dataset: drop them and spill the
    // remainder onto battery-feasible clients (degrade, don't abort).
    fill_caps(false);
    result.relaxed_shards = total_shards - placed;
    placed += greedy(total_shards - placed);
  }

  for (std::size_t j = 0; j < n; ++j) {
    if (shards[j] == 0) continue;
    result.total_energy_wh += costs.energy(j, shards[j]);
    result.makespan_seconds =
        std::max(result.makespan_seconds, costs.cost(j, shards[j]));
  }

  if (trace != nullptr && trace->enabled()) {
    common::JsonObject ev;
    ev.field("ev", "sched_minenergy")
        .field("users", n)
        .field("total_shards", total_shards)
        .field("time_cap_s", result.time_cap_s)
        .field("relaxed", result.relaxed_shards)
        .field("steps", result.steps)
        .field("energy_wh", result.total_energy_wh)
        .field("makespan_s", result.makespan_seconds);
    trace->write(ev);
  }
  return result;
}

}  // namespace fedsched::sched
