#pragma once
// Test-only oracles: the shard-at-a-time heap loops that fed_lbap_bucketed's
// surplus trim and fed_minenergy's greedy were first written with. The
// library now answers both with one weighted cut per pass
// (sched/weighted_cut.hpp); these keep the original pop-by-pop semantics so
// tests/sched/test_selection_planners.cpp can compare every result field
// bitwise. Only the trace events are left out.

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/bucketed.hpp"
#include "sched/minenergy.hpp"

namespace fedsched::sched::oracle {

/// fed_lbap_bucketed with the heap trim.
inline BucketedLbapResult heap_fed_lbap_bucketed(const LinearCosts& costs,
                                                 std::size_t total_shards,
                                                 std::size_t buckets) {
  if (total_shards == 0) throw std::invalid_argument("heap_fed_lbap_bucketed: zero shards");
  if (buckets == 0) throw std::invalid_argument("heap_fed_lbap_bucketed: zero buckets");
  if (costs.total_capacity() < total_shards) {
    throw std::invalid_argument(
        "heap_fed_lbap_bucketed: user capacities cannot host the dataset");
  }
  const std::size_t n = costs.users();
  const double lo = costs.min_single_shard_cost();
  const double hi = costs.max_full_cost(total_shards);
  const double width = (hi - lo) / static_cast<double>(buckets);

  const auto boundary = [&](std::size_t i) {
    return i == buckets ? hi : lo + width * static_cast<double>(i);
  };

  std::size_t lo_i = 0, hi_i = buckets;
  std::size_t iterations = 0;
  while (lo_i < hi_i) {
    const std::size_t mid = lo_i + (hi_i - lo_i) / 2;
    ++iterations;
    if (costs.total_budget(boundary(mid), total_shards) >= total_shards) {
      hi_i = mid;
    } else {
      lo_i = mid + 1;
    }
  }
  const double threshold = boundary(lo_i);

  BucketedLbapResult result;
  result.buckets = buckets;
  result.bucket_width = width;
  result.search_iterations = iterations;
  result.threshold_seconds = threshold;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n);
  std::size_t assigned = 0;
  for (std::size_t j = 0; j < n; ++j) {
    shards[j] = costs.max_shards_within(j, threshold);
    assigned += shards[j];
  }

  // Surplus trim: repeatedly drop the shard with the largest marginal cost
  // C_jk - C_j(k-1), lowest user id on ties, one heap pop per shard.
  if (assigned > total_shards) {
    struct TrimEntry {
      double marginal;
      std::size_t user;
      bool operator<(const TrimEntry& o) const {
        if (marginal != o.marginal) return marginal < o.marginal;
        return user > o.user;  // max-heap: lowest user id wins ties
      }
    };
    std::priority_queue<TrimEntry> heap;
    auto marginal_of = [&](std::size_t j) {
      return costs.cost(j, shards[j]) -
             (shards[j] > 1 ? costs.cost(j, shards[j] - 1) : 0.0);
    };
    for (std::size_t j = 0; j < n; ++j) {
      if (shards[j] > 0) heap.push({marginal_of(j), j});
    }
    while (assigned > total_shards) {
      const TrimEntry top = heap.top();
      heap.pop();
      const std::size_t j = top.user;
      --shards[j];
      --assigned;
      ++result.trimmed_shards;
      if (shards[j] > 0) heap.push({marginal_of(j), j});
    }
  }

  double actual = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (shards[j] > 0) actual = std::max(actual, costs.cost(j, shards[j]));
  }
  result.makespan_seconds = actual;
  return result;
}

/// fed_minenergy with the heap greedy; its makespan probe is the heap
/// fed_lbap_bucketed above.
inline MinEnergyResult heap_fed_minenergy(const LinearCosts& costs,
                                          std::size_t total_shards,
                                          const MinEnergyConfig& config = {}) {
  if (total_shards == 0) throw std::invalid_argument("heap_fed_minenergy: zero shards");
  if (!costs.has_energy()) {
    throw std::invalid_argument("heap_fed_minenergy: costs carry no energy model");
  }
  if (!(config.makespan_slack >= 1.0)) {
    throw std::invalid_argument("heap_fed_minenergy: slack must be >= 1");
  }
  const std::size_t n = costs.users();

  std::vector<std::size_t> hard_cap(n);
  std::size_t hard_total = 0;
  for (std::size_t j = 0; j < n; ++j) {
    hard_cap[j] = costs.max_shards_within_battery(j);
    hard_total += hard_cap[j];
  }
  if (hard_total < total_shards) {
    throw std::invalid_argument(
        "heap_fed_minenergy: battery budgets cannot host the dataset");
  }

  double cap_s = config.makespan_cap_s;
  if (cap_s == 0.0) {
    const BucketedLbapResult probe =
        heap_fed_lbap_bucketed(costs, total_shards, config.probe_buckets);
    cap_s = config.makespan_slack * probe.makespan_seconds;
  }

  MinEnergyResult result;
  result.time_cap_s = cap_s;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n, 0);

  struct Bid {
    double marginal_wh;
    std::uint32_t user;
    bool operator>(const Bid& o) const {
      if (marginal_wh != o.marginal_wh) return marginal_wh > o.marginal_wh;
      return user > o.user;  // min-heap: lowest client id wins ties
    }
  };
  using BidHeap = std::priority_queue<Bid, std::vector<Bid>, std::greater<Bid>>;

  std::vector<std::size_t> cap(n);
  const auto fill_caps = [&](bool timed) {
    for (std::size_t j = 0; j < n; ++j) {
      cap[j] = timed && std::isfinite(cap_s)
                   ? std::min(hard_cap[j], costs.max_shards_within(j, cap_s))
                   : hard_cap[j];
    }
  };
  const auto greedy = [&](std::size_t want) {
    BidHeap heap;
    for (std::size_t j = 0; j < n; ++j) {
      if (shards[j] >= cap[j]) continue;
      const double marginal = shards[j] == 0
                                  ? costs.energy(j, 1)
                                  : costs.per_shard_energy_wh(j);
      heap.push({marginal, static_cast<std::uint32_t>(j)});
    }
    std::size_t placed = 0;
    while (placed < want && !heap.empty()) {
      const Bid top = heap.top();
      heap.pop();
      const std::size_t j = top.user;
      ++shards[j];
      ++placed;
      ++result.steps;
      if (shards[j] < cap[j]) {
        heap.push({costs.per_shard_energy_wh(j), static_cast<std::uint32_t>(j)});
      }
    }
    return placed;
  };

  fill_caps(true);
  std::size_t placed = greedy(total_shards);
  if (placed < total_shards) {
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
  return result;
}

}  // namespace fedsched::sched::oracle
