#pragma once
// Closed-form cost view for fleet-scale scheduling: every client's epoch cost
// is affine in its shard count, cost(j, k) = base_s[j] + per_shard_s[j] * k
// for k >= 1 (cost(j, 0) = 0). Instead of materializing the n x s matrix of
// CostMatrix — O(n*s) doubles, prohibitive at n = 1M — the view stores three
// structure-of-arrays vectors and answers max_shards_within in O(1), which is
// what lets the bucketed Fed-LBAP binary search run in O(n log B).
//
// Rows are non-decreasing in k (Property 1) because per_shard_s is validated
// non-negative at construction; both coefficients must also be finite.
//
// An optional *energy model* rides along on the same affine form:
// energy(j, k) = base_wh[j] + per_shard_wh[j] * k for k >= 1 (0 when idle),
// with a per-client battery budget in Wh. The energy-aware schedulers
// (sched/minenergy.hpp) require it; the time-only algorithms ignore it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedsched::sched {

class LinearCosts {
 public:
  /// Parallel vectors, one entry per client. capacity_shards[j] == 0 excludes
  /// client j from scheduling entirely.
  LinearCosts(std::vector<double> base_s, std::vector<double> per_shard_s,
              std::vector<std::uint32_t> capacity_shards, std::size_t shard_size);

  [[nodiscard]] std::size_t users() const noexcept { return base_s_.size(); }
  [[nodiscard]] std::size_t shard_size() const noexcept { return shard_size_; }

  [[nodiscard]] double base_seconds(std::size_t user) const { return base_s_[user]; }
  [[nodiscard]] double per_shard_seconds(std::size_t user) const {
    return per_shard_s_[user];
  }
  [[nodiscard]] std::size_t capacity(std::size_t user) const {
    return capacity_[user];
  }

  /// Seconds for user j to train k shards; cost(j, 0) = 0.
  [[nodiscard]] double cost(std::size_t user, std::size_t shards) const noexcept {
    if (shards == 0) return 0.0;
    return base_s_[user] + per_shard_s_[user] * static_cast<double>(shards);
  }

  /// Largest k <= capacity with cost(j, k) <= threshold — the per-user budget
  /// A_j(c) of Algorithm 1, in O(1) via the affine inverse. The closed-form
  /// division is only a first guess; the result is nudged so the exact
  /// predicate max{k : cost(j,k) <= threshold} holds under floating point.
  [[nodiscard]] std::size_t max_shards_within(std::size_t user,
                                              double threshold) const noexcept;

  /// Sum of per-user budgets at the threshold; early-exits at target.
  [[nodiscard]] std::size_t total_budget(double threshold, std::size_t target) const;

  /// Smallest single-shard cost over clients with capacity >= 1.
  [[nodiscard]] double min_single_shard_cost() const noexcept { return lo_cost_; }
  /// Largest cost(j, min(capacity_j, shard_cap)) over clients with capacity.
  [[nodiscard]] double max_full_cost(std::size_t shard_cap) const noexcept;
  /// Total schedulable capacity in shards.
  [[nodiscard]] std::size_t total_capacity() const noexcept { return total_capacity_; }

  /// Attach the affine energy model: energy(j, k) = base_wh[j] +
  /// per_shard_wh[j] * k for k >= 1, plus the per-client battery budget in Wh
  /// (how much the client may burn before hitting its state-of-charge floor).
  /// Vectors must align with the cost vectors; coefficients must be finite
  /// and non-negative (budgets may be 0 for clients that must stay idle).
  void set_energy(std::vector<double> base_wh, std::vector<double> per_shard_wh,
                  std::vector<double> budget_wh);
  [[nodiscard]] bool has_energy() const noexcept { return !base_wh_.empty(); }

  /// Wh for user j to train k shards; energy(j, 0) = 0. Requires has_energy().
  [[nodiscard]] double energy(std::size_t user, std::size_t shards) const noexcept {
    if (shards == 0) return 0.0;
    return base_wh_[user] + per_shard_wh_[user] * static_cast<double>(shards);
  }
  [[nodiscard]] double base_energy_wh(std::size_t user) const {
    return base_wh_[user];
  }
  [[nodiscard]] double per_shard_energy_wh(std::size_t user) const {
    return per_shard_wh_[user];
  }
  [[nodiscard]] double battery_budget_wh(std::size_t user) const {
    return budget_wh_[user];
  }

  /// Largest k <= capacity with energy(j, k) <= the client's battery budget —
  /// the battery-feasible load. Requires has_energy().
  [[nodiscard]] std::size_t max_shards_within_battery(std::size_t user) const noexcept;

 private:
  std::vector<double> base_s_;
  std::vector<double> per_shard_s_;
  std::vector<std::uint32_t> capacity_;
  std::size_t shard_size_;
  std::size_t total_capacity_ = 0;
  double lo_cost_;
  std::vector<double> base_wh_;
  std::vector<double> per_shard_wh_;
  std::vector<double> budget_wh_;
};

}  // namespace fedsched::sched
