#include "sched/linear_costs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fedsched::sched {

LinearCosts::LinearCosts(std::vector<double> base_s, std::vector<double> per_shard_s,
                         std::vector<std::uint32_t> capacity_shards,
                         std::size_t shard_size)
    : base_s_(std::move(base_s)),
      per_shard_s_(std::move(per_shard_s)),
      capacity_(std::move(capacity_shards)),
      shard_size_(shard_size),
      lo_cost_(std::numeric_limits<double>::infinity()) {
  if (base_s_.empty()) throw std::invalid_argument("LinearCosts: no users");
  if (per_shard_s_.size() != base_s_.size() || capacity_.size() != base_s_.size()) {
    throw std::invalid_argument("LinearCosts: misaligned vectors");
  }
  if (shard_size_ == 0) throw std::invalid_argument("LinearCosts: zero shard size");
  for (std::size_t j = 0; j < base_s_.size(); ++j) {
    // Finite too: the planners' selection kernel orders marginal costs, and
    // inf - inf would hand it a NaN key.
    if (!(base_s_[j] >= 0.0) || !(per_shard_s_[j] >= 0.0) ||
        !std::isfinite(base_s_[j]) || !std::isfinite(per_shard_s_[j])) {
      throw std::invalid_argument(
          "LinearCosts: negative, NaN or infinite cost coefficients");
    }
    total_capacity_ += capacity_[j];
    if (capacity_[j] > 0) lo_cost_ = std::min(lo_cost_, cost(j, 1));
  }
  if (total_capacity_ == 0) throw std::invalid_argument("LinearCosts: zero capacity");
}

std::size_t LinearCosts::max_shards_within(std::size_t user,
                                           double threshold) const noexcept {
  const std::size_t cap = capacity_[user];
  if (cap == 0 || cost(user, 1) > threshold) return 0;
  const double per = per_shard_s_[user];
  if (per <= 0.0) return cap;  // flat row: one shard within => all within
  double guess = std::floor((threshold - base_s_[user]) / per);
  guess = std::clamp(guess, 1.0, static_cast<double>(cap));
  std::size_t k = static_cast<std::size_t>(guess);
  // The division can land one off in either direction; restore the exact
  // predicate so budgets agree bitwise with a materialized row scan.
  while (k > 1 && cost(user, k) > threshold) --k;
  while (k < cap && cost(user, k + 1) <= threshold) ++k;
  return k;
}

std::size_t LinearCosts::total_budget(double threshold, std::size_t target) const {
  std::size_t total = 0;
  for (std::size_t j = 0; j < base_s_.size(); ++j) {
    total += max_shards_within(j, threshold);
    if (total >= target) return total;
  }
  return total;
}

void LinearCosts::set_energy(std::vector<double> base_wh,
                             std::vector<double> per_shard_wh,
                             std::vector<double> budget_wh) {
  if (base_wh.size() != base_s_.size() || per_shard_wh.size() != base_s_.size() ||
      budget_wh.size() != base_s_.size()) {
    throw std::invalid_argument("LinearCosts::set_energy: misaligned vectors");
  }
  for (std::size_t j = 0; j < base_wh.size(); ++j) {
    if (!(base_wh[j] >= 0.0) || !(per_shard_wh[j] >= 0.0) ||
        !(budget_wh[j] >= 0.0) || !std::isfinite(base_wh[j]) ||
        !std::isfinite(per_shard_wh[j])) {
      throw std::invalid_argument(
          "LinearCosts::set_energy: negative or NaN energy coefficients");
    }
  }
  base_wh_ = std::move(base_wh);
  per_shard_wh_ = std::move(per_shard_wh);
  budget_wh_ = std::move(budget_wh);
}

std::size_t LinearCosts::max_shards_within_battery(std::size_t user) const noexcept {
  const std::size_t cap = capacity_[user];
  const double budget = budget_wh_[user];
  if (cap == 0 || energy(user, 1) > budget) return 0;
  const double per = per_shard_wh_[user];
  if (per <= 0.0) return cap;  // flat row: one shard within => all within
  double guess = std::floor((budget - base_wh_[user]) / per);
  guess = std::clamp(guess, 1.0, static_cast<double>(cap));
  std::size_t k = static_cast<std::size_t>(guess);
  // Same exact-predicate nudge as max_shards_within: the division is only a
  // first guess under floating point.
  while (k > 1 && energy(user, k) > budget) --k;
  while (k < cap && energy(user, k + 1) <= budget) ++k;
  return k;
}

double LinearCosts::max_full_cost(std::size_t shard_cap) const noexcept {
  double hi = 0.0;
  for (std::size_t j = 0; j < base_s_.size(); ++j) {
    const std::size_t k = std::min<std::size_t>(capacity_[j], shard_cap);
    if (k > 0) hi = std::max(hi, cost(j, k));
  }
  return hi;
}

}  // namespace fedsched::sched
