// Scale-equivalence suite: the bucketed Fed-LBAP / Fed-MinAvg paths against
// the exact small-n oracles.
//
// Instances use dyadic constants (multiples of 0.25) throughout so that the
// CostMatrix view (intercept + slope*(k*shard_size) + comm) and the
// LinearCosts view ((intercept + comm) + (slope*shard_size)*k) evaluate to
// bitwise-identical doubles — every intermediate is exactly representable.
// That makes two golden contracts checkable exactly:
//   1. makespan within one bucket width of the exact optimum, at any B;
//   2. *identical* assignments once the bucket width drops below the 0.25
//      minimum gap between distinct cost values (width -> 0 limit).

#include "sched/bucketed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "sched/cost_matrix.hpp"
#include "sched/fed_lbap.hpp"
#include "sched/fed_minavg.hpp"

namespace fedsched::sched {
namespace {

using profile::LinearTimeModel;

struct Instance {
  std::vector<UserProfile> users;
  std::vector<double> base_s;
  std::vector<double> per_shard_s;
  std::vector<std::uint32_t> capacity;
  std::size_t total_shards = 0;

  [[nodiscard]] LinearCosts linear() const {
    return LinearCosts(base_s, per_shard_s, capacity, /*shard_size=*/1);
  }
  [[nodiscard]] CostMatrix matrix() const {
    return CostMatrix(users, total_shards, /*shard_size=*/1);
  }
};

/// Random instance on the 0.25 grid: slopes 0.25..4.0, intercepts 0..3.5,
/// comm 0..0.75, per-user capacity 1..cap_max. All users share the full
/// class set so Fed-MinAvg's accuracy term can be zeroed exactly.
Instance dyadic_instance(std::uint64_t seed, std::size_t n, std::size_t cap_max) {
  common::Rng rng(seed);
  Instance inst;
  std::size_t total_capacity = 0;
  std::vector<std::uint16_t> all_classes(10);
  std::iota(all_classes.begin(), all_classes.end(), 0);
  for (std::size_t j = 0; j < n; ++j) {
    const double slope = 0.25 * static_cast<double>(1 + rng.uniform_int(16));
    const double intercept = 0.5 * static_cast<double>(rng.uniform_int(8));
    const double comm = 0.25 * static_cast<double>(rng.uniform_int(4));
    const auto cap = static_cast<std::uint32_t>(1 + rng.uniform_int(cap_max));
    UserProfile u;
    u.name = "u" + std::to_string(j);
    u.time_model = std::make_shared<LinearTimeModel>(intercept, slope);
    u.comm_seconds = comm;
    u.capacity_shards = cap;
    u.classes = all_classes;
    inst.users.push_back(std::move(u));
    inst.base_s.push_back(intercept + comm);
    inst.per_shard_s.push_back(slope);
    inst.capacity.push_back(cap);
    total_capacity += cap;
  }
  inst.total_shards = std::max<std::size_t>(1, total_capacity / 2);
  return inst;
}

/// Bucket count that pushes the width below the 0.25 value grid.
std::size_t fine_buckets(const LinearCosts& costs, std::size_t total_shards) {
  const double span =
      costs.max_full_cost(total_shards) - costs.min_single_shard_cost();
  if (span <= 0.0) return 1;
  return static_cast<std::size_t>(std::ceil(span / 0.125));
}

TEST(LinearCosts, BudgetsMatchMaterializedMatrix) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const Instance inst = dyadic_instance(seed, 24, 6);
    const LinearCosts costs = inst.linear();
    const CostMatrix matrix = inst.matrix();
    SCOPED_TRACE("seed=" + std::to_string(seed));
    for (std::size_t j = 0; j < inst.users.size(); ++j) {
      for (std::size_t k = 1; k <= std::min<std::size_t>(inst.capacity[j],
                                                         inst.total_shards);
           ++k) {
        EXPECT_EQ(costs.cost(j, k), matrix.cost(j, k)) << "j=" << j << " k=" << k;
        // Probe budgets exactly at a cost value — the worst case for the
        // closed-form inverse — and strictly between values.
        const double at = matrix.cost(j, k);
        EXPECT_EQ(costs.max_shards_within(j, at), matrix.max_shards_within(j, at));
        EXPECT_EQ(costs.max_shards_within(j, at - 0.125),
                  matrix.max_shards_within(j, at - 0.125));
      }
    }
  }
}

TEST(LinearCosts, Validation) {
  EXPECT_THROW(LinearCosts({}, {}, {}, 1), std::invalid_argument);
  EXPECT_THROW(LinearCosts({1.0}, {1.0, 2.0}, {1}, 1), std::invalid_argument);
  EXPECT_THROW(LinearCosts({1.0}, {-1.0}, {1}, 1), std::invalid_argument);
  EXPECT_THROW(LinearCosts({HUGE_VAL}, {1.0}, {1}, 1), std::invalid_argument);
  EXPECT_THROW(LinearCosts({1.0}, {HUGE_VAL}, {1}, 1), std::invalid_argument);
  EXPECT_THROW(LinearCosts({1.0}, {1.0}, {1}, 0), std::invalid_argument);
  EXPECT_THROW(LinearCosts({1.0}, {1.0}, {0}, 1), std::invalid_argument);
}

TEST(BucketedLbap, MakespanWithinOneBucketWidth) {
  for (std::size_t n : {3u, 16u, 128u, 512u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const Instance inst = dyadic_instance(seed + n, n, 8);
      const LbapResult exact = fed_lbap(inst.matrix(), inst.total_shards);
      const LinearCosts costs = inst.linear();
      for (std::size_t buckets : {4u, 16u, 64u}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
                     " B=" + std::to_string(buckets));
        const BucketedLbapResult got =
            fed_lbap_bucketed(costs, inst.total_shards, buckets);
        EXPECT_EQ(got.assignment.total_shards(), inst.total_shards);
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_LE(got.assignment.shards_per_user[j], inst.capacity[j]);
        }
        // The exact optimum is a lower bound; the quantized threshold
        // overshoots it by strictly less than one bucket width.
        EXPECT_GE(got.makespan_seconds, exact.makespan_seconds - 1e-9);
        EXPECT_LE(got.makespan_seconds,
                  exact.makespan_seconds + got.bucket_width + 1e-9);
      }
    }
  }
}

TEST(BucketedLbap, FineBucketsReproduceExactAssignments) {
  for (std::size_t n : {3u, 16u, 128u, 512u}) {
    for (std::uint64_t seed : {5u, 6u, 7u}) {
      const Instance inst = dyadic_instance(seed * 131 + n, n, 8);
      const LbapResult exact = fed_lbap(inst.matrix(), inst.total_shards);
      const LinearCosts costs = inst.linear();
      const std::size_t buckets = fine_buckets(costs, inst.total_shards);
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
                   " B=" + std::to_string(buckets));
      const BucketedLbapResult got =
          fed_lbap_bucketed(costs, inst.total_shards, buckets);
      ASSERT_LT(got.bucket_width, 0.25);  // below the value grid
      EXPECT_EQ(got.assignment.shards_per_user, exact.assignment.shards_per_user);
      EXPECT_EQ(got.makespan_seconds, exact.makespan_seconds);  // bitwise
    }
  }
}

TEST(BucketedLbap, Validation) {
  const Instance inst = dyadic_instance(99, 4, 4);
  const LinearCosts costs = inst.linear();
  EXPECT_THROW(fed_lbap_bucketed(costs, 0, 8), std::invalid_argument);
  EXPECT_THROW(fed_lbap_bucketed(costs, inst.total_shards, 0),
               std::invalid_argument);
  EXPECT_THROW(fed_lbap_bucketed(costs, costs.total_capacity() + 1, 8),
               std::invalid_argument);
}

TEST(BucketedMinAvg, FineBucketsReproduceExactGreedy) {
  // alpha = beta = 0 with full shared class sets zeroes the accuracy term,
  // so the exact Algorithm 2 reduces to the pure-time greedy the bucketed
  // path implements; below the value grid they must agree step for step.
  MinAvgConfig config;
  config.cost.alpha = 0.0;
  config.cost.beta = 0.0;
  for (std::size_t n : {3u, 16u, 128u, 512u}) {
    for (std::uint64_t seed : {8u, 9u}) {
      const Instance inst = dyadic_instance(seed * 977 + n, n, 6);
      const MinAvgResult exact =
          fed_minavg(inst.users, inst.total_shards, /*shard_size=*/1, config);
      const LinearCosts costs = inst.linear();
      const std::size_t buckets = fine_buckets(costs, inst.total_shards);
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
                   " B=" + std::to_string(buckets));
      const BucketedMinAvgResult got =
          fed_minavg_bucketed(costs, inst.total_shards, buckets);
      EXPECT_EQ(got.steps, exact.steps);
      EXPECT_EQ(got.assignment.shards_per_user, exact.assignment.shards_per_user);
      EXPECT_EQ(got.makespan_seconds, exact.makespan_seconds);
      EXPECT_EQ(got.total_time_seconds, exact.total_time_seconds);
    }
  }
}

TEST(BucketedMinAvg, CoarseBucketsStayValid) {
  for (std::uint64_t seed : {41u, 42u}) {
    const Instance inst = dyadic_instance(seed, 64, 6);
    const LinearCosts costs = inst.linear();
    for (std::size_t buckets : {1u, 4u, 16u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " B=" + std::to_string(buckets));
      const BucketedMinAvgResult got =
          fed_minavg_bucketed(costs, inst.total_shards, buckets);
      EXPECT_EQ(got.steps, inst.total_shards);
      EXPECT_EQ(got.assignment.total_shards(), inst.total_shards);
      double total = 0.0, worst = 0.0;
      for (std::size_t j = 0; j < costs.users(); ++j) {
        const std::size_t s = got.assignment.shards_per_user[j];
        EXPECT_LE(s, inst.capacity[j]);
        if (s > 0) {
          total += costs.cost(j, s);
          worst = std::max(worst, costs.cost(j, s));
        }
      }
      EXPECT_DOUBLE_EQ(got.total_time_seconds, total);
      EXPECT_DOUBLE_EQ(got.makespan_seconds, worst);
    }
  }
}

/// Perfectly uniform fleet: every client identical. With capacity 1 (or zero
/// marginal cost) the histogram span collapses — hi == lo, bucket width 0 —
/// and the quantized paths must degrade to the exact algorithms bitwise at
/// any bucket count, not divide by the zero width.
Instance uniform_instance(std::size_t n, double intercept, double slope,
                          double comm, std::uint32_t cap,
                          std::size_t total_shards) {
  Instance inst;
  std::vector<std::uint16_t> all_classes(10);
  std::iota(all_classes.begin(), all_classes.end(), 0);
  for (std::size_t j = 0; j < n; ++j) {
    UserProfile u;
    u.name = "u" + std::to_string(j);
    u.time_model = std::make_shared<LinearTimeModel>(intercept, slope);
    u.comm_seconds = comm;
    u.capacity_shards = cap;
    u.classes = all_classes;
    inst.users.push_back(std::move(u));
    inst.base_s.push_back(intercept + comm);
    inst.per_shard_s.push_back(slope);
    inst.capacity.push_back(cap);
  }
  inst.total_shards = total_shards;
  return inst;
}

TEST(BucketedLbap, UniformCapacityOneFleetHasZeroWidth) {
  // cap 1 pins max_full_cost to the single-shard cost: hi == lo exactly.
  for (std::size_t total_shards : {16u, 32u, 64u}) {
    const Instance inst =
        uniform_instance(64, 2.0, 1.0, 0.5, /*cap=*/1, total_shards);
    const LbapResult exact = fed_lbap(inst.matrix(), inst.total_shards);
    const LinearCosts costs = inst.linear();
    ASSERT_EQ(costs.min_single_shard_cost(), costs.max_full_cost(total_shards));
    for (std::size_t buckets : {1u, 7u, 64u}) {
      SCOPED_TRACE("shards=" + std::to_string(total_shards) +
                   " B=" + std::to_string(buckets));
      const BucketedLbapResult got =
          fed_lbap_bucketed(costs, inst.total_shards, buckets);
      EXPECT_EQ(got.bucket_width, 0.0);
      EXPECT_EQ(got.assignment.shards_per_user, exact.assignment.shards_per_user);
      EXPECT_EQ(got.makespan_seconds, exact.makespan_seconds);  // bitwise
      EXPECT_EQ(got.threshold_seconds, got.makespan_seconds);
    }
  }
}

TEST(BucketedLbap, ZeroMarginalCostFleetHasZeroWidth) {
  // slope 0: cost(j, k) == base for every load, so the span is zero even
  // with multi-shard capacity.
  const Instance inst =
      uniform_instance(16, 3.0, 0.0, 0.0, /*cap=*/5, /*total_shards=*/40);
  const LbapResult exact = fed_lbap(inst.matrix(), inst.total_shards);
  const LinearCosts costs = inst.linear();
  ASSERT_EQ(costs.min_single_shard_cost(), costs.max_full_cost(inst.total_shards));
  for (std::size_t buckets : {1u, 64u}) {
    SCOPED_TRACE("B=" + std::to_string(buckets));
    const BucketedLbapResult got =
        fed_lbap_bucketed(costs, inst.total_shards, buckets);
    EXPECT_EQ(got.bucket_width, 0.0);
    EXPECT_EQ(got.assignment.total_shards(), inst.total_shards);
    EXPECT_EQ(got.assignment.shards_per_user, exact.assignment.shards_per_user);
    EXPECT_EQ(got.makespan_seconds, exact.makespan_seconds);
  }
}

TEST(BucketedMinAvg, UniformFleetZeroWidthMatchesExactGreedy) {
  MinAvgConfig config;
  config.cost.alpha = 0.0;
  config.cost.beta = 0.0;
  // Both degenerate families: capacity-1 uniform and zero-marginal uniform.
  const Instance degenerate[] = {
      uniform_instance(64, 2.0, 1.0, 0.5, /*cap=*/1, /*total_shards=*/48),
      uniform_instance(16, 3.0, 0.0, 0.0, /*cap=*/5, /*total_shards=*/40),
  };
  for (const Instance& inst : degenerate) {
    const MinAvgResult exact =
        fed_minavg(inst.users, inst.total_shards, /*shard_size=*/1, config);
    const LinearCosts costs = inst.linear();
    ASSERT_EQ(costs.min_single_shard_cost(),
              costs.max_full_cost(inst.total_shards));
    for (std::size_t buckets : {1u, 7u, 64u}) {
      SCOPED_TRACE("n=" + std::to_string(inst.users.size()) +
                   " B=" + std::to_string(buckets));
      const BucketedMinAvgResult got =
          fed_minavg_bucketed(costs, inst.total_shards, buckets);
      EXPECT_EQ(got.bucket_width, 0.0);
      EXPECT_EQ(got.steps, exact.steps);
      EXPECT_EQ(got.assignment.shards_per_user, exact.assignment.shards_per_user);
      EXPECT_EQ(got.makespan_seconds, exact.makespan_seconds);   // bitwise
      EXPECT_EQ(got.total_time_seconds, exact.total_time_seconds);
    }
  }
}

}  // namespace
}  // namespace fedsched::sched
