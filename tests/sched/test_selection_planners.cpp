// Bit-exactness suite for the selection planners: the weighted-cut kernel
// against a full sort, and fed_lbap_bucketed / fed_minenergy against the
// heap loops they replaced (heap_oracles.hpp), comparing every result field
// bitwise. Small instances stress exact ties, slopes an ulp apart, zero
// bases, flat rows, zero capacities and zero battery budgets; the fleet
// cases run 200k-client fleets, static and masked by charge-gated dynamics.

#include "sched/weighted_cut.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "device/model_desc.hpp"
#include "fleet/dynamics.hpp"
#include "fleet/fleet.hpp"
#include "heap_oracles.hpp"
#include "sched/bucketed.hpp"
#include "sched/minenergy.hpp"

namespace fedsched::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool precedes(const CutRecord& a, const CutRecord& b) {
  return a.key < b.key || (a.key == b.key && a.user < b.user);
}

// ---- weighted_cut against sort-and-scan -------------------------------------

TEST(WeightedCut, MatchesSortAndScan) {
  common::Rng rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(trial < 300 ? 200 : 3000);
    const std::uint64_t distinct_keys = 1 + rng.uniform_int(trial % 3 == 0 ? 3 : 1000);
    std::vector<CutRecord> records(n);
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    rng.shuffle(ids);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      records[i].key = -0.5 * static_cast<double>(rng.uniform_int(distinct_keys));
      records[i].user = ids[i];
      // Long zero-weight stretches put a pivot exactly on the target.
      const std::uint64_t w = trial % 3 == 0   ? rng.uniform_int(65)
                              : trial % 3 == 1 ? rng.uniform_int(5)
                              : rng.bernoulli(0.1) ? 1 + rng.uniform_int(4)
                                                   : 0;
      records[i].weight = static_cast<std::uint32_t>(w);
      total += records[i].weight;
    }
    if (total == 0) {
      records[0].weight = 1;
      total = 1;
    }
    std::vector<CutRecord> sorted = records;
    std::sort(sorted.begin(), sorted.end(), precedes);

    // Light spans try every target, so each boundary the selection meets
    // is hit exactly; heavier ones sample the targets.
    const bool every_target = total <= 2000;
    const std::uint64_t targets = every_target ? total : 16;
    for (std::uint64_t t = 0; t < targets; ++t) {
      const std::uint64_t target = every_target ? t + 1 : 1 + rng.uniform_int(total);
      std::uint64_t expect_before = 0;
      std::size_t expect = 0;
      while (expect_before + sorted[expect].weight < target) {
        expect_before += sorted[expect++].weight;
      }
      std::vector<CutRecord> work = records;
      const WeightedCut cut = weighted_cut(work, target);
      ASSERT_EQ(work[cut.index].user, sorted[expect].user) << "target " << target;
      ASSERT_EQ(cut.weight_before, expect_before);
      ASSERT_EQ(cut.index, expect);  // (key, user) pairs are distinct
      for (std::size_t i = 0; i < n; ++i) {
        if (i == cut.index) continue;
        ASSERT_EQ(precedes(work[i], work[cut.index]), i < cut.index) << "position " << i;
      }
    }
  }
}

TEST(WeightedCut, RejectsTargetsOutsideTheWeight) {
  std::vector<CutRecord> records{{1.0, 0, 2}, {0.5, 1, 3}};
  EXPECT_THROW(weighted_cut(records, 0), std::invalid_argument);
  EXPECT_THROW(weighted_cut(records, 6), std::invalid_argument);
  const WeightedCut cut = weighted_cut(records, 4);
  EXPECT_EQ(records[cut.index].user, 0u);
  EXPECT_EQ(cut.weight_before, 3u);
}

// ---- planners against the heap oracles -------------------------------------

::testing::AssertionResult same(const BucketedLbapResult& got,
                                const BucketedLbapResult& want) {
  if (got.assignment.shards_per_user != want.assignment.shards_per_user) {
    return ::testing::AssertionFailure() << "shards_per_user differ";
  }
  if (got.assignment.shard_size != want.assignment.shard_size ||
      bits(got.makespan_seconds) != bits(want.makespan_seconds) ||
      bits(got.threshold_seconds) != bits(want.threshold_seconds) ||
      bits(got.bucket_width) != bits(want.bucket_width) || got.buckets != want.buckets ||
      got.search_iterations != want.search_iterations ||
      got.trimmed_shards != want.trimmed_shards) {
    return ::testing::AssertionFailure()
           << "scalar fields differ: makespan " << got.makespan_seconds << " vs "
           << want.makespan_seconds << ", trimmed " << got.trimmed_shards << " vs "
           << want.trimmed_shards;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same(const MinEnergyResult& got, const MinEnergyResult& want) {
  if (got.assignment.shards_per_user != want.assignment.shards_per_user) {
    return ::testing::AssertionFailure() << "shards_per_user differ";
  }
  if (got.assignment.shard_size != want.assignment.shard_size ||
      bits(got.makespan_seconds) != bits(want.makespan_seconds) ||
      bits(got.total_energy_wh) != bits(want.total_energy_wh) ||
      bits(got.time_cap_s) != bits(want.time_cap_s) ||
      got.relaxed_shards != want.relaxed_shards || got.steps != want.steps) {
    return ::testing::AssertionFailure()
           << "scalar fields differ: energy " << got.total_energy_wh << " vs "
           << want.total_energy_wh << ", relaxed " << got.relaxed_shards << " vs "
           << want.relaxed_shards;
  }
  return ::testing::AssertionSuccess();
}

/// A value from one of several pools, so that exact ties, ulp neighbours
/// (0.1 + k*1e-17 rounds to 0.1 + {0, 1, 1, 2} ulps) and zeros all occur.
double draw(common::Rng& rng, int pool, double scale) {
  switch (pool) {
    case 0: return 0.0;
    case 1: return scale * 0.25 * static_cast<double>(1 + rng.uniform_int(4));
    case 2: return scale * (0.1 + static_cast<double>(rng.uniform_int(4)) * 1e-17);
    default: return scale * rng.uniform(0.01, 2.0);
  }
}

struct SmallCase {
  LinearCosts costs;
  std::size_t total_shards;
};

SmallCase small_case(common::Rng& rng) {
  const std::size_t n = 1 + rng.uniform_int(24);
  const std::size_t cap_max = std::array<std::size_t, 4>{1, 3, 8, 20}[rng.uniform_int(4)];
  // Per-instance pools: slope pool 0 makes every row flat.
  const int slope_pool = static_cast<int>(rng.uniform_int(4));
  const int base_pool = static_cast<int>(rng.uniform_int(4));
  const int per_wh_pool = 1 + static_cast<int>(rng.uniform_int(3));
  const int base_wh_pool = static_cast<int>(rng.uniform_int(4));
  const bool tight_battery = rng.bernoulli(0.3);
  std::vector<double> base_s(n), per_s(n), base_wh(n), per_wh(n), budget(n);
  std::vector<std::uint32_t> cap(n);
  std::size_t total_capacity = 0;
  for (std::size_t j = 0; j < n; ++j) {
    per_s[j] = rng.bernoulli(0.2) ? 0.0 : draw(rng, slope_pool, 1.0);
    base_s[j] = draw(rng, base_pool, 2.0);
    cap[j] = rng.bernoulli(0.15) ? 0u : static_cast<std::uint32_t>(1 + rng.uniform_int(cap_max));
    per_wh[j] = draw(rng, per_wh_pool, 0.01);
    base_wh[j] = draw(rng, base_wh_pool, 0.005);
    budget[j] = rng.bernoulli(0.15)  ? 0.0
                : tight_battery     ? rng.uniform(0.0, 0.1)
                                    : 1e6;
    total_capacity += cap[j];
  }
  if (total_capacity == 0) {
    cap[0] = 1;
    total_capacity = 1;
  }
  LinearCosts costs(std::move(base_s), std::move(per_s), std::move(cap), 1);
  costs.set_energy(std::move(base_wh), std::move(per_wh), std::move(budget));
  return {std::move(costs), 1 + rng.uniform_int(total_capacity)};
}

TEST(SelectionOracle, SmallInstancesMatchHeapsBitwise) {
  common::Rng rng(20'250'117);
  std::size_t trimmed = 0, relaxed = 0, feasible = 0;
  for (int instance = 0; instance < 4000; ++instance) {
    const SmallCase c = small_case(rng);
    for (std::size_t buckets : {1u, 2u, 3u, 8u, 64u}) {
      const BucketedLbapResult lbap = fed_lbap_bucketed(c.costs, c.total_shards, buckets);
      ASSERT_TRUE(same(lbap, oracle::heap_fed_lbap_bucketed(c.costs, c.total_shards, buckets)))
          << "instance " << instance << " B=" << buckets;
      trimmed += lbap.trimmed_shards > 0;
    }
    MinEnergyConfig config;
    config.probe_buckets = std::array<std::size_t, 5>{1, 2, 3, 8, 64}[instance % 5];
    config.makespan_slack = instance % 2 ? 1.0 : 1.4;
    config.makespan_cap_s = std::array<double, 3>{0.0, 0.3, kInf}[instance % 3];
    try {
      const MinEnergyResult want = oracle::heap_fed_minenergy(c.costs, c.total_shards, config);
      ASSERT_TRUE(same(fed_minenergy(c.costs, c.total_shards, config), want))
          << "instance " << instance;
      ++feasible;
      relaxed += want.relaxed_shards > 0;
    } catch (const std::invalid_argument&) {
      // Battery budgets cannot host the dataset: the planner must refuse too.
      EXPECT_THROW(fed_minenergy(c.costs, c.total_shards, config), std::invalid_argument)
          << "instance " << instance;
    }
  }
  // The sweep must actually reach the trim and the relaxed pass.
  EXPECT_GT(trimmed, 2000u);
  EXPECT_GT(feasible, 2000u);
  EXPECT_GT(relaxed, 200u);
}

constexpr std::size_t kFleet = 200'000;
constexpr std::size_t kShard = 100;
constexpr double kFloor = 0.05;  // the simulator's default death floor
constexpr std::size_t kShards = 2 * kFleet;

void expect_planners_match(const LinearCosts& costs, bool expect_trim) {
  const BucketedLbapResult lbap = fed_lbap_bucketed(costs, kShards, 64);
  EXPECT_TRUE(same(lbap, oracle::heap_fed_lbap_bucketed(costs, kShards, 64)));
  if (expect_trim) {
    EXPECT_GT(lbap.trimmed_shards, 0u);
  }
  EXPECT_TRUE(same(fed_minenergy(costs, kShards), oracle::heap_fed_minenergy(costs, kShards)));
}

TEST(SelectionOracle, FleetsStaticAndChargeGated) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fleet::FleetGenerator generator(fleet::FleetMix{}, device::lenet_desc(), seed);
    const fleet::FleetState state = generator.generate(kFleet);
    expect_planners_match(fleet::linear_costs(state, kShard, kFloor),
                          /*expect_trim=*/true);
    fleet::ClientDynamics dynamics(fleet::scenario_config("charge-gated", seed), &generator);
    expect_planners_match(fleet::dynamic_linear_costs(state, kShard, dynamics, kFloor),
                          /*expect_trim=*/false);
  }
}

TEST(SelectionOracle, FleetWithoutSpeedSpreadTiesWholeDeviceClasses) {
  fleet::FleetMix mix;
  mix.speed_sigma = 0.0;
  fleet::FleetGenerator generator(mix, device::lenet_desc(), 5);
  expect_planners_match(fleet::linear_costs(generator.generate(kFleet), kShard, kFloor),
                        /*expect_trim=*/true);
}

TEST(SelectionOracle, FleetRelaxedPassMatchesHeap) {
  fleet::FleetGenerator generator(fleet::FleetMix{}, device::lenet_desc(), 9);
  const LinearCosts costs =
      fleet::linear_costs(generator.generate(kFleet), kShard, kFloor);
  MinEnergyConfig config;
  config.makespan_cap_s = 0.5 * fed_lbap_bucketed(costs, kShards, 64).makespan_seconds;
  const MinEnergyResult want = oracle::heap_fed_minenergy(costs, kShards, config);
  EXPECT_GT(want.relaxed_shards, 0u);
  EXPECT_TRUE(same(fed_minenergy(costs, kShards, config), want));
}

}  // namespace
}  // namespace fedsched::sched
