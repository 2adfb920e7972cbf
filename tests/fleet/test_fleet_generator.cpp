// Property/fuzz suite for FleetGenerator (same spirit as
// tests/fl/test_health_property.cpp): over random seeds and sizes, sampled
// mixtures match the requested proportions within tolerance, every state
// vector stays index-aligned, and generation is bitwise seed-deterministic.

#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "device/model_desc.hpp"

namespace fedsched::fleet {
namespace {

const device::ModelDesc& kModel = device::lenet_desc();

FleetMix skewed_mix() {
  FleetMix mix;
  mix.device_weights = {0.5, 0.2, 0.2, 0.1};
  mix.lte_fraction = 0.3;
  mix.soc_min = 0.6;
  mix.soc_max = 0.9;
  mix.speed_sigma = 0.2;
  mix.capacity_shards = 32;
  return mix;
}

void expect_aligned(const FleetState& s, std::size_t n) {
  EXPECT_EQ(s.size(), n);
  EXPECT_EQ(s.device_model.size(), n);
  EXPECT_EQ(s.network.size(), n);
  EXPECT_EQ(s.speed_factor.size(), n);
  EXPECT_EQ(s.base_s.size(), n);
  EXPECT_EQ(s.per_sample_s.size(), n);
  EXPECT_EQ(s.comm_s.size(), n);
  EXPECT_EQ(s.battery_soc.size(), n);
  EXPECT_EQ(s.battery_capacity_wh.size(), n);
  EXPECT_EQ(s.train_power_w.size(), n);
  EXPECT_EQ(s.comm_energy_wh.size(), n);
  EXPECT_EQ(s.temp_c.size(), n);
  EXPECT_EQ(s.capacity_shards.size(), n);
  EXPECT_EQ(s.alive.size(), n);
}

TEST(FleetGenerator, MixtureProportionsWithinTolerance) {
  const FleetMix mix = skewed_mix();
  constexpr std::size_t kN = 20000;
  constexpr double kTol = 0.02;  // ~10 sigma at n = 20k for the rarest class
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FleetGenerator gen(mix, kModel, seed);
    const FleetState state = gen.generate(kN);
    std::array<std::size_t, kPhoneModelCount> counts{};
    std::size_t lte = 0;
    for (std::size_t j = 0; j < kN; ++j) {
      counts[state.device_model[j]]++;
      lte += state.network[j];
    }
    for (std::size_t i = 0; i < kPhoneModelCount; ++i) {
      const double observed = static_cast<double>(counts[i]) / kN;
      EXPECT_NEAR(observed, mix.device_weights[i], kTol) << "model " << i;
    }
    EXPECT_NEAR(static_cast<double>(lte) / kN, mix.lte_fraction, kTol);
  }
}

TEST(FleetGenerator, StateVectorsAlignedAndInRange) {
  const FleetMix mix = skewed_mix();
  common::Rng fuzz(0xa11ce);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 1 + fuzz.uniform_int(3000);
    const std::uint64_t seed = fuzz();
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n));
    const FleetGenerator gen(mix, kModel, seed);
    const FleetState state = gen.generate(n);
    expect_aligned(state, n);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_LT(state.device_model[j], kPhoneModelCount);
      EXPECT_LE(state.network[j], 1);
      EXPECT_GT(state.speed_factor[j], 0.0);
      EXPECT_GE(state.base_s[j], 0.0);
      EXPECT_GT(state.per_sample_s[j], 0.0);
      EXPECT_GT(state.comm_s[j], 0.0);
      EXPECT_GE(state.battery_soc[j], mix.soc_min);
      EXPECT_LE(state.battery_soc[j], mix.soc_max);
      EXPECT_GT(state.battery_capacity_wh[j], 0.0);
      EXPECT_GT(state.train_power_w[j], 0.0);
      EXPECT_GT(state.comm_energy_wh[j], 0.0);
      EXPECT_EQ(state.capacity_shards[j], mix.capacity_shards);
      EXPECT_EQ(state.alive[j], 1);
    }
  }
}

TEST(FleetGenerator, BitwiseSeedDeterminism) {
  const FleetMix mix = skewed_mix();
  for (std::uint64_t seed : {7u, 77u, 777u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FleetState a = FleetGenerator(mix, kModel, seed).generate(1500);
    const FleetState b = FleetGenerator(mix, kModel, seed).generate(1500);
    EXPECT_EQ(a.device_model, b.device_model);
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.speed_factor, b.speed_factor);   // bitwise: same draws
    EXPECT_EQ(a.base_s, b.base_s);
    EXPECT_EQ(a.per_sample_s, b.per_sample_s);
    EXPECT_EQ(a.battery_soc, b.battery_soc);
    EXPECT_EQ(a.temp_c, b.temp_c);
  }
  // And a different seed must actually change the population.
  const FleetState a = FleetGenerator(mix, kModel, 7).generate(1500);
  const FleetState c = FleetGenerator(mix, kModel, 8).generate(1500);
  EXPECT_NE(a.battery_soc, c.battery_soc);
}

TEST(FleetGenerator, ClientsKeepIdentityAsFleetGrows) {
  // fork(j) is a pure function of (seed, j): client j of a small fleet is
  // bit-identical to client j of a larger fleet with the same seed.
  const FleetMix mix = skewed_mix();
  const FleetGenerator gen(mix, kModel, 2024);
  const FleetState small = gen.generate(100);
  const FleetState large = gen.generate(1000);
  for (std::size_t j = 0; j < small.size(); ++j) {
    EXPECT_EQ(small.device_model[j], large.device_model[j]);
    EXPECT_EQ(small.speed_factor[j], large.speed_factor[j]);
    EXPECT_EQ(small.battery_soc[j], large.battery_soc[j]);
  }
}

TEST(FleetGenerator, LinearCostsViewMatchesState) {
  const FleetMix mix = skewed_mix();
  const FleetState state = FleetGenerator(mix, kModel, 5).generate(200);
  const sched::LinearCosts costs = linear_costs(state, 100, /*battery_floor_soc=*/0.05);
  ASSERT_EQ(costs.users(), state.size());
  for (std::size_t j = 0; j < state.size(); ++j) {
    EXPECT_EQ(costs.base_seconds(j), state.base_s[j] + state.comm_s[j]);
    EXPECT_EQ(costs.per_shard_seconds(j), state.per_sample_s[j] * 100.0);
    EXPECT_EQ(costs.capacity(j), state.capacity_shards[j]);
  }
}

TEST(FleetGenerator, Validation) {
  const FleetMix mix = skewed_mix();
  FleetMix bad = mix;
  bad.soc_min = 0.9;
  bad.soc_max = 0.5;
  EXPECT_THROW(FleetGenerator(bad, kModel, 1), std::invalid_argument);
  bad = mix;
  bad.device_weights = {0.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(FleetGenerator(bad, kModel, 1), std::invalid_argument);
  bad = mix;
  bad.capacity_shards = 0;
  EXPECT_THROW(FleetGenerator(bad, kModel, 1), std::invalid_argument);
}

TEST(FleetMixParse, ParsesDevicesAndLte) {
  const FleetMix mix = parse_fleet_mix("nexus6:0.4,mate10:0.4,pixel2:0.2,lte:0.5");
  EXPECT_DOUBLE_EQ(mix.device_weights[0], 0.4);  // Nexus 6
  EXPECT_DOUBLE_EQ(mix.device_weights[1], 0.0);  // Nexus 6P unnamed
  EXPECT_DOUBLE_EQ(mix.device_weights[2], 0.4);  // Mate 10
  EXPECT_DOUBLE_EQ(mix.device_weights[3], 0.2);  // Pixel 2
  EXPECT_DOUBLE_EQ(mix.lte_fraction, 0.5);
}

TEST(FleetMixParse, RejectsMalformedSpecs) {
  const auto parse = [](const std::string& spec) { (void)parse_fleet_mix(spec); };
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("lte:0.5"), std::invalid_argument);  // no devices
  EXPECT_THROW(parse("iphone:1.0"), std::invalid_argument);
  EXPECT_THROW(parse("nexus6:abc"), std::invalid_argument);
  EXPECT_THROW(parse("nexus6"), std::invalid_argument);
  EXPECT_THROW(parse("nexus6:-1"), std::invalid_argument);
  EXPECT_THROW(parse("nexus6:1,lte:1.5"), std::invalid_argument);
}

}  // namespace
}  // namespace fedsched::fleet
