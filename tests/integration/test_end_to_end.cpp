// Cross-module integration tests: profiling -> scheduling -> simulation ->
// training, exercising the same paths the bench harnesses use.

#include <gtest/gtest.h>

#include "core/fedsched.hpp"

namespace fedsched {
namespace {

TEST(Integration, ProfileScheduleSimulateBeatsEqual) {
  // Testbed II, LeNet, full MNIST scale: Fed-LBAP's simulated ground-truth
  // makespan must clearly beat the Equal baseline (the paper's headline).
  const auto phones = device::testbed(2);
  const auto users = core::build_profiles(phones, device::lenet_desc(),
                                          device::NetworkType::kWifi, 60'000);
  const auto lbap = sched::fed_lbap(users, 600, 100);
  const auto equal = sched::assign_equal(users.size(), 600, 100);

  const double t_lbap = core::simulate_epoch(phones, device::lenet_desc(),
                                             device::NetworkType::kWifi,
                                             lbap.assignment.sample_counts())
                            .makespan;
  const double t_equal = core::simulate_epoch(phones, device::lenet_desc(),
                                              device::NetworkType::kWifi,
                                              equal.sample_counts())
                             .makespan;
  EXPECT_LT(t_lbap, 0.5 * t_equal);
}

TEST(Integration, ProfiledMakespanPredictsGroundTruth) {
  // The profile-estimated makespan of the Fed-LBAP schedule should track the
  // fresh-device simulation within ~10% (profiles are measured cold too).
  const auto phones = device::testbed(1);
  const auto users = core::build_profiles(phones, device::vgg6_desc(),
                                          device::NetworkType::kWifi, 20'000);
  const auto result = sched::fed_lbap(users, 200, 100);
  const double truth = core::simulate_epoch(phones, device::vgg6_desc(),
                                            device::NetworkType::kWifi,
                                            result.assignment.sample_counts())
                           .makespan;
  EXPECT_NEAR(result.makespan_seconds / truth, 1.0, 0.10);
}

TEST(Integration, LbapReducesStragglerGap) {
  const auto phones = device::testbed(2);
  const auto users = core::build_profiles(phones, device::lenet_desc(),
                                          device::NetworkType::kWifi, 60'000);
  const auto equal = sched::assign_equal(users.size(), 600, 100);
  const auto lbap = sched::fed_lbap(users, 600, 100);
  const auto sim_equal = core::simulate_epoch(phones, device::lenet_desc(),
                                              device::NetworkType::kWifi,
                                              equal.sample_counts());
  const auto sim_lbap = core::simulate_epoch(phones, device::lenet_desc(),
                                             device::NetworkType::kWifi,
                                             lbap.assignment.sample_counts());
  EXPECT_LT(core::straggler_gap(sim_lbap.client_seconds),
            0.5 * core::straggler_gap(sim_equal.client_seconds));
}

TEST(Integration, FedLbapPartitionTrainsToHighAccuracy) {
  // Materialize a Fed-LBAP schedule on scaled synthetic MNIST and verify the
  // unbalanced IID partition learns as well as a balanced one (Fig 2's
  // message driven end-to-end through the scheduler).
  const auto phones = device::testbed(1);
  const auto users = core::build_profiles(phones, device::lenet_desc(),
                                          device::NetworkType::kWifi, 60'000);
  const auto lbap = sched::fed_lbap(users, 600, 100);

  const auto cfg = data::mnist_like();
  const auto train = data::generate_balanced(cfg, 900, 1);
  const auto test = data::generate_balanced(cfg, 300, 2);
  std::vector<double> weights;
  for (std::size_t k : lbap.assignment.shards_per_user) {
    weights.push_back(static_cast<double>(k));
  }
  common::Rng rng(3);
  const auto partition = data::partition_with_sizes_iid(
      train, data::proportional_sizes(train.size(), weights), rng);

  fl::FlConfig config;
  config.rounds = 10;
  fl::FedAvgRunner runner(train, test, nn::ModelSpec{}, device::lenet_desc(),
                          phones, device::NetworkType::kWifi, config);
  EXPECT_GT(runner.run(partition).final_accuracy, 0.9);
}

TEST(Integration, ScenarioMinAvgCoversAndTrains) {
  // S(II): Fed-MinAvg with the any-new-class bonus covers all 10 classes and
  // the resulting non-IID partition still trains to a sane accuracy.
  const auto scenario = data::scenario_s2();
  std::vector<device::PhoneModel> phones;
  for (const auto& user : scenario.users) {
    phones.push_back(device::spec_by_name(user.device_model).model);
  }
  auto users = core::build_profiles(phones, device::lenet_desc(),
                                    device::NetworkType::kWifi, 50'000);
  for (std::size_t u = 0; u < users.size(); ++u) {
    users[u].classes = scenario.users[u].classes;
  }

  sched::MinAvgConfig config;
  config.cost.alpha = 100.0;
  config.cost.beta = 2.0;
  config.cost.bonus_mode = sched::BonusMode::kAnyNewClass;
  const auto result = sched::fed_minavg(users, 500, 100, config);
  EXPECT_EQ(result.covered_classes, 10u);

  const auto cfg = data::mnist_like();
  const auto train = data::generate_balanced(cfg, 1000, 4);
  const auto test = data::generate_balanced(cfg, 300, 5);
  std::vector<double> weights;
  for (std::size_t k : result.assignment.shards_per_user) {
    weights.push_back(static_cast<double>(k));
  }
  common::Rng rng(6);
  const auto partition = data::partition_by_class_sets(
      train, scenario.class_sets(),
      data::proportional_sizes(train.size(), weights), rng);

  fl::FlConfig fl_config;
  fl_config.rounds = 10;
  fl::FedAvgRunner runner(train, test, nn::ModelSpec{}, device::lenet_desc(),
                          phones, device::NetworkType::kWifi, fl_config);
  EXPECT_GT(runner.run(partition).final_accuracy, 0.7);
}

TEST(Integration, FullExperimentIsDeterministic) {
  auto run_once = [] {
    const auto phones = device::testbed(1);
    const auto users = core::build_profiles(
        phones, device::lenet_desc(), device::NetworkType::kWifi, 10'000,
        {.anchor_sizes = {}, .measurement_noise = 0.02, .seed = 9});
    const auto lbap = sched::fed_lbap(users, 100, 100);
    const auto cfg = data::mnist_like();
    const auto train = data::generate_balanced(cfg, 300, 7);
    const auto test = data::generate_balanced(cfg, 100, 8);
    std::vector<double> weights;
    for (std::size_t k : lbap.assignment.shards_per_user) {
      weights.push_back(static_cast<double>(k));
    }
    common::Rng rng(9);
    const auto partition = data::partition_with_sizes_iid(
        train, data::proportional_sizes(train.size(), weights), rng);
    fl::FlConfig config;
    config.rounds = 3;
    fl::FedAvgRunner runner(train, test, nn::ModelSpec{}, device::lenet_desc(),
                            phones, device::NetworkType::kWifi, config);
    const auto result = runner.run(partition);
    return std::pair(result.final_accuracy, result.total_seconds);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Integration, TestbedNamesFollowPaperConvention) {
  const auto names = core::testbed_names(device::testbed(2));
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "Nexus6(a)");
  EXPECT_EQ(names[1], "Nexus6(b)");
  EXPECT_EQ(names[2], "Nexus6P(a)");
  EXPECT_EQ(names[5], "Pixel2(a)");
}

TEST(Integration, SimulateEpochHandlesIdleUsers) {
  const auto phones = device::testbed(1);
  const auto sim = core::simulate_epoch(phones, device::lenet_desc(),
                                        device::NetworkType::kWifi, {1000, 0, 500});
  EXPECT_GT(sim.client_seconds[0], 0.0);
  EXPECT_EQ(sim.client_seconds[1], 0.0);
  EXPECT_GT(sim.makespan, 0.0);
  EXPECT_THROW((void)core::simulate_epoch(phones, device::lenet_desc(),
                                          device::NetworkType::kWifi, {1000}),
               std::invalid_argument);
}

TEST(Integration, StragglerGapEdgeCases) {
  EXPECT_EQ(core::straggler_gap({}), 0.0);
  EXPECT_EQ(core::straggler_gap({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(core::straggler_gap({1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(core::straggler_gap({1.0, 3.0}), 0.5);   // max 3, mean 2
  EXPECT_DOUBLE_EQ(core::straggler_gap({0.0, 1.0, 3.0}), 0.5);  // idle ignored
}

TEST(Integration, BatteryCapacityConstrainsSchedule) {
  // At a low state of charge the battery-derived capacities bind, and
  // Fed-LBAP must respect them (possibly at a worse makespan).
  auto users = core::build_profiles(device::testbed(1), device::vgg6_desc(),
                                    device::NetworkType::kWifi, 30'000);
  const auto unconstrained = sched::fed_lbap(users, 300, 100);

  core::apply_battery_capacity(users, device::vgg6_desc(),
                               device::NetworkType::kWifi, 100,
                               /*state_of_charge=*/0.45);
  std::size_t capacity_total = 0;
  for (const auto& user : users) {
    EXPECT_LT(user.capacity_shards, 300u);  // VGG6 is expensive: budgets bind
    capacity_total += user.capacity_shards;
  }
  if (capacity_total >= 300) {
    const auto constrained = sched::fed_lbap(users, 300, 100);
    for (std::size_t u = 0; u < users.size(); ++u) {
      EXPECT_LE(constrained.assignment.shards_per_user[u], users[u].capacity_shards);
    }
    EXPECT_GE(constrained.makespan_seconds, unconstrained.makespan_seconds - 1e-9);
  } else {
    EXPECT_THROW((void)sched::fed_lbap(users, 300, 100), std::invalid_argument);
  }
}

TEST(Integration, FullChargeIsEffectivelyUnconstrainedForLeNet) {
  auto users = core::build_profiles(device::testbed(1), device::lenet_desc(),
                                    device::NetworkType::kWifi, 10'000);
  core::apply_battery_capacity(users, device::lenet_desc(),
                               device::NetworkType::kWifi, 100, 1.0);
  for (const auto& user : users) {
    // A full battery hosts far more than the 100 shards of this experiment.
    EXPECT_GT(user.capacity_shards, 100u);
  }
}

TEST(Integration, BuildProfilesSharesPerModelCampaigns) {
  // Duplicated phone models share a measurement campaign => identical models.
  const auto users = core::build_profiles(device::testbed(3), device::lenet_desc(),
                                          device::NetworkType::kWifi, 10'000);
  ASSERT_EQ(users.size(), 10u);
  EXPECT_EQ(users[0].time_model.get(), users[1].time_model.get());  // Nexus6 a/b
  EXPECT_NE(users[0].time_model.get(), users[4].time_model.get());  // vs Nexus6P
  for (const auto& user : users) {
    EXPECT_GT(user.comm_seconds, 0.0);
    EXPECT_GT(user.epoch_seconds(1000), 0.0);
  }
}

}  // namespace
}  // namespace fedsched
