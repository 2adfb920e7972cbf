// Parameterized device-simulator invariants over every (phone, model) pair.

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "device/battery.hpp"
#include "device/device.hpp"
#include "profile/profiler.hpp"

namespace fedsched::device {

// gtest prints a pointer parameter as its address, which moves with every
// process, into the ctest names; print the model's name instead. Declared in
// ModelDesc's namespace (not the unnamed one) so gtest finds it by ADL.
static void PrintTo(const ModelDesc* desc, std::ostream* os) { *os << desc->name; }

namespace {

class PhoneModelPairs
    : public ::testing::TestWithParam<std::tuple<PhoneModel, const ModelDesc*>> {
 protected:
  [[nodiscard]] PhoneModel phone() const { return std::get<0>(GetParam()); }
  [[nodiscard]] const ModelDesc& model() const { return *std::get<1>(GetParam()); }
};

TEST_P(PhoneModelPairs, TimeIsMonotoneAndSuperadditive) {
  // More samples never take less time, and splitting a workload across two
  // cold sessions never takes longer than one continuous hot session.
  Device dev(phone());
  double prev = 0.0;
  for (std::size_t samples : {200u, 500u, 1000u, 2000u, 4000u}) {
    dev.reset();
    const double t = dev.train(model(), samples);
    EXPECT_GT(t, prev);
    prev = t;
  }

  Device cold_a(phone()), cold_b(phone()), continuous(phone());
  const double split = cold_a.train(model(), 2000) + cold_b.train(model(), 2000);
  const double joint = continuous.train(model(), 4000);
  EXPECT_GE(joint, split - 1e-9);
}

TEST_P(PhoneModelPairs, SpeedNeverExceedsColdAndNeverBelowFloor) {
  Device dev(phone());
  std::vector<TracePoint> trace;
  (void)dev.train_traced(model(), 5000, 2.0, trace);
  for (const TracePoint& point : trace) {
    EXPECT_LE(point.speed, 1.0 + 1e-12);
    EXPECT_GE(point.speed, spec_of(phone()).thermal.speed_floor - 1e-12);
    EXPECT_GE(point.temp_c, spec_of(phone()).thermal.ambient_c - 1e-9);
  }
}

TEST_P(PhoneModelPairs, IdleRecoversColdPerformance) {
  Device dev(phone());
  const double cold = dev.train(model(), 500);
  (void)dev.train(model(), 6000);  // heat up
  dev.idle(7200.0);                 // two hours of cooling
  const double recovered = dev.train(model(), 500);
  EXPECT_NEAR(recovered / cold, 1.0, 0.02);
}

TEST_P(PhoneModelPairs, EnergyScalesWithWork) {
  const double e1 = training_energy_wh(phone(), model(), 1000);
  const double e2 = training_energy_wh(phone(), model(), 2000);
  EXPECT_GT(e1, 0.0);
  // At least linear growth (throttling can only add energy via static power).
  EXPECT_GE(e2, 2.0 * e1 * 0.999);
}

TEST_P(PhoneModelPairs, MeasuredProfileTracksGroundTruth) {
  const auto profile =
      profile::measure_profile(phone(), model(), {500, 1000, 2000, 4000, 6000});
  for (std::size_t samples : {750u, 1500u, 3000u, 5000u}) {
    Device dev(phone());
    const double truth = dev.train(model(), samples);
    EXPECT_NEAR(profile.epoch_seconds(samples) / truth, 1.0, 0.12)
        << spec_of(phone()).name << " " << model().name << " @ " << samples;
  }
}

TEST_P(PhoneModelPairs, CommIndependentOfThermalState) {
  Device dev(phone());
  const double cold_comm = dev.comm_seconds(model());
  (void)dev.train(model(), 4000);
  EXPECT_DOUBLE_EQ(dev.comm_seconds(model()), cold_comm);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PhoneModelPairs,
    ::testing::Combine(::testing::ValuesIn(kAllPhoneModels),
                       ::testing::Values(&lenet_desc(), &vgg6_desc())),
    [](const auto& info) {
      return std::string(model_name(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param)->name;
    });

}  // namespace
}  // namespace fedsched::device
