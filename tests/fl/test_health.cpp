// HealthTracker's contract: the speed EWMA matches the hand-computed
// recurrence, the probation/blacklist state machine follows the configured
// thresholds with exponential backoff, replan_due fires exactly on status
// changes or threshold-crossing drift (never inside the cooldown window), and
// snapshot/restore reproduces every decision bit-for-bit.

#include "fl/health/health.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace fedsched::fl::health {
namespace {

HealthTracker::Observation completed(double predicted_s, double measured_s) {
  HealthTracker::Observation obs;
  obs.participated = true;
  obs.predicted_s = predicted_s;
  obs.measured_s = measured_s;
  obs.completed = true;
  return obs;
}

HealthTracker::Observation faulted(FaultKind kind = FaultKind::kCrash) {
  HealthTracker::Observation obs;
  obs.participated = true;
  obs.fault = kind;
  obs.completed = false;
  return obs;
}

HealthTracker::Observation idle() { return {}; }

TEST(HealthConfig, ValidateRejectsBadParameters) {
  HealthConfig bad;
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.ewma_alpha = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.drift_threshold = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.probation_streak = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(HealthConfig{}.validate());
}

TEST(HealthTracker, EwmaMatchesHandComputedRecurrence) {
  HealthConfig config;
  config.ewma_alpha = 0.3;
  HealthTracker tracker(config, 1);
  EXPECT_EQ(tracker.client(0).speed_ewma, 1.0);
  EXPECT_FALSE(tracker.client(0).has_observation);

  // First observation snaps to the raw ratio (no blend with the 1.0 prior).
  tracker.observe_round({completed(10.0, 14.0)});
  EXPECT_DOUBLE_EQ(tracker.client(0).speed_ewma, 1.4);
  EXPECT_TRUE(tracker.client(0).has_observation);

  // Second blends: (1 - 0.3) * 1.4 + 0.3 * (8 / 10) = 0.98 + 0.24 = 1.22.
  tracker.observe_round({completed(10.0, 8.0)});
  EXPECT_DOUBLE_EQ(tracker.client(0).speed_ewma, 0.7 * 1.4 + 0.3 * 0.8);

  // Non-positive predictions must not poison the EWMA.
  const double before = tracker.client(0).speed_ewma;
  tracker.observe_round({completed(0.0, 5.0)});
  EXPECT_DOUBLE_EQ(tracker.client(0).speed_ewma, before);
}

TEST(HealthTracker, CostMultiplierFloorsCorruptObservations) {
  HealthTracker tracker({}, 1);
  tracker.observe_round({completed(1000.0, 1e-9)});
  EXPECT_DOUBLE_EQ(tracker.cost_multiplier(0), 0.05);
}

TEST(HealthTracker, ProbationAfterStreakWithExponentialBackoff) {
  HealthConfig config;
  config.probation_streak = 2;
  config.probation_rounds = 2;
  config.probation_max_rounds = 8;
  config.blacklist_faults = 100;  // keep the blacklist out of this test
  HealthTracker tracker(config, 1);

  tracker.observe_round({faulted()});
  EXPECT_EQ(tracker.client(0).status, ClientStatus::kHealthy);
  tracker.observe_round({faulted()});
  ASSERT_EQ(tracker.client(0).status, ClientStatus::kProbation);
  EXPECT_EQ(tracker.client(0).probations, 1u);
  EXPECT_EQ(tracker.client(0).probation_remaining, 2u);
  EXPECT_FALSE(tracker.eligible(0));

  // The bench clock ticks on idle rounds; the client rejoins healthy with a
  // cleared streak.
  tracker.observe_round({idle()});
  EXPECT_EQ(tracker.client(0).probation_remaining, 1u);
  tracker.observe_round({idle()});
  EXPECT_EQ(tracker.client(0).status, ClientStatus::kHealthy);
  EXPECT_EQ(tracker.client(0).fault_streak, 0u);
  EXPECT_TRUE(tracker.eligible(0));

  // Second bench doubles: 2 -> 4 rounds.
  tracker.observe_round({faulted()});
  tracker.observe_round({faulted()});
  ASSERT_EQ(tracker.client(0).status, ClientStatus::kProbation);
  EXPECT_EQ(tracker.client(0).probations, 2u);
  EXPECT_EQ(tracker.client(0).probation_remaining, 4u);
}

TEST(HealthTracker, ProbationLengthCapped) {
  HealthConfig config;
  config.probation_streak = 1;
  config.probation_rounds = 2;
  config.probation_max_rounds = 5;
  config.blacklist_faults = 100;
  HealthTracker tracker(config, 1);

  // Benches of 2, 4, then capped at 5 (not 8).
  tracker.observe_round({faulted()});
  EXPECT_EQ(tracker.client(0).probation_remaining, 2u);
  tracker.observe_round({idle()});
  tracker.observe_round({idle()});
  tracker.observe_round({faulted()});
  EXPECT_EQ(tracker.client(0).probation_remaining, 4u);
  for (int i = 0; i < 4; ++i) tracker.observe_round({idle()});
  tracker.observe_round({faulted()});
  EXPECT_EQ(tracker.client(0).probation_remaining, 5u);
}

TEST(HealthTracker, BlacklistAtCumulativeFaults) {
  HealthConfig config;
  config.probation_streak = 100;  // never bench; isolate the blacklist
  config.blacklist_faults = 3;
  HealthTracker tracker(config, 2);

  tracker.observe_round({faulted(), completed(10.0, 10.0)});
  tracker.observe_round({faulted(), completed(10.0, 10.0)});
  EXPECT_EQ(tracker.client(0).status, ClientStatus::kHealthy);
  tracker.observe_round({faulted(), completed(10.0, 10.0)});
  EXPECT_EQ(tracker.client(0).status, ClientStatus::kBlacklisted);
  EXPECT_FALSE(tracker.eligible(0));
  EXPECT_TRUE(tracker.eligible(1));
  EXPECT_EQ(tracker.eligible_count(), 1u);

  // Blacklist is permanent: completed rounds do not resurrect the client.
  tracker.observe_round({completed(10.0, 10.0), completed(10.0, 10.0)});
  EXPECT_EQ(tracker.client(0).status, ClientStatus::kBlacklisted);
}

TEST(HealthTracker, BatteryDeathIsPermanent) {
  HealthTracker tracker({}, 1);
  tracker.observe_round({faulted(FaultKind::kBatteryDead)});
  EXPECT_EQ(tracker.client(0).status, ClientStatus::kDead);
  EXPECT_FALSE(tracker.eligible(0));
  tracker.observe_round({completed(10.0, 10.0)});
  EXPECT_EQ(tracker.client(0).status, ClientStatus::kDead);
}

TEST(HealthTracker, BatteryProjectionBenchesRiskyClients) {
  HealthConfig config;
  config.battery_horizon_rounds = 2.0;
  config.battery_floor_soc = 0.05;
  HealthTracker tracker(config, 1);

  auto with_soc = [](double soc) {
    HealthTracker::Observation obs = completed(10.0, 10.0);
    obs.soc = soc;
    return obs;
  };
  tracker.observe_round({with_soc(0.90)});
  EXPECT_TRUE(tracker.eligible(0));
  // Drop EWMA after a 0.6 fall: 0.3 * 0.6 = 0.18/round. Projection
  // 0.30 - 2 * 0.18 = -0.06 is below the floor -> benched from scheduling.
  tracker.observe_round({with_soc(0.30)});
  EXPECT_FALSE(tracker.eligible(0));
  // Still healthy — projection gates eligibility without a status change.
  EXPECT_EQ(tracker.client(0).status, ClientStatus::kHealthy);
}

TEST(HealthTracker, ReplanDueOnStatusChangeAndDriftOnly) {
  HealthConfig config;
  config.drift_threshold = 0.25;
  config.replan_cooldown_rounds = 2;
  config.probation_streak = 1;
  HealthTracker tracker(config, 2);
  tracker.note_replan(0);  // plan built at round 0, multipliers 1.0

  // On-profile rounds: nothing to replan.
  tracker.observe_round({completed(10.0, 10.0), completed(10.0, 10.0)});
  EXPECT_FALSE(tracker.replan_due(1));

  // 10% drift is under the threshold.
  tracker.observe_round({completed(10.0, 13.0), completed(10.0, 10.0)});
  EXPECT_FALSE(tracker.replan_due(2));

  // Push client 0 past 25% drift...
  tracker.observe_round({completed(10.0, 20.0), completed(10.0, 10.0)});
  EXPECT_TRUE(tracker.replan_due(3));
  // ...but the same state inside the cooldown window stays quiet.
  EXPECT_FALSE(tracker.replan_due(1));

  // note_replan resets the drift baseline: the stretched client is now *on*
  // plan, so the same multiplier no longer retriggers.
  tracker.note_replan(3);
  EXPECT_FALSE(tracker.replan_due(5));

  // A status change (bench) is a trigger regardless of drift.
  tracker.observe_round({completed(10.0, 10.0), faulted()});
  EXPECT_TRUE(tracker.replan_due(5));
}

TEST(HealthTracker, SnapshotRestoreRoundTrips) {
  HealthConfig config;
  config.probation_streak = 2;
  HealthTracker tracker(config, 3);
  tracker.note_replan(0);
  tracker.observe_round(
      {completed(10.0, 17.0), faulted(), completed(10.0, 9.0)});
  tracker.observe_round({completed(10.0, 17.0), faulted(), idle()});
  tracker.add_reassigned(1, 4);

  const HealthTracker::Snapshot snap = tracker.snapshot();
  HealthTracker restored(config, 3);
  restored.restore(snap);

  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(restored.client(u).status, tracker.client(u).status) << u;
    EXPECT_EQ(restored.client(u).speed_ewma, tracker.client(u).speed_ewma) << u;
    EXPECT_EQ(restored.client(u).fault_streak, tracker.client(u).fault_streak);
    EXPECT_EQ(restored.client(u).probation_remaining,
              tracker.client(u).probation_remaining);
    EXPECT_EQ(restored.client(u).reassigned_shards,
              tracker.client(u).reassigned_shards);
    EXPECT_EQ(restored.eligible(u), tracker.eligible(u)) << u;
    EXPECT_EQ(restored.cost_multiplier(u), tracker.cost_multiplier(u)) << u;
  }
  EXPECT_EQ(restored.replan_due(5), tracker.replan_due(5));
  EXPECT_EQ(restored.eligible_count(), tracker.eligible_count());
}

}  // namespace
}  // namespace fedsched::fl::health
