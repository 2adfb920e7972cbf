// Property / fuzz tests for HealthTracker: randomized but seeded event
// sequences, with the documented invariants asserted after every round.
// The generators only produce observations the runners can produce (a
// non-participant never reports a fault; measured time is positive), so a
// violation here is a tracker bug, not a fixture artifact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "fl/health/health.hpp"

namespace fedsched::fl::health {
namespace {

constexpr std::size_t kClients = 6;
constexpr std::size_t kRounds = 200;

struct ClientShadow {
  // Extremes of every measured/predicted ratio this client completed with.
  double min_ratio = std::numeric_limits<double>::infinity();
  double max_ratio = -std::numeric_limits<double>::infinity();
  bool any_ratio = false;
  // Bench length granted at each healthy->probation transition, in order.
  std::vector<std::size_t> bench_lengths;
  bool saw_battery_death = false;
};

// One fuzzed fleet round. Participation, faults, timings, and battery levels
// are all drawn from `rng`; the shadow model records what the invariants need.
// Mirrors the runners: only clients the tracker deems eligible hold shards,
// so benched / excluded clients never report participation.
std::vector<HealthTracker::Observation> random_round(common::Rng& rng,
                                                     const HealthTracker& tracker,
                                                     std::vector<ClientShadow>& shadow) {
  std::vector<HealthTracker::Observation> obs(kClients);
  for (std::size_t u = 0; u < kClients; ++u) {
    HealthTracker::Observation& o = obs[u];
    o.participated = rng.bernoulli(0.8) && tracker.eligible(u);
    if (rng.bernoulli(0.5)) o.soc = rng.uniform(0.0, 1.0);
    if (!o.participated) continue;
    o.predicted_s = rng.uniform(5.0, 50.0);
    const double ratio = rng.uniform(0.3, 4.0);
    o.measured_s = o.predicted_s * ratio;
    o.retries = static_cast<std::size_t>(rng.uniform_int(3));
    const double die = rng.uniform();
    if (die < 0.55) {
      o.completed = true;
      o.fault = FaultKind::kNone;
      shadow[u].min_ratio = std::min(shadow[u].min_ratio, ratio);
      shadow[u].max_ratio = std::max(shadow[u].max_ratio, ratio);
      shadow[u].any_ratio = true;
    } else if (die < 0.70) {
      o.fault = FaultKind::kCrash;
    } else if (die < 0.85) {
      o.fault = FaultKind::kRetriesExhausted;
    } else if (die < 0.97) {
      o.fault = FaultKind::kDeadlineMiss;
    } else {
      o.fault = FaultKind::kBatteryDead;
      shadow[u].saw_battery_death = true;
    }
  }
  return obs;
}

void check_invariants(const HealthTracker& tracker,
                      const std::vector<ClientShadow>& shadow,
                      std::uint64_t seed, std::size_t round) {
  const HealthConfig& cfg = tracker.config();
  for (std::size_t u = 0; u < kClients; ++u) {
    const ClientHealth& c = tracker.client(u);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round << " client " << u);

    // The speed EWMA is a convex combination of observed ratios, so it can
    // never escape the extremes of what was actually measured.
    if (c.has_observation) {
      ASSERT_TRUE(shadow[u].any_ratio);
      EXPECT_GE(c.speed_ewma, shadow[u].min_ratio - 1e-12);
      EXPECT_LE(c.speed_ewma, shadow[u].max_ratio + 1e-12);
    } else {
      EXPECT_EQ(c.speed_ewma, 1.0);
    }

    // Probation backoff is monotone non-decreasing and capped: each bench is
    // at least as long as the previous one, never past probation_max_rounds.
    for (std::size_t k = 0; k < shadow[u].bench_lengths.size(); ++k) {
      const std::size_t bench = shadow[u].bench_lengths[k];
      EXPECT_GE(bench, cfg.probation_rounds);
      EXPECT_LE(bench, cfg.probation_max_rounds);
      if (k > 0) {
        EXPECT_GE(bench, shadow[u].bench_lengths[k - 1]);
      }
    }
    EXPECT_LE(c.probation_remaining, cfg.probation_max_rounds);
    if (c.status != ClientStatus::kProbation) {
      EXPECT_EQ(c.probation_remaining, 0u);
    }

    // Permanent exclusions only via the documented transitions.
    if (c.status == ClientStatus::kBlacklisted) {
      EXPECT_GE(c.total_faults, cfg.blacklist_faults);
    }
    if (c.status == ClientStatus::kDead) {
      EXPECT_TRUE(shadow[u].saw_battery_death);
    }
    if (c.status != ClientStatus::kHealthy) {
      EXPECT_FALSE(tracker.eligible(u));
    }

    // The scheduler-facing multiplier is floored, never zero or negative.
    EXPECT_GE(tracker.cost_multiplier(u), 0.05);
  }
}

// Permanent states must be absorbing: once a client is blacklisted or dead,
// no later observation may resurrect it.
void check_absorbing(const std::vector<ClientHealth>& before,
                     const HealthTracker& tracker) {
  for (std::size_t u = 0; u < kClients; ++u) {
    if (before[u].status == ClientStatus::kBlacklisted ||
        before[u].status == ClientStatus::kDead) {
      EXPECT_EQ(tracker.client(u).status, before[u].status) << "client " << u;
    }
  }
}

// Detect healthy->probation transitions so the shadow can record the granted
// bench length (probation_remaining at the moment of benching).
void record_benchings(const std::vector<ClientHealth>& before,
                      const HealthTracker& tracker,
                      std::vector<ClientShadow>& shadow) {
  for (std::size_t u = 0; u < kClients; ++u) {
    const ClientHealth& now = tracker.client(u);
    if (before[u].status != ClientStatus::kProbation &&
        now.status == ClientStatus::kProbation) {
      shadow[u].bench_lengths.push_back(now.probation_remaining);
    }
  }
}

void expect_bitwise_equal(const ClientHealth& a, const ClientHealth& b,
                          std::size_t u) {
  // memcmp-style equality on the floating-point fields: bit patterns, not
  // approximate values, because checkpoints round-trip these verbatim.
  EXPECT_EQ(std::memcmp(&a.speed_ewma, &b.speed_ewma, sizeof(double)), 0)
      << "client " << u;
  EXPECT_EQ(std::memcmp(&a.soc, &b.soc, sizeof(double)), 0) << "client " << u;
  EXPECT_EQ(std::memcmp(&a.soc_drop_ewma, &b.soc_drop_ewma, sizeof(double)), 0)
      << "client " << u;
  EXPECT_EQ(a.status, b.status) << "client " << u;
  EXPECT_EQ(a.has_observation, b.has_observation) << "client " << u;
  EXPECT_EQ(a.fault_streak, b.fault_streak) << "client " << u;
  EXPECT_EQ(a.total_faults, b.total_faults) << "client " << u;
  EXPECT_EQ(a.total_retries, b.total_retries) << "client " << u;
  EXPECT_EQ(a.probations, b.probations) << "client " << u;
  EXPECT_EQ(a.probation_remaining, b.probation_remaining) << "client " << u;
  EXPECT_EQ(a.reassigned_shards, b.reassigned_shards) << "client " << u;
}

TEST(HealthPropertyFuzz, InvariantsHoldOverRandomRoundSequences) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    common::Rng rng(seed * 7919);
    HealthTracker tracker(HealthConfig{}, kClients);
    std::vector<ClientShadow> shadow(kClients);
    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::vector<ClientHealth> before = tracker.all();
      tracker.observe_round(random_round(rng, tracker, shadow));
      record_benchings(before, tracker, shadow);
      check_absorbing(before, tracker);
      check_invariants(tracker, shadow, seed, round);
      if (rng.bernoulli(0.1)) tracker.note_replan(round);
    }
  }
}

TEST(HealthPropertyFuzz, SnapshotRestoreSnapshotBitwiseStable) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    common::Rng rng(seed * 31337);
    HealthTracker tracker(HealthConfig{}, kClients);
    std::vector<ClientShadow> shadow(kClients);
    for (std::size_t round = 0; round < 64; ++round) {
      tracker.observe_round(random_round(rng, tracker, shadow));
      if (round == 20) tracker.note_replan(round);
      if (round == 33) tracker.add_reassigned(1, 3);
    }

    const HealthTracker::Snapshot first = tracker.snapshot();
    HealthTracker restored(HealthConfig{}, kClients);
    restored.restore(first);
    const HealthTracker::Snapshot second = restored.snapshot();

    ASSERT_EQ(first.clients.size(), second.clients.size());
    for (std::size_t u = 0; u < first.clients.size(); ++u) {
      expect_bitwise_equal(first.clients[u], second.clients[u], u);
    }
    ASSERT_EQ(first.planned_multiplier.size(), second.planned_multiplier.size());
    for (std::size_t u = 0; u < first.planned_multiplier.size(); ++u) {
      EXPECT_EQ(std::memcmp(&first.planned_multiplier[u],
                            &second.planned_multiplier[u], sizeof(double)),
                0)
          << "client " << u;
    }
    EXPECT_EQ(first.last_plan_round, second.last_plan_round);
    EXPECT_EQ(first.has_plan, second.has_plan);
    EXPECT_EQ(first.status_dirty, second.status_dirty);

    // The restored tracker must keep evolving in lockstep with the original.
    for (std::size_t round = 0; round < 32; ++round) {
      common::Rng fork_a = rng.fork(round);
      common::Rng fork_b = rng.fork(round);
      std::vector<ClientShadow> sa(kClients), sb(kClients);
      tracker.observe_round(random_round(fork_a, tracker, sa));
      restored.observe_round(random_round(fork_b, restored, sb));
      for (std::size_t u = 0; u < kClients; ++u) {
        expect_bitwise_equal(tracker.client(u), restored.client(u), u);
      }
    }
  }
}

}  // namespace
}  // namespace fedsched::fl::health
