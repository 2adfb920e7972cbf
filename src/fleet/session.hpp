#pragma once
// The fleet round driver: one seeded fleet, replanned and simulated one
// round at a time. `fedsched_cli fleet`, the coordinator's fleet runs
// (coord/fleet_job.hpp) and the fleet benches all step a Session, so the
// same config plans the same rounds and writes the same trace bytes
// wherever it runs.
//
// A round builds the scheduler's cost view with dynamic_linear_costs (a
// disabled dynamics layer gives the static view), plans it with the named
// planner (which emits its sched_* trace event), then simulates it with
// FleetSimulator::run_round (which emits fleet_round). One floor,
// `sim.battery_floor_soc`, sets the simulator's death rule, the cost view's
// battery budgets and the dynamics layer's revival rule.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "device/model_desc.hpp"
#include "fleet/dynamics.hpp"
#include "fleet/event_sim.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedsched::fleet {

/// The policies a Session plans with: fed-lbap and fed-minavg over
/// SessionConfig::buckets cost buckets, olar (exact makespan-optimal
/// greedy) and minenergy (least energy under a makespan cap and battery
/// budgets).
[[nodiscard]] const std::vector<std::string>& planner_names();

struct SessionConfig {
  FleetMix mix;
  device::ModelDesc model = device::lenet_desc();
  std::size_t fleet_size = 10'000;
  /// Shards planned every round.
  std::size_t total_shards = 20'000;
  std::string policy = "fed-lbap";
  std::size_t buckets = 64;
  /// `sim.seed` also seeds the generator.
  FleetSimConfig sim;
  /// Disabled (the default) is a static fleet. Its battery_floor_soc is
  /// replaced by `sim.battery_floor_soc`.
  DynamicsConfig dynamics;
};

struct SessionRound {
  FleetRoundResult result;
  /// Fed-LBAP's threshold; the plan's makespan for the other planners.
  double bound_s = 0.0;
  /// Host seconds spent in the planner.
  double plan_s = 0.0;
};

class Session {
 public:
  /// Edits the generated fleet before the simulator takes it (a checkpoint
  /// restore overlays its stored columns here).
  using Restore = std::function<void(FleetState&)>;

  /// Generates the fleet, emitting fleet_generate to `trace`. Throws
  /// std::invalid_argument for a policy outside planner_names() before
  /// generating anything.
  explicit Session(SessionConfig config, obs::TraceWriter* trace = nullptr,
                   const Restore& restore = {});

  /// Plan and simulate round `round`.
  SessionRound step(std::size_t round, obs::TraceWriter* trace = nullptr,
                    obs::MetricsRegistry* metrics = nullptr);

  [[nodiscard]] const FleetState& state() const noexcept { return sim_.state(); }

 private:
  SessionConfig config_;
  std::size_t planner_;  // index into planner_names()
  // Heap-held so the dynamics layer's pointer to it survives a move.
  std::unique_ptr<const FleetGenerator> generator_;
  ClientDynamics dynamics_;
  FleetSimulator sim_;
};

}  // namespace fedsched::fleet
