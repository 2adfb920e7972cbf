#pragma once
// Test-only oracle: the round loop `fedsched_cli fleet` ran before the
// fleet::Session driver (fleet/session.hpp) replaced it. It builds the
// generator, the dynamics layer and the simulator itself, then per round
// picks the cost view by whether the layer is enabled, dispatches on the
// policy string and passes the layer to run_round only when it is enabled.
// tests/fleet/test_session.cpp compares the driver's trace bytes, metrics
// and every round result field against it.

#include <string>
#include <utility>
#include <vector>

#include "fleet/dynamics.hpp"
#include "fleet/event_sim.hpp"
#include "fleet/fleet.hpp"
#include "fleet/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/bucketed.hpp"
#include "sched/minenergy.hpp"
#include "sched/olar.hpp"

namespace fedsched::fleet::oracle {

struct CliRound {
  FleetRoundResult result;
  double threshold_s = 0.0;  // the CLI table's threshold_s column
};

struct CliRun {
  std::vector<CliRound> rounds;
  FleetState final_state;
};

/// The CLI's loop over `config`'s fields, read as its flags were: one seed
/// for the generator and the simulator, one floor for the simulator, the
/// cost view and the dynamics layer.
inline CliRun cli_loop(const SessionConfig& session, std::size_t rounds,
                       obs::TraceWriter* trace, obs::MetricsRegistry* metrics) {
  const FleetSimConfig& config = session.sim;
  const std::size_t shard = config.shard_size;
  const std::string& policy = session.policy;
  DynamicsConfig dyn_config = session.dynamics;
  dyn_config.battery_floor_soc = config.battery_floor_soc;

  const FleetGenerator generator(session.mix, session.model, config.seed);
  ClientDynamics dynamics(dyn_config, &generator);
  FleetSimulator sim(generator.generate(session.fleet_size, trace), config);

  CliRun run;
  for (std::size_t round = 0; round < rounds; ++round) {
    const sched::LinearCosts costs =
        dynamics.enabled()
            ? dynamic_linear_costs(sim.state(), shard, dynamics,
                                   config.battery_floor_soc)
            : linear_costs(sim.state(), shard, config.battery_floor_soc);
    sched::Assignment plan;
    double threshold = 0.0;
    if (policy == "fed-lbap") {
      auto planned = sched::fed_lbap_bucketed(costs, session.total_shards,
                                              session.buckets, trace);
      threshold = planned.threshold_seconds;
      plan = std::move(planned.assignment);
    } else if (policy == "fed-minavg") {
      auto planned = sched::fed_minavg_bucketed(costs, session.total_shards,
                                                session.buckets, trace);
      threshold = planned.makespan_seconds;
      plan = std::move(planned.assignment);
    } else if (policy == "olar") {
      auto planned = sched::olar(costs, session.total_shards, trace);
      threshold = planned.makespan_seconds;
      plan = std::move(planned.assignment);
    } else {
      auto planned = sched::fed_minenergy(costs, session.total_shards, {}, trace);
      threshold = planned.makespan_seconds;
      plan = std::move(planned.assignment);
    }
    run.rounds.push_back(
        {sim.run_round(plan.shards_per_user, round, trace,
                       dynamics.enabled() ? &dynamics : nullptr, metrics),
         threshold});
  }
  run.final_state = sim.state();
  return run;
}

}  // namespace fedsched::fleet::oracle
