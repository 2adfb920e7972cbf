#include "fleet/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/stopwatch.hpp"
#include "sched/bucketed.hpp"
#include "sched/minenergy.hpp"
#include "sched/olar.hpp"

namespace fedsched::fleet {

namespace {

// Positions in planner_names().
enum Planner : std::size_t { kFedLbap, kFedMinAvg, kOlar, kMinEnergy };

std::size_t planner_index(const std::string& policy) {
  const std::vector<std::string>& names = planner_names();
  const auto it = std::find(names.begin(), names.end(), policy);
  if (it == names.end()) {
    std::string known;
    for (const std::string& name : names) known += (known.empty() ? "" : "|") + name;
    throw std::invalid_argument("fleet::Session: unknown policy '" + policy +
                                "' (expected " + known + ")");
  }
  return static_cast<std::size_t>(it - names.begin());
}

DynamicsConfig with_floor(DynamicsConfig config, double battery_floor_soc) {
  config.battery_floor_soc = battery_floor_soc;
  return config;
}

FleetState generate(const FleetGenerator& generator, std::size_t n,
                    obs::TraceWriter* trace, const Session::Restore& restore) {
  FleetState state = generator.generate(n, trace);
  if (restore) restore(state);
  return state;
}

}  // namespace

const std::vector<std::string>& planner_names() {
  static const std::vector<std::string> kNames = {"fed-lbap", "fed-minavg", "olar",
                                                  "minenergy"};
  return kNames;
}

Session::Session(SessionConfig config, obs::TraceWriter* trace,
                 const Restore& restore)
    : config_(std::move(config)),
      planner_(planner_index(config_.policy)),
      generator_(std::make_unique<const FleetGenerator>(config_.mix, config_.model,
                                                        config_.sim.seed)),
      dynamics_(with_floor(config_.dynamics, config_.sim.battery_floor_soc),
                generator_.get()),
      sim_(generate(*generator_, config_.fleet_size, trace, restore), config_.sim) {}

SessionRound Session::step(std::size_t round, obs::TraceWriter* trace,
                           obs::MetricsRegistry* metrics) {
  // Replan every round: battery deaths, churn and availability windows
  // reshape the schedulable fleet (and joins grow it).
  const sched::LinearCosts costs =
      dynamic_linear_costs(sim_.state(), config_.sim.shard_size, dynamics_,
                           config_.sim.battery_floor_soc);
  const std::size_t total = config_.total_shards;
  SessionRound out;
  sched::Assignment plan;
  common::Stopwatch plan_watch;
  switch (planner_) {
    case kFedLbap: {
      auto planned = sched::fed_lbap_bucketed(costs, total, config_.buckets, trace);
      out.bound_s = planned.threshold_seconds;
      plan = std::move(planned.assignment);
      break;
    }
    case kFedMinAvg: {
      auto planned = sched::fed_minavg_bucketed(costs, total, config_.buckets, trace);
      out.bound_s = planned.makespan_seconds;
      plan = std::move(planned.assignment);
      break;
    }
    case kOlar: {
      auto planned = sched::olar(costs, total, trace);
      out.bound_s = planned.makespan_seconds;
      plan = std::move(planned.assignment);
      break;
    }
    case kMinEnergy: {
      auto planned = sched::fed_minenergy(costs, total, {}, trace);
      out.bound_s = planned.makespan_seconds;
      plan = std::move(planned.assignment);
    }
  }
  out.plan_s = plan_watch.seconds();
  out.result = sim_.run_round(plan.shards_per_user, round, trace, &dynamics_, metrics);
  return out;
}

}  // namespace fedsched::fleet
