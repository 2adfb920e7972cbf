// Scenario matrix — every scheduler crossed with every client-dynamics
// scenario (static, churn, diurnal, charge-gated, net-flap).
//
// Per cell: generate the same seeded fleet, attach the scenario's dynamics
// layer, replan every round with the cell's scheduler over the
// dynamics-masked costs, and run the discrete-event round. Reported per
// cell: summed makespan, total simulated energy, battery deaths, dropped
// shards (planned minus survivor shards), and planning throughput.
//
// Acceptance (exit non-zero on violation), on the charge-gated scenario:
// fed_minenergy must spend strictly less total energy than fed_lbap while
// staying within 1.5x of fed_lbap's summed makespan — the energy-aware
// scheduler has to buy its savings without wrecking round latency.
//
// Outputs:  bench_out/scenario_matrix.csv     (table)
//           bench_out/scenario_matrix.jsonl   (one event per cell)
//           bench_out/BENCH_scenarios.json    (summary document)
// The committed BENCH_scenarios.json at the repo root is a snapshot of the
// default run on the reference container.

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "fleet/session.hpp"

using namespace fedsched;

namespace {

constexpr std::uint64_t kSeed = 0x5ce7a810ULL;

struct CellResult {
  std::string policy;
  std::string scenario;
  double plan_s = 0.0;
  double plan_throughput = 0.0;  // clients*shards per planning second
  double makespan_s = 0.0;       // summed over rounds
  double energy_wh = 0.0;
  std::size_t completed = 0;
  std::size_t battery_deaths = 0;
  std::size_t dropped_shards = 0;  // planned minus survivor shards
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t charge_edges = 0;
  std::size_t net_switches = 0;
  std::size_t revivals = 0;
};

CellResult run_cell(const std::string& policy, const std::string& scenario,
                    std::size_t clients, std::size_t rounds) {
  CellResult r;
  r.policy = policy;
  r.scenario = scenario;

  // State-of-charge tail dipping below the 0.05 death floor: time-optimal
  // schedulers still assign those clients (they only see seconds) and kill
  // them on first contact, while fed_minenergy's battery budgets exclude
  // them — the deaths column is the visible difference.
  fleet::SessionConfig config;
  config.mix.lte_fraction = 0.3;
  config.mix.soc_min = 0.04;
  config.mix.capacity_shards = 16;
  config.fleet_size = clients;
  config.total_shards = 2 * clients;
  config.policy = policy;
  config.sim.dropout_prob = 0.05;
  config.sim.parallelism = 0;
  config.sim.seed = kSeed;
  config.dynamics = fleet::scenario_config(scenario, kSeed ^ 0x64796e616d696373ULL);
  fleet::Session session(config);

  for (std::size_t round = 0; round < rounds; ++round) {
    const fleet::SessionRound step = session.step(round);
    const fleet::FleetRoundResult& round_result = step.result;
    r.plan_s += step.plan_s;
    r.makespan_s += round_result.makespan_s;
    r.energy_wh += round_result.energy_wh;
    r.completed += round_result.completed;
    r.battery_deaths += round_result.battery_deaths;
    // Every planner places all of total_shards or throws.
    r.dropped_shards += config.total_shards - round_result.survivor_shards;
    r.joins += round_result.joins;
    r.leaves += round_result.leaves;
    r.charge_edges += round_result.charge_edges;
    r.net_switches += round_result.net_switches;
    r.revivals += round_result.revivals;
  }
  r.plan_throughput = static_cast<double>(clients) *
                      static_cast<double>(config.total_shards) *
                      static_cast<double>(rounds) / r.plan_s;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::full_scale(argc, argv);
  const std::size_t clients = full ? 50'000 : 5'000;
  const std::size_t rounds = full ? 6 : 3;

  common::Table table({"policy", "scenario", "plan_s", "makespan_s",
                       "energy_wh", "completed", "deaths", "dropped_shards"});
  table.set_precision(3);
  obs::TraceWriter jsonl = bench::jsonl_writer("scenario_matrix");
  std::string cells_json;
  std::vector<CellResult> cells;
  double min_throughput = std::numeric_limits<double>::infinity();
  for (const std::string& policy : fleet::planner_names()) {
    for (const std::string& scenario : fleet::scenario_names()) {
      cells.push_back(run_cell(policy, scenario, clients, rounds));
      const CellResult& r = cells.back();
      min_throughput = std::min(min_throughput, r.plan_throughput);
      table.add_row({r.policy, r.scenario, r.plan_s, r.makespan_s, r.energy_wh,
                     static_cast<long long>(r.completed),
                     static_cast<long long>(r.battery_deaths),
                     static_cast<long long>(r.dropped_shards)});
      common::JsonObject ev;
      ev.field("ev", "scenario_cell")
          .field("policy", r.policy)
          .field("scenario", r.scenario)
          .field("clients", clients)
          .field("rounds", rounds)
          .field("plan_s", r.plan_s)
          .field("plan_throughput_cs_per_s", r.plan_throughput)
          .field("makespan_s", r.makespan_s)
          .field("energy_wh", r.energy_wh)
          .field("completed", r.completed)
          .field("battery_deaths", r.battery_deaths)
          .field("dropped_shards", r.dropped_shards)
          .field("joins", r.joins)
          .field("leaves", r.leaves)
          .field("charge_edges", r.charge_edges)
          .field("net_switches", r.net_switches)
          .field("revivals", r.revivals);
      jsonl.write(ev);
      if (!cells_json.empty()) cells_json += ',';
      cells_json += ev.str();
    }
  }
  bench::emit("scenario_matrix", "schedulers x client-dynamics scenarios",
              table);

  const auto cell = [&](const std::string& policy,
                        const std::string& scenario) -> const CellResult& {
    for (const CellResult& r : cells) {
      if (r.policy == policy && r.scenario == scenario) return r;
    }
    std::fprintf(stderr, "missing cell %s/%s\n", policy.c_str(),
                 scenario.c_str());
    std::exit(1);
  };
  const CellResult& lbap = cell("fed-lbap", "charge-gated");
  const CellResult& minenergy = cell("minenergy", "charge-gated");

  common::JsonObject doc;
  doc.field("bench", "scenario_matrix")
      .field("clients", clients)
      .field("rounds", rounds)
      .field("policies", fleet::planner_names().size())
      .field("scenarios", fleet::scenario_names().size())
      .field("min_plan_throughput_cs_per_s", min_throughput)
      .field("charge_gated_lbap_energy_wh", lbap.energy_wh)
      .field("charge_gated_minenergy_energy_wh", minenergy.energy_wh)
      .field("charge_gated_lbap_makespan_s", lbap.makespan_s)
      .field("charge_gated_minenergy_makespan_s", minenergy.makespan_s)
      .field_raw("cells", "[" + cells_json + "]");
  std::filesystem::create_directories("bench_out");
  std::ofstream summary("bench_out/BENCH_scenarios.json");
  summary << doc.str() << '\n';

  std::printf("charge-gated: minenergy %.3f Wh vs lbap %.3f Wh "
              "(makespan %.1f s vs %.1f s); min plan throughput %.1f Mcs/s\n",
              minenergy.energy_wh, lbap.energy_wh, minenergy.makespan_s,
              lbap.makespan_s, min_throughput / 1e6);
  // Acceptance gate: the energy-aware scheduler must strictly beat fed_lbap
  // on energy while staying within 1.5x of its summed makespan.
  if (!(minenergy.energy_wh < lbap.energy_wh)) return 1;
  return minenergy.makespan_s <= 1.5 * lbap.makespan_s ? 0 : 1;
}
