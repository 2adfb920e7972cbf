// Recovery overhead — what does the self-healing loop buy, and what does it
// cost, under the fault mix of the robustness PR?
//
// Scenario: Testbed II, LeNet, no idle between rounds. The static Fed-LBAP
// plan is built from *cold* profiles, but with back-to-back rounds the
// Nexus 6P pair heats past its 33 C throttle knee and runs far off-profile
// (Observation 2 of the paper) while crash / stall / transient faults bench
// clients at random. The health-aware run watches measured-vs-predicted
// round times and re-runs Fed-LBAP on the drifted costs; the static run
// keeps the cold plan.
//
// Reported per mode: simulated makespan (total FL wall-clock), reschedules,
// shards moved, probations, exclusions, final accuracy, and host ms.
// Acceptance: rescheduling strictly reduces the simulated makespan.
//
// Outputs:  bench_out/recovery_overhead.csv        (table)
//           bench_out/recovery_overhead.jsonl      (one event per mode)
//           bench_out/BENCH_recovery.json          (summary document)
// The committed BENCH_recovery.json at the repo root is a snapshot of the
// default (short) run on the reference container.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "bench_util.hpp"
#include "fl/runner.hpp"

using namespace fedsched;

namespace {

struct ModeResult {
  std::string mode;
  fl::RunResult run;
  double wall_ms = 0.0;
  std::size_t reschedules = 0;
  std::size_t moved_shards = 0;
  std::size_t probations = 0;
  std::size_t excluded = 0;
  std::size_t replicas = 0;
  std::size_t replica_wins = 0;
  std::size_t rescued = 0;
};

struct Setup {
  data::Dataset train;
  data::Dataset test;
  std::vector<device::PhoneModel> phones;
  std::vector<sched::UserProfile> users;
  sched::Assignment plan;
  data::Partition partition;
};

Setup make_setup(std::size_t samples) {
  Setup s;
  s.train = data::generate_balanced(data::mnist_like(), samples, 60);
  s.test = data::generate_balanced(data::mnist_like(), 300, 61);
  s.phones = device::testbed(2);
  s.users = core::build_profiles(s.phones, device::lenet_desc(),
                                 device::NetworkType::kWifi, 60'000);
  s.plan = sched::fed_lbap(s.users, 600, 100).assignment;
  std::vector<double> weights;
  for (std::size_t k : s.plan.shards_per_user) {
    weights.push_back(static_cast<double>(k));
  }
  common::Rng rng(62);
  s.partition = data::partition_with_sizes_iid(
      s.train, data::proportional_sizes(s.train.size(), weights), rng);
  return s;
}

// The robustness PR's canonical mix: crashes, comm stalls, flaky uploads.
fl::FaultConfig fault_mix() {
  fl::FaultConfig faults;
  faults.enabled = true;
  faults.dropout_prob = 0.1;
  faults.stall_prob = 0.2;
  faults.transient_prob = 0.2;
  return faults;
}

ModeResult run_mode(const Setup& s, std::size_t rounds, bool recovery,
                    bool replicate = false) {
  fl::FlConfig config;
  config.rounds = rounds;
  config.seed = 63;
  config.faults = fault_mix();
  if (recovery) {
    config.reschedule.policy = fl::health::ReschedulePolicy::kLbap;
    config.reschedule.users = s.users;
    config.reschedule.total_shards = 600;
    config.reschedule.shard_size = 100;
    config.reschedule.initial_shards = s.plan.shards_per_user;
  }
  if (replicate) {
    // A moderate hedge beats both extremes here: replicas train on the fast
    // hosts' clocks, so an aggressive budget heats those hosts past their
    // throttle knees and gives back the tail-latency win in later rounds.
    config.replicate.policy = fl::replication::ReplicationPolicy::kRisk;
    config.replicate.budget_per_round = 2;
    config.replicate.risk_threshold = 0.15;
    config.replicate.users = s.users;
  }
  nn::ModelSpec spec = bench::model_spec_for(bench::mnist_case(), nn::Arch::kLeNet);

  const auto t0 = std::chrono::steady_clock::now();
  fl::FedAvgRunner runner(s.train, s.test, spec, device::lenet_desc(), s.phones,
                          device::NetworkType::kWifi, config);
  ModeResult mode;
  mode.mode = replicate ? "replication" : (recovery ? "recovery" : "static");
  mode.run = runner.run(s.partition);
  mode.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  for (const fl::RoundRecord& r : mode.run.rounds) {
    mode.reschedules += r.rescheduled ? 1 : 0;
    mode.moved_shards += r.moved_shards;
    mode.replicas += r.replicas_assigned;
    mode.replica_wins += r.replicas_won;
    mode.rescued += r.shares_rescued;
  }
  for (const auto& c : mode.run.client_health) {
    mode.probations += c.probations;
    mode.excluded += (c.status != fl::health::ClientStatus::kHealthy) ? 1 : 0;
  }
  return mode;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = fedsched::bench::full_scale(argc, argv);
  const std::size_t samples = full ? 9000 : 6000;
  const std::size_t rounds = full ? 16 : 12;
  const Setup setup = make_setup(samples);

  const ModeResult statics = run_mode(setup, rounds, false);
  const ModeResult recovery = run_mode(setup, rounds, true);
  const ModeResult hedged = run_mode(setup, rounds, true, true);

  common::Table table({"mode", "sim_makespan_s", "mean_round_s", "reschedules",
                       "shards_moved", "replicas", "replica_wins", "rescued",
                       "probations", "excluded", "accuracy", "wall_ms"});
  table.set_precision(3);
  obs::TraceWriter jsonl = fedsched::bench::jsonl_writer("recovery_overhead");
  std::string modes_json;
  for (const ModeResult* m : {&statics, &recovery, &hedged}) {
    table.add_row({m->mode, m->run.total_seconds, m->run.mean_round_seconds(),
                   static_cast<long long>(m->reschedules),
                   static_cast<long long>(m->moved_shards),
                   static_cast<long long>(m->replicas),
                   static_cast<long long>(m->replica_wins),
                   static_cast<long long>(m->rescued),
                   static_cast<long long>(m->probations),
                   static_cast<long long>(m->excluded), m->run.final_accuracy,
                   m->wall_ms});
    common::JsonObject ev;
    ev.field("ev", "recovery_mode")
        .field("mode", m->mode)
        .field("rounds", rounds)
        .field("sim_makespan_s", m->run.total_seconds)
        .field("mean_round_s", m->run.mean_round_seconds())
        .field("reschedules", m->reschedules)
        .field("shards_moved", m->moved_shards)
        .field("replicas", m->replicas)
        .field("replica_wins", m->replica_wins)
        .field("shares_rescued", m->rescued)
        .field("probations", m->probations)
        .field("excluded", m->excluded)
        .field("accuracy", m->run.final_accuracy)
        .field("wall_ms", m->wall_ms);
    jsonl.write(ev);
    if (!modes_json.empty()) modes_json += ',';
    modes_json += ev.str();
  }
  fedsched::bench::emit("recovery_overhead",
                        "self-healing vs static plan under the fault mix",
                        table);

  const double reduction_s = statics.run.total_seconds - recovery.run.total_seconds;
  const double reduction_pct =
      100.0 * reduction_s / statics.run.total_seconds;
  const double hedged_reduction_s =
      statics.run.total_seconds - hedged.run.total_seconds;
  const double hedged_reduction_pct =
      100.0 * hedged_reduction_s / statics.run.total_seconds;
  common::JsonObject doc;
  doc.field("bench", "recovery_overhead")
      .field("samples", samples)
      .field("rounds", rounds)
      .field("static_makespan_s", statics.run.total_seconds)
      .field("recovery_makespan_s", recovery.run.total_seconds)
      .field("replication_makespan_s", hedged.run.total_seconds)
      .field("makespan_reduction_s", reduction_s)
      .field("makespan_reduction_pct", reduction_pct)
      .field("replication_reduction_s", hedged_reduction_s)
      .field("replication_reduction_pct", hedged_reduction_pct)
      .field_raw("modes", "[" + modes_json + "]");
  std::filesystem::create_directories("bench_out");
  std::ofstream summary("bench_out/BENCH_recovery.json");
  summary << doc.str() << '\n';

  std::printf("makespan: static %.1f s -> recovery %.1f s (%.1f%%) -> "
              "replication %.1f s (%.1f%%; acceptance floor: beat recovery)\n\n",
              statics.run.total_seconds, recovery.run.total_seconds,
              reduction_pct, hedged.run.total_seconds, hedged_reduction_pct);
  // Non-zero exit on regression so CI can gate on the acceptance criteria:
  // rescheduling must still beat static, and hedging must beat rescheduling.
  if (reduction_s <= 0.0) return 1;
  return hedged.run.total_seconds < recovery.run.total_seconds ? 0 : 1;
}
