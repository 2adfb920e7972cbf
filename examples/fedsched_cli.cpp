// fedsched command-line tool — drive the library without writing C++.
//
//   fedsched_cli profile  --device Mate10 --model LeNet
//   fedsched_cli schedule --testbed 2 --model LeNet --samples 60000
//                         --policy fed-lbap
//   fedsched_cli simulate --testbed 2 --model VGG6 --counts 10000,10000,...
//   fedsched_cli train    --dataset mnist --testbed 1 --rounds 10
//                         --samples 1200 --policy fed-lbap [--save out.bin]
//   fedsched_cli energy   --device Nexus6P --model VGG6 --samples 3000
//   fedsched_cli fleet    --fleet-size 100000 --fleet-mix nexus6:1,mate10:1
//                         --cost-buckets 64 --rounds 3 --policy fed-lbap
//
// Every subcommand prints an aligned table; `--help` lists the flags.

#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/stopwatch.hpp"
#include "coord/coordinator.hpp"
#include "coord/registry.hpp"
#include "coord/server.hpp"
#include "coord/train_job.hpp"
#include "coord/wire.hpp"
#include "core/fedsched.hpp"
#include "device/battery.hpp"
#include "fl/checkpoint/checkpoint.hpp"
#include "fl/report.hpp"
#include "fleet/session.hpp"
#include "nn/serialize.hpp"

using namespace fedsched;

namespace {

/// Parses the whole of `text` as a T, or throws naming the flag. (std::stol
/// and std::stod stop at the first bad character: they read "2000x" as 2000.)
template <typename T>
T parse_number(const std::string& flag, const std::string& text, const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("--" + flag + ": expected " + what + ", got '" + text +
                                "'");
  }
  return value;
}

/// A size, count or seed: a whole integer >= 0. A negative value is an error
/// instead of wrapping to 2^64 - |value|.
std::size_t parse_size(const std::string& flag, const std::string& text) {
  const auto value = parse_number<long long>(flag, text, "an integer");
  if (value < 0) throw std::invalid_argument("--" + flag + " must be >= 0, got " + text);
  return static_cast<std::size_t>(value);
}

/// The `--flag value` arguments of one subcommand. Every flag given must be
/// one the subcommand declares; anything else (a misspelt or removed flag)
/// is rejected before the command runs, instead of silently leaving its
/// default in place. Reading an undeclared flag is a bug in this file and
/// throws std::logic_error, so a declaration list cannot fall behind the
/// code that reads it.
class Args {
 public:
  Args(int argc, char** argv, int first, const std::string& command,
       std::set<std::string> known)
      : command_(command), known_(std::move(known)) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --flag, got '" + key + "'");
      }
      key = key.substr(2);
      if (known_.count(key) == 0) {
        throw std::invalid_argument("unknown flag --" + key + " for '" + command_ + "'");
      }
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto it = find(key);
    return it == values_.end() ? fallback
                               : parse_number<long>(key, it->second, "an integer");
  }
  /// Every size, count and seed flag reads through here.
  [[nodiscard]] std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const auto it = find(key);
    return it == values_.end() ? fallback : parse_size(key, it->second);
  }
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = find(key);
    return it == values_.end() ? fallback
                               : parse_number<double>(key, it->second, "a number");
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return find(key) != values_.end();
  }

 private:
  [[nodiscard]] std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const {
    if (known_.count(key) == 0) {
      throw std::logic_error("flag --" + key + " is not declared for '" + command_ + "'");
    }
    return values_.find(key);
  }

  std::string command_;
  std::set<std::string> known_;
  std::map<std::string, std::string> values_;
};

std::vector<std::size_t> parse_counts(const std::string& csv) {
  std::vector<std::size_t> counts;
  std::stringstream ss(csv);
  std::string field;
  while (std::getline(ss, field, ',')) counts.push_back(parse_size("counts", field));
  return counts;
}

// Shared --fault-* flags. Any non-zero hazard (or --fault-battery /
// --fault-inject) switches the injector on; the default config is disabled
// and leaves every run bit-for-bit identical to a fault-free build.
fl::FaultConfig fault_config_from(const Args& args) {
  fl::FaultConfig faults;
  faults.dropout_prob = args.get_double("fault-dropout", 0.0);
  faults.stall_prob = args.get_double("fault-stall", 0.0);
  faults.stall_factor = args.get_double("fault-stall-factor", 4.0);
  faults.transient_prob = args.get_double("fault-transient", 0.0);
  faults.max_retries = args.get_size("fault-retries", 2);
  faults.backoff_base_s = args.get_double("fault-backoff", 2.0);
  faults.battery_enabled = args.has("fault-battery");
  faults.battery_floor_soc = args.get_double("fault-battery-floor", 0.05);
  faults.initial_soc_min = args.get_double("fault-soc-min", 1.0);
  faults.initial_soc_max = args.get_double("fault-soc-max", 1.0);
  faults.enabled = args.has("fault-inject") || faults.battery_enabled ||
                   faults.dropout_prob > 0.0 || faults.stall_prob > 0.0 ||
                   faults.transient_prob > 0.0;
  return faults;
}

double deadline_from(const Args& args) {
  return args.has("deadline") ? args.get_double("deadline", 0.0) : fl::kNoDeadline;
}

// Shared --health-* flags. Defaults mirror HealthConfig so a flagless run and
// an explicit-default run behave identically.
fl::health::HealthConfig health_config_from(const Args& args) {
  fl::health::HealthConfig health;
  health.ewma_alpha = args.get_double("health-ewma", health.ewma_alpha);
  health.drift_threshold = args.get_double("health-drift", health.drift_threshold);
  health.probation_streak =
      args.get_size("health-probation-streak", health.probation_streak);
  health.probation_rounds =
      args.get_size("health-probation-rounds", health.probation_rounds);
  health.blacklist_faults = args.get_size("health-blacklist", health.blacklist_faults);
  health.replan_cooldown_rounds =
      args.get_size("health-cooldown", health.replan_cooldown_rounds);
  return health;
}

// --replicate-* flags. Default policy is off, which leaves RunResult and
// trace bytes identical to a replication-free build (the runner's gating
// contract); profiles are filled in by cmd_train so host ranking can use the
// planned schedule.
fl::replication::ReplicationConfig replication_config_from(const Args& args) {
  fl::replication::ReplicationConfig replicate;
  const std::string policy = args.get("replicate-policy", "off");
  if (policy == "off") {
    replicate.policy = fl::replication::ReplicationPolicy::kOff;
  } else if (policy == "risk") {
    replicate.policy = fl::replication::ReplicationPolicy::kRisk;
  } else {
    throw std::invalid_argument("unknown replicate policy '" + policy + "'");
  }
  replicate.budget_per_round =
      args.get_size("replica-budget", replicate.budget_per_round);
  replicate.risk_threshold =
      args.get_double("replica-risk-threshold", replicate.risk_threshold);
  replicate.max_replicas_per_share =
      args.get_size("replicas-per-share", replicate.max_replicas_per_share);
  return replicate;
}

fl::health::ReschedulePolicy reschedule_policy_from(const std::string& name) {
  if (name == "off") return fl::health::ReschedulePolicy::kOff;
  if (name == "lbap") return fl::health::ReschedulePolicy::kLbap;
  if (name == "minavg") return fl::health::ReschedulePolicy::kMinAvg;
  throw std::invalid_argument("unknown reschedule policy '" + name + "'");
}

// --trace-out FILE: JSONL run trace. The default writer is the null sink, so
// commands pass it unconditionally and results stay bit-identical without it.
obs::TraceWriter trace_from(const Args& args) {
  if (!args.has("trace-out")) return {};
  return obs::TraceWriter::to_file(args.get("trace-out", "trace.jsonl"));
}

sched::Baseline baseline_from(const std::string& name) {
  if (name == "equal") return sched::Baseline::kEqual;
  if (name == "prop") return sched::Baseline::kProportional;
  if (name == "random") return sched::Baseline::kRandom;
  throw std::invalid_argument("unknown policy '" + name + "'");
}

int cmd_profile(const Args& args) {
  const auto& spec = device::spec_by_name(args.get("device", "Mate10"));
  const auto& model = device::desc_by_name(args.get("model", "LeNet"));
  const auto sizes = parse_counts(args.get("sizes", "500,1000,2000,4000,6000"));

  const auto profile = profile::measure_profile(spec.model, model, sizes);
  common::Table table({"samples", "epoch_s", "s_per_sample", "energy_wh"});
  for (std::size_t d : sizes) {
    table.add_row({static_cast<long long>(d), profile.epoch_seconds(d),
                   profile.epoch_seconds(d) / static_cast<double>(d),
                   device::training_energy_wh(spec.model, model, d)});
  }
  std::cout << spec.name << " / " << model.name << " profile:\n";
  table.print(std::cout);
  return 0;
}

int cmd_schedule(const Args& args) {
  const auto phones = device::testbed(static_cast<int>(args.get_int("testbed", 2)));
  const auto& model = device::desc_by_name(args.get("model", "LeNet"));
  const auto total = args.get_size("samples", 60000);
  const auto shard = args.get_size("shard", 100);
  if (shard == 0) throw std::invalid_argument("--shard must be > 0");
  const std::string policy = args.get("policy", "fed-lbap");
  const auto network = args.get("network", "wifi") == "lte"
                           ? device::NetworkType::kLte
                           : device::NetworkType::kWifi;

  const auto users = core::build_profiles(phones, model, network, total);
  obs::TraceWriter trace = trace_from(args);
  sched::Assignment assignment;
  if (policy == "fed-lbap") {
    assignment = sched::fed_lbap(users, total / shard, shard, &trace).assignment;
  } else if (policy == "fed-minavg") {
    auto with_classes = users;
    common::Rng rng(static_cast<std::uint64_t>(args.get_size("seed", 1)));
    for (auto& user : with_classes) {
      // Without a scenario file, give every user a random class subset.
      const std::size_t k = 2 + rng.uniform_int(6);
      for (std::size_t c : rng.sample_without_replacement(10, k)) {
        user.classes.push_back(static_cast<std::uint16_t>(c));
      }
    }
    sched::MinAvgConfig config;
    config.cost.alpha = args.get_double("alpha", 1000.0);
    config.cost.beta = args.get_double("beta", 2.0);
    assignment =
        sched::fed_minavg(with_classes, total / shard, shard, config, &trace)
            .assignment;
  } else {
    common::Rng rng(static_cast<std::uint64_t>(args.get_size("seed", 1)));
    assignment =
        sched::assign_baseline(baseline_from(policy), users, total / shard, shard, rng);
  }

  const auto sim = core::simulate_epoch(phones, model, network,
                                        assignment.sample_counts());
  const auto names = core::testbed_names(phones);
  common::Table table({"user", "samples", "epoch_s"});
  for (std::size_t u = 0; u < users.size(); ++u) {
    table.add_row({names[u], static_cast<long long>(assignment.sample_counts()[u]),
                   sim.client_seconds[u]});
  }
  table.print(std::cout);
  std::cout << "makespan: " << sim.makespan << " s   straggler gap: "
            << 100.0 * core::straggler_gap(sim.client_seconds) << "%\n";
  return 0;
}

int cmd_simulate(const Args& args) {
  const auto phones = device::testbed(static_cast<int>(args.get_int("testbed", 2)));
  const auto& model = device::desc_by_name(args.get("model", "LeNet"));
  const auto counts = parse_counts(args.get("counts", ""));
  if (counts.size() != phones.size()) {
    std::cerr << "--counts must list " << phones.size() << " sample counts\n";
    return 2;
  }
  const auto faults = fault_config_from(args);
  const double deadline = deadline_from(args);
  const auto names = core::testbed_names(phones);
  if (faults.enabled || std::isfinite(deadline)) {
    obs::TraceWriter trace = trace_from(args);
    const auto sim = core::simulate_epoch_faulty(
        phones, model, device::NetworkType::kWifi, counts, faults, deadline,
        static_cast<std::uint64_t>(args.get_size("seed", 1)), &trace);
    common::Table table({"user", "samples", "epoch_s", "fault"});
    for (std::size_t u = 0; u < phones.size(); ++u) {
      table.add_row({names[u], static_cast<long long>(counts[u]),
                     sim.epoch.client_seconds[u],
                     std::string(fl::fault_name(sim.client_faults[u]))});
    }
    table.print(std::cout);
    std::cout << "makespan: " << sim.epoch.makespan << " s   completed: "
              << sim.completed << "   dropped: " << sim.dropped
              << "   retries: " << sim.retries << "\n";
    return 0;
  }
  const auto sim = core::simulate_epoch(phones, model, device::NetworkType::kWifi,
                                        counts);
  common::Table table({"user", "samples", "epoch_s"});
  for (std::size_t u = 0; u < phones.size(); ++u) {
    table.add_row({names[u], static_cast<long long>(counts[u]),
                   sim.client_seconds[u]});
  }
  table.print(std::cout);
  std::cout << "makespan: " << sim.makespan << " s\n";
  return 0;
}

int cmd_train(const Args& args) {
  // The deterministic core — datasets, schedule, partition, base config — is
  // built by the same coord::build_train_job the coordinator uses, so a
  // coordinator-submitted run is byte-identical to this subcommand by
  // construction. The extras below (faults, deadline, recovery, replication,
  // metrics) stay CLI-only.
  coord::TrainRunSpec run_spec;
  run_spec.dataset = args.get("dataset", "mnist");
  run_spec.testbed = static_cast<int>(args.get_int("testbed", 1));
  run_spec.model = args.get("model", "LeNet");
  run_spec.samples = args.get_size("samples", 1200);
  run_spec.policy = args.get("policy", "fed-lbap");
  run_spec.rounds = args.get_size("rounds", 10);
  run_spec.seed = static_cast<std::uint64_t>(args.get_size("seed", 1));
  // 0 = one worker per hardware thread, 1 = serial; any value trains the
  // same model bit-for-bit (the runner's determinism contract).
  run_spec.parallelism = args.get_size("parallel", 0);
  run_spec.evaluate_each_round = args.has("verbose");
  const std::uint64_t seed = run_spec.seed;

  obs::TraceWriter trace = trace_from(args);
  obs::MetricsRegistry metrics;
  coord::TrainJob job = build_train_job(run_spec, &trace);
  const auto& phones = job.phones;
  const auto& users = job.users;
  const sched::Assignment& assignment = job.assignment;

  fl::FlConfig& config = job.config;
  config.faults = fault_config_from(args);
  config.deadline_s = deadline_from(args);
  const auto reschedule_policy =
      reschedule_policy_from(args.get("reschedule-policy", "off"));
  if (reschedule_policy != fl::health::ReschedulePolicy::kOff) {
    config.reschedule.policy = reschedule_policy;
    config.reschedule.health = health_config_from(args);
    config.reschedule.users = users;
    config.reschedule.total_shards = 600;
    config.reschedule.shard_size = 100;
    config.reschedule.initial_shards = assignment.shards_per_user;
    if (reschedule_policy == fl::health::ReschedulePolicy::kMinAvg) {
      // Same rule as `schedule --policy fed-minavg`: without a scenario file,
      // every user gets a deterministic random class subset.
      common::Rng class_rng(seed + 4);
      for (auto& user : config.reschedule.users) {
        const std::size_t k = 2 + class_rng.uniform_int(6);
        for (std::size_t c : class_rng.sample_without_replacement(10, k)) {
          user.classes.push_back(static_cast<std::uint16_t>(c));
        }
      }
    }
  }
  config.replicate = replication_config_from(args);
  if (config.replicate.enabled()) {
    // Hosts are ranked by predicted finish time, so give the planner the
    // same profiles the schedule was solved against.
    config.replicate.users = users;
  }
  if (args.has("metrics-out")) config.metrics = &metrics;
  // Kill-and-resume: checkpoint after every `every` rounds and after round
  // `halt_after`, where the run stops without its final evaluation. A halt
  // round doubles as a checkpoint round; byte-identical resumes need the
  // baseline run to checkpoint at the same rounds (see docs/API.md).
  const std::string ckpt_out = args.get("checkpoint-out", "");
  const auto every = args.get_size("checkpoint-every", 0);
  const auto halt_after = args.get_size("halt-after", 0);
  if ((every > 0 || halt_after > 0) && ckpt_out.empty()) {
    throw std::invalid_argument(
        "--checkpoint-every / --halt-after need --checkpoint-out PATH");
  }
  fl::FedAvgRunner runner(job.train, job.test, job.model_spec, job.desc, phones,
                          device::NetworkType::kWifi, config);
  const std::string resume = args.get("resume", "");
  fl::FedAvgSession session =
      resume.empty()
          ? fl::FedAvgSession(runner, job.partition)
          : fl::FedAvgSession(runner, fl::checkpoint::load_checkpoint(resume));
  bool halted = false;
  while (!session.done() && !halted) {
    session.step();
    const std::size_t completed = session.rounds_completed();
    halted = completed == halt_after;
    if (halted || (every > 0 && completed % every == 0)) {
      fl::checkpoint::save_checkpoint(session.checkpoint(), ckpt_out);
    }
  }
  const fl::RunResult result = halted ? session.result() : session.finish();
  fl::round_table(result).print(std::cout);
  if (args.has("verbose") && !result.rounds.empty()) {
    std::cout << '\n'
              << fl::round_timeline(result.rounds.back(), core::testbed_names(phones));
  }
  if (config.faults.enabled || std::isfinite(config.deadline_s) ||
      config.replicate.enabled()) {
    std::cout << fl::fault_summary(result) << "\n";
  }
  if (!result.client_health.empty()) {
    std::cout << "\nclient health after " << result.rounds.size() << " rounds:\n";
    fl::recovery_table(result, core::testbed_names(phones)).print(std::cout);
  }
  if (halted) {
    trace.flush();
    std::cout << "halted after " << result.rounds.size()
              << " rounds; checkpoint written to " << ckpt_out
              << "\nresume with: fedsched_cli train ... --resume " << ckpt_out
              << "\n";
    if (trace.enabled()) {
      std::cout << "wrote " << trace.events_written() << " trace events to "
                << args.get("trace-out", "trace.jsonl") << "\n";
    }
    return 0;
  }
  std::cout << "final accuracy " << result.final_accuracy << " after "
            << result.total_seconds << " simulated seconds\n";

  if (args.has("save")) {
    nn::save_weights(runner.global_model(), args.get("save", "model.bin"));
    std::cout << "saved global model to " << args.get("save", "model.bin") << "\n";
  }
  if (trace.enabled()) {
    std::cout << "wrote " << trace.events_written() << " trace events to "
              << args.get("trace-out", "trace.jsonl") << "\n";
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "metrics.json");
    metrics.write_json(path);
    std::cout << "wrote metrics to " << path << "\n";
  }
  return 0;
}

int cmd_energy(const Args& args) {
  const auto& spec = device::spec_by_name(args.get("device", "Nexus6P"));
  const auto& model = device::desc_by_name(args.get("model", "VGG6"));
  const auto samples = args.get_size("samples", 3000);
  const auto network = args.get("network", "wifi") == "lte"
                           ? device::NetworkType::kLte
                           : device::NetworkType::kWifi;

  const double train_wh = device::training_energy_wh(spec.model, model, samples);
  const double comm_wh = device::comm_energy_wh(network, model);
  const auto battery = device::battery_of(spec.model);
  device::Device dev(spec.model, network);
  const double epoch_s = dev.train(model, samples) + dev.comm_seconds(model);

  common::Table table({"quantity", "value"});
  table.set_precision(4);
  table.add_row({std::string("epoch time (s)"), epoch_s});
  table.add_row({std::string("training energy (Wh)"), train_wh});
  table.add_row({std::string("comm energy (Wh)"), comm_wh});
  table.add_row({std::string("battery capacity (Wh)"), battery.capacity_wh});
  table.add_row({std::string("epochs per full charge"),
                 battery.capacity_wh * (1.0 - battery.reserve_fraction) /
                     (train_wh + comm_wh)});
  std::cout << spec.name << " / " << model.name << " energy report:\n";
  table.print(std::cout);
  return 0;
}

int cmd_fleet(const Args& args) {
  fleet::SessionConfig config;
  config.fleet_size = args.get_size("fleet-size", 10'000);
  if (config.fleet_size == 0) throw std::invalid_argument("--fleet-size must be > 0");
  config.model = device::desc_by_name(args.get("model", "LeNet"));
  config.mix = args.has("fleet-mix") ? fleet::parse_fleet_mix(args.get("fleet-mix", ""))
                                     : fleet::FleetMix{};
  const auto seed = static_cast<std::uint64_t>(args.get_size("seed", 1));
  config.buckets = args.get_size("cost-buckets", 64);
  const auto rounds = args.get_size("rounds", 1);
  // Default load: two shards per client on average.
  config.total_shards = args.get_size("total-shards", 2 * config.fleet_size);
  config.policy = args.get("policy", "fed-lbap");
  config.sim.shard_size = args.get_size("shard", 100);
  config.sim.deadline_s = deadline_from(args);
  config.sim.dropout_prob = args.get_double("fault-dropout", 0.0);
  config.sim.battery_floor_soc = args.get_double("fault-battery-floor", 0.05);
  config.sim.parallelism = args.get_size("parallel", 1);
  config.sim.seed = seed;
  config.dynamics = fleet::scenario_config(args.get("scenario", "static"),
                                           seed ^ 0x64796e616d696373ULL);

  obs::TraceWriter trace = trace_from(args);
  obs::MetricsRegistry metrics;
  common::Stopwatch generate_watch;
  fleet::Session session(config, &trace);
  const double generate_s = generate_watch.seconds();

  common::Table table({"round", "plan_s", "threshold_s", "completed", "dropped",
                       "makespan_s", "energy_wh"});
  std::size_t joins = 0, leaves = 0, charge_edges = 0, net_switches = 0,
              revivals = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const fleet::SessionRound step = session.step(round, &trace, &metrics);
    const fleet::FleetRoundResult& r = step.result;
    const std::size_t dropped = r.dropped_crash + r.dropped_deadline +
                                r.dropped_stale + r.dropped_offline;
    table.add_row({static_cast<long long>(round), step.plan_s, step.bound_s,
                   static_cast<long long>(r.completed),
                   static_cast<long long>(dropped), r.makespan_s, r.energy_wh});
    joins += r.joins;
    leaves += r.leaves;
    charge_edges += r.charge_edges;
    net_switches += r.net_switches;
    revivals += r.revivals;
  }
  table.print(std::cout);

  std::size_t alive = 0;
  for (const std::uint8_t flag : session.state().alive) alive += flag;
  std::cout << "fleet of " << config.fleet_size << " clients generated in "
            << generate_s << " s; " << alive << "/" << session.state().size()
            << " alive after " << rounds << " round(s)\n";
  if (config.dynamics.enabled) {
    std::cout << "dynamics: " << joins << " joins, " << leaves << " leaves, "
              << charge_edges << " charge edges, " << net_switches
              << " net switches, " << revivals << " revivals\n";
  }
  if (trace.enabled()) {
    std::cout << "wrote " << trace.events_written() << " trace events to "
              << args.get("trace-out", "trace.jsonl") << "\n";
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "metrics.json");
    metrics.write_json(path);
    std::cout << "wrote metrics to " << path << "\n";
  }
  return 0;
}

// ---- coordinator-as-a-service (src/coord) ----------------------------------

void print_run_rows(const common::JsonValue& runs) {
  common::Table table({"id", "kind", "status", "rounds"});
  for (const common::JsonValue& run : runs.as_array()) {
    const auto completed = static_cast<long long>(run.get_number("rounds_completed", 0));
    const auto total = static_cast<long long>(run.get_number("total_rounds", 0));
    table.add_row({run.get_string("id", "?"), run.get_string("kind", "?"),
                   run.get_string("status", "?"),
                   std::to_string(completed) + "/" + std::to_string(total)});
  }
  table.print(std::cout);
}

// Shared --retry-* / timeout client knobs (coord/server.hpp RetryPolicy).
coord::RetryPolicy retry_policy_from(const Args& args) {
  coord::RetryPolicy policy;
  policy.attempts = args.get_size("retry-attempts", 3);
  policy.connect_timeout_s = args.get_double("connect-timeout", 5.0);
  policy.recv_timeout_s = args.get_double("recv-timeout", 10.0);
  policy.backoff_base_s = args.get_double("retry-backoff", 0.05);
  policy.backoff_max_s = args.get_double("retry-backoff-max", 2.0);
  return policy;
}

// Shared --chaos-* flags (coord/chaos/chaos.hpp). Any armed hazard (or
// --chaos itself) switches the injector on; the default config is disabled
// and byte-inert.
coord::chaos::ChaosConfig chaos_config_from(const Args& args) {
  coord::chaos::ChaosConfig chaos;
  chaos.seed = static_cast<std::uint64_t>(args.get_size("chaos-seed", 0));
  chaos.crash_at_write = args.get_int("chaos-crash-at", -1);
  chaos.crash_phase =
      coord::chaos::parse_crash_phase(args.get("chaos-crash-phase", "before-tmp"));
  chaos.crash_prob = args.get_double("chaos-crash-prob", 0.0);
  chaos.frame_truncate_prob = args.get_double("chaos-frame-truncate", 0.0);
  chaos.frame_close_prob = args.get_double("chaos-frame-close", 0.0);
  chaos.frame_delay_prob = args.get_double("chaos-frame-delay", 0.0);
  chaos.frame_split_prob = args.get_double("chaos-frame-split", 0.0);
  chaos.frame_delay_s = args.get_double("chaos-frame-delay-s", 0.05);
  chaos.close_reply_at = args.get_int("chaos-close-reply-at", -1);
  chaos.fail_round = args.get_int("chaos-fail-round", -1);
  chaos.fail_run_id = args.get("chaos-fail-id", "");
  chaos.hang_round = args.get_int("chaos-hang-round", -1);
  chaos.hang_run_id = args.get("chaos-hang-id", "");
  chaos.hang_s = args.get_double("chaos-hang-s", 0.0);
  chaos.enabled = args.has("chaos") || chaos.crash_at_write >= 0 ||
                  chaos.crash_prob > 0.0 || chaos.frame_truncate_prob > 0.0 ||
                  chaos.frame_close_prob > 0.0 || chaos.frame_delay_prob > 0.0 ||
                  chaos.frame_split_prob > 0.0 || chaos.close_reply_at >= 0 ||
                  chaos.fail_round >= 0 || chaos.hang_round >= 0;
  return chaos;
}

common::JsonValue coord_request_ok(const std::string& socket_path,
                                   const common::JsonObject& request,
                                   const coord::RetryPolicy& policy) {
  common::JsonValue reply = common::json_parse(
      coord::request_with_retry(socket_path, request.str(), policy));
  if (!reply.get_bool("ok", false)) {
    throw std::runtime_error("coordinator: " + reply.get_string("error", "request failed"));
  }
  return reply;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("write failed for " + path);
}

int cmd_serve(const Args& args) {
  coord::CoordinatorConfig config;
  config.root = args.get("root", "coord-runs");
  config.workers = args.get_size("workers", 2);
  config.max_concurrent_rounds = args.get_size("max-concurrent-rounds", 2);
  config.max_resident_clients = args.get_size("max-resident-clients", 1'000'000);
  config.max_queued_runs = args.get_size("max-queued", 16);
  config.trace_path = args.get("trace-out", "");
  config.durable_writes = args.has("durable");
  config.watchdog_s = args.get_double("watchdog-s", 0.0);
  config.chaos = chaos_config_from(args);
  const std::string socket_path = args.get("socket", config.root + "/coord.sock");

  coord::Coordinator coordinator(config);
  const std::size_t recovered = coordinator.list().size();
  std::cout << "coordinator serving on " << socket_path << " (root "
            << config.root << ", " << config.workers << " workers, "
            << recovered << " runs recovered";
  for (const coord::QuarantineRecord& q : coordinator.quarantined()) {
    std::cout << "; quarantined '" << q.id << "' -> " << q.moved_to << " ("
              << q.reason << ")";
  }
  std::cout << ")\n" << std::flush;

  coord::ServeOptions serve_options;
  serve_options.read_deadline_s = args.get_double("read-deadline", 30.0);
  serve_options.idle_timeout_s = args.get_double("idle-timeout", 600.0);
  serve_options.chaos = &coordinator.chaos();
  coord::ServeStats stats;
  coord::serve(coordinator, socket_path, serve_options, &stats);
  const bool crashed = coordinator.chaos_crashed();
  std::cout << (crashed ? "chaos crash injected; freezing registry state\n"
                        : "shutdown requested; finishing in-flight steps\n")
            << std::flush;
  coordinator.stop();
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "coord-metrics.json");
    write_bytes(path, coordinator.metrics_json() + "\n");
    std::cout << "wrote coordinator metrics to " << path << "\n";
  }
  std::cout << "served " << stats.frames << " frames over " << stats.connections
            << " connections (" << stats.deadline_drops << " deadline drops, "
            << stats.idle_drops << " idle drops, " << stats.protocol_drops
            << " protocol drops)\n";
  // A distinct exit code so chaos-soak harnesses can tell an injected crash
  // from a clean shutdown without parsing output.
  if (crashed) return 42;

  common::Table table({"id", "kind", "status", "rounds"});
  for (const coord::RunInfo& info : coordinator.list()) {
    table.add_row({info.spec.id, coord::run_kind_name(info.spec.kind),
                   coord::run_status_name(info.status),
                   std::to_string(info.rounds_completed) + "/" +
                       std::to_string(info.spec.total_rounds())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_submit(const Args& args) {
  const std::string socket_path = args.get("socket", "coord-runs/coord.sock");
  std::string spec_text;
  if (args.has("spec")) {
    spec_text = coord::read_file(args.get("spec", ""), "submit: spec");
  } else if (args.has("spec-json")) {
    spec_text = args.get("spec-json", "");
  } else {
    throw std::invalid_argument("submit needs --spec FILE or --spec-json JSON");
  }
  // Client-side validation first: a malformed spec fails here with the same
  // message the server would produce, without a round-trip.
  const coord::RunSpec spec = coord::parse_run_spec(common::json_parse(spec_text));
  const coord::RetryPolicy policy = retry_policy_from(args);

  // Idempotent: a duplicate-id rejection on a retry means the first attempt
  // landed and only its ack was lost, so it resolves to the run's status.
  common::JsonValue reply =
      common::json_parse(coord::submit_with_retry(socket_path, spec, policy));
  if (!reply.get_bool("ok", false)) {
    throw std::runtime_error("coordinator: " +
                             reply.get_string("error", "submit failed"));
  }
  std::cout << "run '" << spec.id << "' admitted ("
            << reply.get_string("status", "?") << ", "
            << static_cast<long long>(reply.get_number("total_rounds", 0))
            << " rounds)\n"
            << std::flush;
  if (!args.has("wait")) return 0;

  const long poll_ms = args.get_int("poll-ms", 200);
  std::size_t last_rounds = 0;
  for (;;) {
    common::JsonObject sreq;
    sreq.field("verb", "status").field("id", spec.id);
    const common::JsonValue status = coord_request_ok(socket_path, sreq, policy);
    const std::string state = status.get_string("status", "?");
    const auto rounds =
        static_cast<std::size_t>(status.get_number("rounds_completed", 0));
    if (rounds != last_rounds) {
      std::cout << "round " << rounds << "/"
                << static_cast<long long>(status.get_number("total_rounds", 0))
                << " checkpointed\n"
                << std::flush;
      last_rounds = rounds;
    }
    if (state == "failed") {
      throw std::runtime_error("run '" + spec.id + "' failed: " +
                               status.get_string("error", "unknown error"));
    }
    if (state == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }

  common::JsonObject rreq;
  rreq.field("verb", "result").field("id", spec.id);
  const common::JsonValue result = coord_request_ok(socket_path, rreq, policy);
  const std::string doc = result.get_string("json", "{}");
  std::cout << "result: " << doc << "\n";
  if (args.has("result-out")) {
    write_bytes(args.get("result-out", "result.json"), doc + "\n");
  }
  if (args.has("fetch-trace")) {
    common::JsonObject treq;
    treq.field("verb", "trace").field("id", spec.id);
    const common::JsonValue trace = coord_request_ok(socket_path, treq, policy);
    const std::string path = args.get("fetch-trace", spec.id + ".trace.jsonl");
    write_bytes(path, trace.get_string("jsonl", ""));
    std::cout << "wrote run trace to " << path << "\n";
  }
  return 0;
}

int cmd_coord(const Args& args) {
  const std::string socket_path = args.get("socket", "coord-runs/coord.sock");
  const coord::RetryPolicy policy = retry_policy_from(args);
  if (args.has("ping")) {
    common::JsonObject req;
    req.field("verb", "ping");
    const common::JsonValue reply = coord_request_ok(socket_path, req, policy);
    std::cout << reply.get_string("service", "?") << " is up\n";
    return 0;
  }
  if (args.has("list")) {
    common::JsonObject req;
    req.field("verb", "list");
    const common::JsonValue reply = coord_request_ok(socket_path, req, policy);
    const common::JsonValue* runs = reply.find("runs");
    if (runs != nullptr) print_run_rows(*runs);
    return 0;
  }
  if (args.has("status")) {
    common::JsonObject req;
    req.field("verb", "status").field("id", args.get("status", ""));
    const common::JsonValue reply = coord_request_ok(socket_path, req, policy);
    std::cout << reply.get_string("id", "?") << ": "
              << reply.get_string("status", "?") << " ("
              << static_cast<long long>(reply.get_number("rounds_completed", 0))
              << "/" << static_cast<long long>(reply.get_number("total_rounds", 0))
              << " rounds)\n";
    return 0;
  }
  if (args.has("trace")) {
    common::JsonObject req;
    req.field("verb", "trace").field("id", args.get("trace", ""));
    const common::JsonValue reply = coord_request_ok(socket_path, req, policy);
    const std::string bytes = reply.get_string("jsonl", "");
    if (args.has("out")) {
      write_bytes(args.get("out", "trace.jsonl"), bytes);
      std::cout << "wrote " << bytes.size() << " trace bytes to "
                << args.get("out", "trace.jsonl") << "\n";
    } else {
      std::cout << bytes;
    }
    return 0;
  }
  if (args.has("result")) {
    common::JsonObject req;
    req.field("verb", "result").field("id", args.get("result", ""));
    const common::JsonValue reply = coord_request_ok(socket_path, req, policy);
    std::cout << reply.get_string("json", "{}") << "\n";
    return 0;
  }
  if (args.has("checkpoint")) {
    if (!args.has("out")) {
      throw std::invalid_argument("coord --checkpoint ID needs --out FILE");
    }
    common::JsonObject req;
    req.field("verb", "checkpoint").field("id", args.get("checkpoint", ""));
    const common::JsonValue reply = coord_request_ok(socket_path, req, policy);
    const std::string bytes = coord::from_hex(reply.get_string("hex", ""));
    write_bytes(args.get("out", "ckpt.bin"), bytes);
    std::cout << "wrote " << bytes.size() << " checkpoint bytes to "
              << args.get("out", "ckpt.bin") << "\n";
    return 0;
  }
  if (args.has("metrics")) {
    common::JsonObject req;
    req.field("verb", "metrics");
    const common::JsonValue reply = coord_request_ok(socket_path, req, policy);
    std::cout << reply.get_string("json", "{}") << "\n";
    return 0;
  }
  if (args.has("shutdown")) {
    common::JsonObject req;
    req.field("verb", "shutdown");
    (void)coord_request_ok(socket_path, req, policy);
    std::cout << "coordinator shutting down\n";
    return 0;
  }
  throw std::invalid_argument(
      "coord needs one of --ping | --list | --status ID | --trace ID "
      "[--out FILE] | --result ID | --checkpoint ID --out FILE | --metrics | "
      "--shutdown");
}

void usage() {
  std::cout <<
      "usage: fedsched_cli <command> [--flag value ...]\n"
      "commands:\n"
      "  profile   --device <name> --model <LeNet|VGG6> [--sizes a,b,c]\n"
      "  schedule  --testbed <1|2|3> --model <..> --samples N --policy\n"
      "            <fed-lbap|fed-minavg|equal|prop|random> [--network wifi|lte]\n"
      "            [--trace-out FILE]\n"
      "  simulate  --testbed <1|2|3> --model <..> --counts n1,n2,...\n"
      "            [fault flags] [--deadline S] [--seed N] [--trace-out FILE]\n"
      "  train     --dataset <mnist|cifar> --testbed <1|2|3> --rounds N\n"
      "            --samples N --policy <..> [--save path] [--verbose]\n"
      "            [--parallel K]   (0 = all host threads, 1 = serial)\n"
      "            [fault flags] [--deadline S]\n"
      "            [--trace-out FILE] [--metrics-out FILE]\n"
      "            [recovery flags] [checkpoint flags]\n"
      "  energy    --device <name> --model <..> --samples N [--network ..]\n"
      "  fleet     --fleet-size N --model <..> [--fleet-mix SPEC]\n"
      "            [--cost-buckets B] [--shard S] [--total-shards N]\n"
      "            [--rounds R] [--policy fed-lbap|fed-minavg|olar|minenergy]\n"
      "            [--scenario NAME] [--seed N]\n"
      "            [--deadline S] [--fault-dropout P] [--parallel K]\n"
      "            [--trace-out FILE] [--metrics-out FILE]\n"
      "  serve     --root DIR [--socket PATH] [--workers N]\n"
      "            [--max-concurrent-rounds N] [--max-resident-clients N]\n"
      "            [--max-queued N] [--trace-out FILE] [--metrics-out FILE]\n"
      "            [--durable] [--watchdog-s S] [--read-deadline S]\n"
      "            [--idle-timeout S] [chaos flags]\n"
      "  submit    --socket PATH (--spec FILE | --spec-json JSON) [--wait]\n"
      "            [--poll-ms N] [--result-out FILE] [--fetch-trace FILE]\n"
      "            [client retry flags]\n"
      "  coord     --socket PATH (--ping | --list | --status ID | --trace ID\n"
      "            [--out FILE] | --result ID | --checkpoint ID --out FILE |\n"
      "            --metrics | --shutdown) [client retry flags]\n"
      "fleet flags (schedulers over a generated 1k..1M population):\n"
      "  --fleet-size N           clients to generate (default 10000)\n"
      "  --fleet-mix SPEC         population mixture, e.g.\n"
      "                           nexus6:0.4,mate10:0.4,pixel2:0.2,lte:0.5\n"
      "  --cost-buckets B         fed-lbap/fed-minavg cost buckets; makespan is\n"
      "                           within one bucket width of exact (default 64)\n"
      "  --total-shards N         shards to place (default 2x fleet size)\n"
      "  --policy P               fed-lbap|fed-minavg, olar (exact\n"
      "                           makespan-optimal greedy), minenergy (min\n"
      "                           total energy under a makespan cap + battery\n"
      "                           budgets)\n"
      "  --scenario NAME          client-dynamics preset: static|churn|diurnal|\n"
      "                           charge-gated|net-flap (default static = off)\n"
      "fault flags (any non-zero hazard enables injection; all deterministic\n"
      "per seed):\n"
      "  --fault-dropout P        per-round client crash probability\n"
      "  --fault-stall P          comm slowdown probability\n"
      "  --fault-stall-factor F   comm slowdown multiplier (default 4)\n"
      "  --fault-transient P      per-upload-attempt failure probability\n"
      "  --fault-retries N        upload retries before giving up (default 2)\n"
      "  --fault-backoff S        first retry backoff seconds (default 2)\n"
      "  --fault-battery          enable battery drain & death at the floor\n"
      "  --fault-battery-floor F  state-of-charge death floor (default 0.05)\n"
      "  --fault-soc-min/-max F   initial state-of-charge range (default 1)\n"
      "  --deadline S             round deadline in simulated seconds\n"
      "recovery flags (train; health-aware online rescheduling):\n"
      "  --reschedule-policy P    off|lbap|minavg — re-solve the schedule on\n"
      "                           health drift (default off)\n"
      "  --health-ewma A          speed-drift EWMA weight (default 0.3)\n"
      "  --health-drift T         replan when |ewma/planned - 1| > T (0.25)\n"
      "  --health-probation-streak N  faults in a row before probation (2)\n"
      "  --health-probation-rounds N  first probation length, doubles (2)\n"
      "  --health-blacklist N     total faults before permanent exclusion (6)\n"
      "  --health-cooldown N      min rounds between replans (default 1)\n"
      "replication flags (train; speculative straggler hedging):\n"
      "  --replicate-policy P     off|risk — replicate at-risk clients' shards\n"
      "                           onto healthy fast hosts (default off)\n"
      "  --replica-budget N       max replicas launched per round (default 4)\n"
      "  --replica-risk-threshold T  replicate shares with risk >= T (0.25)\n"
      "  --replicas-per-share N   max hosts hedging one share (default 2)\n"
      "checkpoint flags (train; deterministic kill-and-resume):\n"
      "  --checkpoint-out PATH    binary checkpoint target (+ .meta.jsonl)\n"
      "  --checkpoint-every N     checkpoint every N completed rounds\n"
      "  --halt-after N           checkpoint after round N and exit early\n"
      "  --resume PATH            resume a halted run; byte-identical to an\n"
      "                           uninterrupted run with the same cadence\n"
      "observability (simulated time only; byte-identical at any --parallel):\n"
      "  --trace-out FILE         stream JSONL run-trace events to FILE\n"
      "  --metrics-out FILE       write the metrics registry as JSON to FILE\n"
      "serve hardening flags:\n"
      "  --durable                fsync temp files + dirs around registry renames\n"
      "  --watchdog-s S           fail any step older than S real seconds\n"
      "  --read-deadline S        drop a partial frame older than S seconds (30)\n"
      "  --idle-timeout S         drop a silent connection after S seconds (600)\n"
      "client retry flags (submit/coord; deterministic exponential backoff):\n"
      "  --retry-attempts N       total tries per request (default 3)\n"
      "  --connect-timeout S      bounded connect (default 5)\n"
      "  --recv-timeout S         bounded reply wait (default 10)\n"
      "  --retry-backoff S        backoff base, doubles per retry (default .05)\n"
      "  --retry-backoff-max S    backoff cap (default 2)\n"
      "chaos flags (serve; deterministic per --chaos-seed, byte-inert when\n"
      "disabled; any armed hazard or --chaos enables injection):\n"
      "  --chaos-seed N           draw-stream seed (default 0)\n"
      "  --chaos-crash-at OP      crash at registry write op OP (exit 42)\n"
      "  --chaos-crash-phase P    before-tmp|after-tmp|after-rename\n"
      "  --chaos-crash-prob P     seeded per-(op,phase) crash probability\n"
      "  --chaos-frame-truncate P truncate a reply frame mid-byte, then close\n"
      "  --chaos-frame-close P    close a connection instead of replying\n"
      "  --chaos-frame-delay P    delay a reply by --chaos-frame-delay-s\n"
      "  --chaos-frame-split P    send a reply in two delayed bursts\n"
      "  --chaos-close-reply-at N close instead of sending reply frame N\n"
      "  --chaos-fail-round K     fail a run's step at round K (--chaos-fail-id)\n"
      "  --chaos-hang-round K     hang a step at round K for --chaos-hang-s\n"
      "                           real seconds (--chaos-hang-id; watchdog bait)\n";
}

// The flags each subcommand reads, shared groups first.
const std::set<std::string> kFaultFlags = {
    "fault-dropout", "fault-stall",         "fault-stall-factor", "fault-transient",
    "fault-retries", "fault-backoff",       "fault-battery",      "fault-battery-floor",
    "fault-soc-min", "fault-soc-max",       "fault-inject",       "deadline"};
const std::set<std::string> kRecoveryFlags = {
    "reschedule-policy",       "health-ewma",      "health-drift",
    "health-probation-streak", "health-probation-rounds", "health-blacklist",
    "health-cooldown",         "replicate-policy", "replica-budget",
    "replica-risk-threshold",  "replicas-per-share"};
const std::set<std::string> kClientFlags = {"socket",        "retry-attempts",
                                            "retry-backoff", "retry-backoff-max",
                                            "connect-timeout", "recv-timeout"};
const std::set<std::string> kChaosFlags = {
    "chaos",              "chaos-seed",          "chaos-crash-at",  "chaos-crash-phase",
    "chaos-crash-prob",   "chaos-frame-truncate", "chaos-frame-close",
    "chaos-frame-delay",  "chaos-frame-split",   "chaos-frame-delay-s",
    "chaos-close-reply-at", "chaos-fail-round",  "chaos-fail-id",   "chaos-hang-round",
    "chaos-hang-id",      "chaos-hang-s"};

std::set<std::string> flags(std::set<std::string> own,
                            std::initializer_list<const std::set<std::string>*> groups) {
  for (const auto* group : groups) own.insert(group->begin(), group->end());
  return own;
}

struct Command {
  int (*run)(const Args&);
  std::set<std::string> flags;
};

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> table = {
      {"profile", {cmd_profile, {"device", "model", "sizes"}}},
      {"schedule",
       {cmd_schedule,
        {"testbed", "model", "samples", "shard", "policy", "network", "seed", "alpha",
         "beta", "trace-out"}}},
      {"simulate",
       {cmd_simulate,
        flags({"testbed", "model", "counts", "seed", "trace-out"}, {&kFaultFlags})}},
      {"train",
       {cmd_train,
        flags({"dataset", "testbed", "model", "samples", "policy", "rounds", "seed",
               "parallel", "verbose", "save", "trace-out", "metrics-out",
               "checkpoint-out", "checkpoint-every", "halt-after", "resume"},
              {&kFaultFlags, &kRecoveryFlags})}},
      {"energy", {cmd_energy, {"device", "model", "samples", "network"}}},
      {"fleet",
       {cmd_fleet,
        {"fleet-size", "fleet-mix", "model", "cost-buckets", "shard", "total-shards",
         "rounds", "policy", "scenario", "seed", "deadline", "fault-dropout",
         "fault-battery-floor", "parallel", "trace-out", "metrics-out"}}},
      {"serve",
       {cmd_serve,
        flags({"root", "socket", "workers", "max-concurrent-rounds",
               "max-resident-clients", "max-queued", "trace-out", "metrics-out",
               "durable", "watchdog-s", "read-deadline", "idle-timeout"},
              {&kChaosFlags})}},
      {"submit",
       {cmd_submit,
        flags({"spec", "spec-json", "wait", "poll-ms", "result-out", "fetch-trace"},
              {&kClientFlags})}},
      {"coord",
       {cmd_coord,
        flags({"ping", "list", "status", "trace", "out", "result", "checkpoint",
               "metrics", "shutdown"},
              {&kClientFlags})}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const auto it = commands().find(command);
  if (it == commands().end()) {
    usage();
    return command == "help" || command == "--help" ? 0 : 2;
  }
  try {
    const Args args(argc, argv, 2, command, it->second.flags);
    return it->second.run(args);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
