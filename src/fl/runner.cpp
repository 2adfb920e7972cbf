#include "fl/runner.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "device/battery.hpp"
#include "fl/aggregate.hpp"
#include "fl/checkpoint/checkpoint.hpp"
#include "fl/report.hpp"
#include "fl/trainer.hpp"
#include "nn/serialize.hpp"

namespace fedsched::fl {

double RunResult::mean_round_seconds() const {
  if (rounds.empty()) return 0.0;
  double sum = 0.0;
  for (const RoundRecord& r : rounds) sum += r.round_seconds;
  return sum / static_cast<double>(rounds.size());
}

FedAvgRunner::FedAvgRunner(const data::Dataset& train, const data::Dataset& test,
                           nn::ModelSpec model_spec, device::ModelDesc device_model,
                           std::vector<device::PhoneModel> phones,
                           device::NetworkType network, FlConfig config)
    : train_(train),
      test_(test),
      device_model_(std::move(device_model)),
      phones_(std::move(phones)),
      network_(network),
      config_(config),
      executor_(model_spec, config.parallelism) {
  if (phones_.empty()) throw std::invalid_argument("FedAvgRunner: no devices");
  common::Rng init_rng(config_.seed);
  global_ = nn::build_model(model_spec, init_rng);
}

RunResult FedAvgRunner::run(const data::Partition& partition) {
  FedAvgSession session(*this, partition);
  while (!session.done()) session.step();
  return session.finish();
}

FedAvgSession::FedAvgSession(FedAvgRunner& runner, data::Partition working,
                             std::vector<float> global_params)
    : runner_(runner),
      n_users_(runner.phones_.size()),
      working_(std::move(working)),
      optimizers_(n_users_, nn::Sgd(runner.config_.sgd)),
      rng_(runner.config_.seed ^ 0xF1F1F1F1ULL),
      injector_(runner.config_.faults, runner.config_.seed),
      global_params_(std::move(global_params)) {
  const FlConfig& config = runner.config_;
  const bool recovery = config.reschedule.enabled();
  const bool hedging = config.replicate.enabled();
  if (recovery || hedging) tracker_.emplace(config.reschedule.health, n_users_);
  if (recovery) replanner_.emplace(config.reschedule, n_users_);
  if (hedging) hedger_.emplace(config.replicate, n_users_);
  devices_.reserve(n_users_);
  for (device::PhoneModel phone : runner.phones_) {
    devices_.emplace_back(phone, runner.network_);
  }
  if (injector_.battery_enabled()) {
    batteries_.reserve(n_users_);
    for (std::size_t u = 0; u < n_users_; ++u) {
      batteries_.emplace_back(device::battery_of(runner.phones_[u]),
                              injector_.initial_soc(u));
    }
  }
  // Mirror trace bytes into memory so checkpoint() can store the prefix:
  // everything written from here on.
  obs::TraceWriter& trace = this->trace();
  trace.enable_capture();
  capture_bytes_ = trace.captured().size();
  capture_events_ = trace.captured_events();
}

FedAvgSession::FedAvgSession(FedAvgRunner& runner, const data::Partition& partition)
    : FedAvgSession(runner, partition, runner.global_.flat_params()) {
  if (partition.users() != n_users_) {
    throw std::invalid_argument("FedAvgRunner::run: partition/device count mismatch");
  }
  const FlConfig& config = runner.config_;
  trace_run_start(trace(), "fedavg", n_users_, config.rounds, config.seed,
                  config.deadline_s, config.faults.enabled);
}

FedAvgSession::FedAvgSession(FedAvgRunner& runner, checkpoint::RunState state)
    : FedAvgSession(runner, std::move(state.partition),
                    std::move(state.global_params)) {
  nn::Model& global = runner.global_;
  const auto require = [](bool ok, const std::string& what) {
    if (!ok) throw std::runtime_error("FedAvgRunner: checkpoint " + what);
  };
  require(state.seed == runner.config_.seed, "seed mismatch");
  require(state.device_clock_s.size() == n_users_ &&
              state.device_temp_c.size() == n_users_ &&
              state.velocities.size() == n_users_ && working_.users() == n_users_,
          "fleet size mismatch");
  require(state.model_fingerprint == nn::layout_fingerprint(global) &&
              global_params_.size() == global.param_count(),
          "model mismatch");
  require(state.rounds_completed <= runner.config_.rounds, "is past the round budget");
  require(state.recovery_active == replanner_.has_value(),
          "reschedule config mismatch");
  require(state.replication_active == hedger_.has_value(),
          "replication config mismatch");
  require(!injector_.battery_enabled() || state.battery_soc.size() == n_users_,
          "lacks battery state");
  global.set_flat_params(global_params_);
  for (std::size_t u = 0; u < n_users_; ++u) {
    optimizers_[u].set_flat_velocity(global, state.velocities[u]);
    devices_[u].restore(state.device_clock_s[u], state.device_temp_c[u]);
    if (injector_.battery_enabled()) {
      batteries_[u] = device::Battery(device::battery_of(runner.phones_[u]),
                                      state.battery_soc[u]);
    }
  }
  result_.rounds = std::move(state.rounds);
  result_.total_seconds = state.total_seconds;
  result_.replica_log = std::move(state.replica_log);
  if (tracker_) tracker_->restore(state.health);
  if (replanner_) {
    replanner_->restore_shards(std::vector<std::size_t>(
        state.replanner_shards.begin(), state.replanner_shards.end()));
  }
  rng_.set_state_words(state.rng_words);
  next_round_ = static_cast<std::size_t>(state.rounds_completed);
  // Replay the interrupted run's trace verbatim (includes run_start).
  trace().write_raw(state.trace_prefix, static_cast<std::size_t>(state.trace_events));
}

void FedAvgSession::step() {
  if (done()) throw std::logic_error("FedAvgSession::step: run already complete");
  const FlConfig& config = runner_.config_;
  const std::vector<device::PhoneModel>& phones = runner_.phones_;
  const device::ModelDesc& model = runner_.device_model_;
  const device::NetworkType network = runner_.network_;
  ClientExecutor& executor = runner_.executor_;
  obs::TraceWriter& trace = this->trace();
  const double deadline = config.deadline_s;
  const std::size_t round = next_round_;

  RoundRecord record;
  record.round = round;
  record.client_seconds.assign(n_users_, 0.0);
  trace_round_start(trace, round);

  // Share sizes weight the aggregation, size the hedge plan and order the
  // executor's claims (largest first).
  std::vector<std::size_t> share_sizes(n_users_);
  std::size_t total_samples = 0;
  for (std::size_t u = 0; u < n_users_; ++u) {
    share_sizes[u] = working_.user_indices[u].size();
    total_samples += share_sizes[u];
  }
  if (total_samples == 0) {
    throw std::invalid_argument("FedAvgRunner::run: empty partition");
  }

  // Hedge plan for the round: which at-risk shares get speculative copies
  // and on which hosts. Decided serially from tracker state before any
  // client runs, so the plan is identical at every parallelism width.
  replication::RoundPlan hedge_plan;
  if (hedger_) {
    hedge_plan = hedger_->plan(*tracker_, share_sizes, config.local_epochs);
    record.replicas_assigned = hedge_plan.assignments.size();
    if (!hedge_plan.empty()) trace_replication_plan(trace, round, hedge_plan);
  }

  // Client-indexed slots the parallel section writes into; reduced in fixed
  // client order below so every parallelism width gives identical results.
  std::vector<std::vector<float>> locals(n_users_);
  std::vector<double> client_loss(n_users_, 0.0);
  std::vector<char> trained(n_users_, 0);
  std::vector<FaultOutcome> outcomes(n_users_);
  std::vector<RoundTimings> trip_timings(n_users_);
  // Seed streams are forked serially; fork() is a pure function of the
  // parent state, so the streams match the serial path exactly.
  std::vector<common::Rng> client_rngs(n_users_);
  for (std::size_t u = 0; u < n_users_; ++u) {
    client_rngs[u] = rng_.fork(round * n_users_ + u);
  }

  executor.for_each_client(n_users_, [&](std::size_t u, nn::Model& worker) {
    const auto& share = working_.user_indices[u];
    if (share.empty()) return;

    // A battery at the floor killed the client before the round started.
    if (injector_.battery_enabled() &&
        batteries_[u].dead(config.faults.battery_floor_soc)) {
      outcomes[u] = {.kind = FaultKind::kBatteryDead, .completed = false};
      return;
    }

    // Simulated wall-clock: model pull + local epochs + model push. Each
    // device is only ever advanced by its own client.
    const auto& link = device::link_of(network);
    RoundTimings timings;
    timings.download_s = device::download_seconds(link, model.size_mb);
    timings.upload_s = device::upload_seconds(link, model.size_mb);
    timings.baseline_s = devices_[u].comm_seconds(model);
    timings.compute_s =
        devices_[u].train(model, share.size() * config.local_epochs);
    timings.baseline_s += timings.compute_s;
    trip_timings[u] = timings;

    FaultOutcome outcome = injector_.evaluate(round, u, timings, deadline);
    if (injector_.battery_enabled()) {
      batteries_[u].drain(round_energy_wh(device::spec_of(phones[u]), model,
                                          timings.compute_s, network,
                                          outcome.comm_scale));
      // Hitting the floor mid-round kills the upload too.
      if (batteries_[u].dead(config.faults.battery_floor_soc)) {
        outcome.completed = false;
        outcome.kind = FaultKind::kBatteryDead;
      }
    }
    record.client_seconds[u] = outcome.elapsed_s;
    outcomes[u] = outcome;
    if (!outcome.completed) return;  // update lost; local training discarded

    // Real training for the accuracy signal.
    worker.set_flat_params(global_params_);
    EpochStats stats;
    for (std::size_t e = 0; e < config.local_epochs; ++e) {
      stats = train_epoch(worker, optimizers_[u], runner_.train_, share,
                          config.batch_size, client_rngs[u]);
    }
    client_loss[u] = stats.mean_loss;
    trained[u] = 1;
    locals[u] = worker.flat_params();
  }, share_sizes);

  // Speculative copies run on their hosts *after* the host's own round:
  // extra compute on the host's device clock (thermal trajectory included),
  // an extra upload, extra battery drain — and the host's own fault verdict
  // applies to the copy. Serial, in plan order, so devices are only ever
  // advanced from one thread and the timeline is width-invariant.
  std::vector<replication::ReplicaOutcome> replica_outcomes;
  std::vector<replication::ShareResolution> resolutions;
  std::vector<char> rescued(n_users_, 0);
  if (!hedge_plan.empty()) {
    replica_outcomes.reserve(hedge_plan.assignments.size());
    for (const replication::ReplicaAssignment& a : hedge_plan.assignments) {
      replication::ReplicaOutcome ro;
      ro.owner = a.owner;
      ro.host = a.host;
      const FaultOutcome& host_out = outcomes[a.host];
      if (!host_out.completed) {
        // The host never even delivered its own share; the copy dies with it.
        ro.finish_s = host_out.elapsed_s;
        ro.kind = host_out.kind;
      } else {
        const double copy_compute = devices_[a.host].train(
            model,
            working_.user_indices[a.owner].size() * config.local_epochs);
        ro.finish_s = host_out.elapsed_s + copy_compute +
                      trip_timings[a.host].upload_s * host_out.comm_scale;
        ro.completed = true;
        if (injector_.battery_enabled()) {
          batteries_[a.host].drain(
              round_energy_wh(device::spec_of(phones[a.host]), model,
                              copy_compute, network, host_out.comm_scale));
          if (batteries_[a.host].dead(config.faults.battery_floor_soc)) {
            ro.completed = false;
            ro.kind = FaultKind::kBatteryDead;
          }
        }
        if (ro.completed && std::isfinite(deadline) && ro.finish_s > deadline) {
          ro.completed = false;
          ro.kind = FaultKind::kDeadlineMiss;
        }
      }
      replica_outcomes.push_back(ro);
    }

    // First-finisher resolution per replicated share, owners ascending.
    for (std::size_t u = 0; u < n_users_; ++u) {
      std::vector<replication::ReplicaOutcome> mine;
      for (const auto& ro : replica_outcomes) {
        if (ro.owner == u) mine.push_back(ro);
      }
      if (mine.empty()) continue;
      const bool primary_ok =
          outcomes[u].completed && !working_.user_indices[u].empty();
      replication::ShareResolution res = replication::resolve_first_finisher(
          u, primary_ok, outcomes[u].elapsed_s, mine);
      if (res.rescued) rescued[u] = 1;
      if (res.arrived && res.winner != u) ++record.replicas_won;
      record.shares_rescued += res.rescued;
      resolutions.push_back(res);
    }
  }

  // Rescue pass: train the shares a replica saved. The primary's lane
  // returned before touching its RNG fork or optimizer, so training here
  // with the same (round, owner)-keyed stream produces the exact bytes the
  // primary would have — the winner's identity never leaks into the model.
  if (record.shares_rescued > 0) {
    executor.for_each_client(n_users_, [&](std::size_t u, nn::Model& worker) {
      if (!rescued[u]) return;
      const auto& share = working_.user_indices[u];
      worker.set_flat_params(global_params_);
      EpochStats stats;
      for (std::size_t e = 0; e < config.local_epochs; ++e) {
        stats = train_epoch(worker, optimizers_[u], runner_.train_, share,
                            config.batch_size, client_rngs[u]);
      }
      client_loss[u] = stats.mean_loss;
      trained[u] = 1;
      locals[u] = worker.flat_params();
    }, share_sizes);
  }

  double loss_sum = 0.0;
  std::size_t loss_users = 0;
  for (std::size_t u = 0; u < n_users_; ++u) {
    if (!trained[u]) continue;
    loss_sum += client_loss[u];
    ++loss_users;
  }

  if (trace.enabled()) {
    for (std::size_t u = 0; u < n_users_; ++u) {
      if (working_.user_indices[u].empty()) continue;
      trace_client_trip(trace, round, u, trip_timings[u], outcomes[u]);
      const device::TracePoint point{
          .time_s = devices_[u].clock_s(),
          .temp_c = devices_[u].temperature_c(),
          .speed = devices_[u].speed_factor(),
          .freq_ghz = devices_[u].speed_factor() *
                      device::max_cpu_ghz(devices_[u].spec())};
      trace_device_snapshot(trace, round, u, point,
                            injector_.battery_enabled()
                                ? batteries_[u].state_of_charge()
                                : -1.0);
    }
    for (const replication::ShareResolution& res : resolutions) {
      trace_replica_result(trace, round, res);
    }
  }

  // Fault bookkeeping. Survivor sample counts drive the aggregation
  // weights; with no faults they sum to total_samples exactly.
  record.client_faults.resize(n_users_);
  std::size_t survivor_samples = 0;
  for (std::size_t u = 0; u < n_users_; ++u) {
    record.client_faults[u] = outcomes[u].kind;
    record.retry_count += outcomes[u].retries;
    if (trained[u]) {
      ++record.completed_clients;
      survivor_samples += working_.user_indices[u].size();
    } else if (!working_.user_indices[u].empty()) {
      ++record.dropped_clients;
    }
  }

  if (record.completed_clients == 0 || survivor_samples == 0) {
    // Zero survivors: skip the round, keep the global model. The explicit
    // survivor_samples guard is defensive — trained clients always hold a
    // non-empty share today, but the aggregation divides by it, and an
    // all-dropped round must never turn that into a 0/0
    // (tests/fl/test_faults.cpp pins the skipped RoundRecord).
    record.skipped = true;
  } else {
    // FedAvg: weight by the client's share of the *surviving* sample
    // count (fl/aggregate.hpp keeps the reduction bit-identical at any
    // executor width), in place: every lane has finished reading the old
    // parameters.
    survivor_weighted_average(global_params_, locals, trained, share_sizes,
                              survivor_samples, executor);
    runner_.global_.set_flat_params(global_params_);
  }

  // With drops under a finite deadline the server holds the round open
  // until the deadline; otherwise the straggler's finish closes it. A
  // replicated share gates at its winning arrival instead of the primary's
  // busy time — the whole point of hedging — while losing replicas never
  // hold the round (speculative copies are abandoned once a copy is in).
  std::vector<double> gates = record.client_seconds;
  for (const replication::ShareResolution& res : resolutions) {
    if (res.arrived) gates[res.owner] = res.finish_s;
  }
  const double busiest = *std::max_element(gates.begin(), gates.end());
  record.round_seconds = (record.dropped_clients > 0 && std::isfinite(deadline))
                             ? deadline
                             : busiest;
  record.mean_train_loss = loss_users ? loss_sum / static_cast<double>(loss_users) : 0.0;
  result_.total_seconds += record.round_seconds;
  record.cumulative_seconds = result_.total_seconds;
  if (config.evaluate_each_round) {
    record.test_accuracy =
        runner_.global_.accuracy(runner_.test_.images(), runner_.test_.labels());
  }
  trace_round_end(trace, record);

  // Self-healing: fold the round into per-client health, then let the
  // replanner swap the shard plan if the fleet drifted. All serial, all
  // derived from client-indexed slots — deterministic at any parallelism.
  if (tracker_) {
    std::vector<health::HealthTracker::Observation> observed(n_users_);
    for (std::size_t u = 0; u < n_users_; ++u) {
      const auto& share = working_.user_indices[u];
      health::HealthTracker::Observation& o = observed[u];
      o.participated = !share.empty();
      // Offline profiles for the drift baseline: the reschedule plan's when
      // recovery is on, else the replication config's (either may be
      // absent; predicted <= 0 skips the drift update).
      const sched::UserProfile* prof = nullptr;
      if (u < config.reschedule.users.size()) {
        prof = &config.reschedule.users[u];
      } else if (u < config.replicate.users.size()) {
        prof = &config.replicate.users[u];
      }
      o.predicted_s =
          prof ? prof->epoch_seconds(share.size() * config.local_epochs) : 0.0;
      o.measured_s = outcomes[u].elapsed_s;
      o.fault = outcomes[u].kind;
      // A rescued share still means the *primary* faulted: health judges
      // the client's own trip, not whether a replica saved its share.
      o.completed = o.participated && outcomes[u].completed;
      o.retries = outcomes[u].retries;
      o.soc = injector_.battery_enabled() ? batteries_[u].state_of_charge() : -1.0;
    }
    tracker_->observe_round(observed);
    trace_health(trace, round, *tracker_);

    if (replanner_ && round + 1 < config.rounds && tracker_->replan_due(round)) {
      const health::ReplanOutcome outcome = replanner_->replan(*tracker_, *tracker_);
      if (outcome.replanned) {
        record.rescheduled = true;
        record.moved_shards = outcome.moved_shards;
        // Repartition with an Rng that is a pure function of (seed, round)
        // so a resumed run rebuilds the identical partition.
        common::Rng repart_rng =
            common::Rng(config.seed ^ 0xA11C0DEDULL).fork(round);
        working_ =
            replanner_->materialize(runner_.train_, total_samples, repart_rng);
        trace_reschedule(trace, round, config.reschedule.policy, outcome);
      }
      // Either way the decision stands until the next drift/status change:
      // rebaseline the drift detector (a failed replan otherwise retriggers
      // every round while the fleet cannot improve).
      tracker_->note_replan(round);
    }
  }
  result_.replica_log.insert(result_.replica_log.end(), resolutions.begin(),
                             resolutions.end());
  result_.rounds.push_back(std::move(record));


  if (config.idle_between_rounds_s > 0.0) {
    for (auto& dev : devices_) dev.idle(config.idle_between_rounds_s);
  }
  ++next_round_;
}

checkpoint::RunState FedAvgSession::checkpoint() {
  // Taken after the round's full effects (idle cooling included) so a
  // resumed session continues the exact thermal trajectory. The trace event
  // is written first so it lands inside the saved prefix.
  obs::TraceWriter& trace = this->trace();
  trace_checkpoint(trace, next_round_, result_.total_seconds);
  checkpoint::RunState state;
  state.seed = runner_.config_.seed;
  state.rounds_completed = next_round_;
  state.model_fingerprint = nn::layout_fingerprint(runner_.global_);
  state.global_params = global_params_;
  for (std::size_t u = 0; u < n_users_; ++u) {
    state.velocities.push_back(optimizers_[u].flat_velocity());
    state.device_clock_s.push_back(devices_[u].clock_s());
    state.device_temp_c.push_back(devices_[u].temperature_c());
  }
  for (const device::Battery& battery : batteries_) {
    state.battery_soc.push_back(battery.state_of_charge());
  }
  state.partition = working_;
  state.rounds = result_.rounds;
  state.total_seconds = result_.total_seconds;
  state.recovery_active = replanner_.has_value();
  state.replication_active = hedger_.has_value();
  if (tracker_) state.health = tracker_->snapshot();
  if (replanner_) {
    state.replanner_shards.assign(replanner_->current_shards().begin(),
                                  replanner_->current_shards().end());
  }
  state.replica_log = result_.replica_log;
  state.rng_words = rng_.state_words();
  state.trace_prefix = trace.captured().substr(capture_bytes_);
  state.trace_events = trace.captured_events() - capture_events_;
  return state;
}

RunResult FedAvgSession::result() const {
  RunResult result = result_;
  if (tracker_) result.client_health = tracker_->all();
  return result;
}

RunResult FedAvgSession::finish() {
  const FlConfig& config = runner_.config_;
  result_.final_accuracy =
      runner_.global_.accuracy(runner_.test_.images(), runner_.test_.labels());
  if (!result_.rounds.empty() && config.evaluate_each_round) {
    result_.rounds.back().test_accuracy = result_.final_accuracy;
  }
  const RunResult result = this->result();
  obs::TraceWriter& trace = this->trace();
  trace_run_end(trace, result.final_accuracy, result.total_seconds,
                result.rounds.size());
  trace.flush();
  if (config.metrics) record_run_metrics(*config.metrics, result);
  return result;
}

}  // namespace fedsched::fl
