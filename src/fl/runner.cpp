#include "fl/runner.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
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
  if (partition.users() != phones_.size()) {
    throw std::invalid_argument("FedAvgRunner::run: partition/device count mismatch");
  }
  const std::size_t n_users = phones_.size();

  // Self-healing loop state: health tracking feeds the replanner, which may
  // swap the working partition between rounds. Both live only when the
  // policy is on; an off policy leaves the run bit-identical to older builds.
  const bool recovery = config_.reschedule.enabled();
  // Replication reads risk from the same tracker; it works with recovery off
  // (the tracker then only serves the hedge planner).
  const bool hedging = config_.replicate.enabled();
  std::optional<health::HealthTracker> tracker;
  std::optional<health::Replanner> replanner;
  std::optional<replication::ReplicationPlanner> hedger;
  if (recovery || hedging) tracker.emplace(config_.reschedule.health, n_users);
  if (recovery) replanner.emplace(config_.reschedule, n_users);
  if (hedging) hedger.emplace(config_.replicate, n_users);
  // Mutable copy: the replanner reassigns shares, and resume restores the
  // partition in force when the checkpoint was written.
  data::Partition working = partition;

  std::vector<device::Device> devices;
  devices.reserve(n_users);
  for (device::PhoneModel phone : phones_) devices.emplace_back(phone, network_);

  std::vector<nn::Sgd> optimizers(n_users, nn::Sgd(config_.sgd));
  common::Rng rng(config_.seed ^ 0xF1F1F1F1ULL);

  // Faults and deadlines. The injector's draws are pure functions of
  // (round, client), and batteries are client-indexed, so the fault path
  // keeps the parallelism determinism contract.
  const FaultInjector injector(config_.faults, config_.seed);
  const double deadline = config_.deadline_s;
  std::vector<device::Battery> batteries;
  if (injector.battery_enabled()) {
    batteries.reserve(n_users);
    for (std::size_t u = 0; u < n_users; ++u) {
      batteries.emplace_back(device::battery_of(phones_[u]), injector.initial_soc(u));
    }
  }

  RunResult result;
  std::vector<float> global_params = global_.flat_params();
  std::vector<float> aggregate(global_params.size());

  // Client-indexed slots the parallel section writes into; reduced in fixed
  // client order below so every parallelism width gives identical results.
  std::vector<std::vector<float>> locals(n_users);
  std::vector<double> client_loss(n_users, 0.0);
  std::vector<char> trained(n_users, 0);
  std::vector<common::Rng> client_rngs(n_users);
  std::vector<FaultOutcome> outcomes(n_users);
  std::vector<RoundTimings> trip_timings(n_users);

  // Null-safe observability sinks: every emitter no-ops on a disabled
  // writer, and all emission happens in the serial sections in fixed client
  // order — the trace is byte-identical at every parallelism width.
  obs::TraceWriter null_trace;
  obs::TraceWriter& trace = config_.trace ? *config_.trace : null_trace;
  const CheckpointConfig& ckpt = config_.checkpoint;
  // Mirror trace bytes into memory so checkpoints can store the prefix; a
  // resumed run replays its saved prefix and keeps capturing for the next
  // checkpoint, so the final trace file is byte-identical either way.
  if (ckpt.save_enabled() || !ckpt.resume_from.empty()) trace.enable_capture();

  std::size_t start_round = 0;
  if (!ckpt.resume_from.empty()) {
    checkpoint::RunState state = checkpoint::load_checkpoint(ckpt.resume_from);
    if (state.seed != config_.seed) {
      throw std::runtime_error("FedAvgRunner: checkpoint seed mismatch");
    }
    if (state.device_clock_s.size() != n_users ||
        state.device_temp_c.size() != n_users || state.velocities.size() != n_users ||
        state.partition.users() != n_users) {
      throw std::runtime_error("FedAvgRunner: checkpoint fleet size mismatch");
    }
    if (state.model_fingerprint != nn::layout_fingerprint(global_) ||
        state.global_params.size() != global_.param_count()) {
      throw std::runtime_error("FedAvgRunner: checkpoint model mismatch");
    }
    if (state.rounds_completed > config_.rounds) {
      throw std::runtime_error("FedAvgRunner: checkpoint is past the round budget");
    }
    if (state.recovery_active != recovery) {
      throw std::runtime_error("FedAvgRunner: checkpoint reschedule config mismatch");
    }
    if (state.replication_active != hedging) {
      throw std::runtime_error("FedAvgRunner: checkpoint replication config mismatch");
    }
    global_params = std::move(state.global_params);
    global_.set_flat_params(global_params);
    for (std::size_t u = 0; u < n_users; ++u) {
      optimizers[u].set_flat_velocity(global_, state.velocities[u]);
      devices[u].restore(state.device_clock_s[u], state.device_temp_c[u]);
    }
    if (injector.battery_enabled()) {
      if (state.battery_soc.size() != n_users) {
        throw std::runtime_error("FedAvgRunner: checkpoint lacks battery state");
      }
      for (std::size_t u = 0; u < n_users; ++u) {
        batteries[u] =
            device::Battery(device::battery_of(phones_[u]), state.battery_soc[u]);
      }
    }
    working = std::move(state.partition);
    result.rounds = std::move(state.rounds);
    result.total_seconds = state.total_seconds;
    result.replica_log = std::move(state.replica_log);
    if (recovery || hedging) tracker->restore(state.health);
    if (recovery) {
      replanner->restore_shards(std::vector<std::size_t>(
          state.replanner_shards.begin(), state.replanner_shards.end()));
    }
    rng.set_state_words(state.rng_words);
    start_round = static_cast<std::size_t>(state.rounds_completed);
    // Replay the interrupted run's trace verbatim (includes run_start).
    if (trace.enabled()) {
      trace.write_raw(state.trace_prefix,
                      static_cast<std::size_t>(state.trace_events));
    }
  } else {
    trace_run_start(trace, "fedavg", n_users, config_.rounds, config_.seed,
                    config_.deadline_s, config_.faults.enabled);
  }

  for (std::size_t round = start_round; round < config_.rounds; ++round) {
    RoundRecord record;
    record.round = round;
    record.client_seconds.assign(n_users, 0.0);
    trace_round_start(trace, round);

    // Share sizes weight the aggregation, size the hedge plan and order the
    // executor's claims (largest first).
    std::vector<std::size_t> share_sizes(n_users);
    std::size_t total_samples = 0;
    for (std::size_t u = 0; u < n_users; ++u) {
      share_sizes[u] = working.user_indices[u].size();
      total_samples += share_sizes[u];
    }
    if (total_samples == 0) {
      throw std::invalid_argument("FedAvgRunner::run: empty partition");
    }

    // Hedge plan for the round: which at-risk shares get speculative copies
    // and on which hosts. Decided serially from tracker state before any
    // client runs, so the plan is identical at every parallelism width.
    replication::RoundPlan hedge_plan;
    if (hedging) {
      hedge_plan = hedger->plan(*tracker, share_sizes, config_.local_epochs);
      record.replicas_assigned = hedge_plan.assignments.size();
      if (!hedge_plan.empty()) trace_replication_plan(trace, round, hedge_plan);
    }

    // Seed streams are forked serially; fork() is a pure function of the
    // parent state, so the streams match the serial path exactly.
    for (std::size_t u = 0; u < n_users; ++u) {
      client_rngs[u] = rng.fork(round * n_users + u);
    }
    std::fill(trained.begin(), trained.end(), 0);
    std::fill(outcomes.begin(), outcomes.end(), FaultOutcome{});
    std::fill(trip_timings.begin(), trip_timings.end(), RoundTimings{});

    executor_.for_each_client(n_users, [&](std::size_t u, nn::Model& worker) {
      const auto& share = working.user_indices[u];
      if (share.empty()) return;

      // A battery at the floor killed the client before the round started.
      if (injector.battery_enabled() &&
          batteries[u].dead(config_.faults.battery_floor_soc)) {
        outcomes[u] = {.kind = FaultKind::kBatteryDead, .completed = false};
        return;
      }

      // Simulated wall-clock: model pull + local epochs + model push. Each
      // device is only ever advanced by its own client.
      const auto& link = device::link_of(network_);
      RoundTimings timings;
      timings.download_s = device::download_seconds(link, device_model_.size_mb);
      timings.upload_s = device::upload_seconds(link, device_model_.size_mb);
      timings.baseline_s = devices[u].comm_seconds(device_model_);
      timings.compute_s = devices[u].train(device_model_,
                                           share.size() * config_.local_epochs);
      timings.baseline_s += timings.compute_s;
      trip_timings[u] = timings;

      FaultOutcome outcome = injector.evaluate(round, u, timings, deadline);
      if (injector.battery_enabled()) {
        batteries[u].drain(round_energy_wh(device::spec_of(phones_[u]), device_model_,
                                           timings.compute_s, network_,
                                           outcome.comm_scale));
        // Hitting the floor mid-round kills the upload too.
        if (batteries[u].dead(config_.faults.battery_floor_soc)) {
          outcome.completed = false;
          outcome.kind = FaultKind::kBatteryDead;
        }
      }
      record.client_seconds[u] = outcome.elapsed_s;
      outcomes[u] = outcome;
      if (!outcome.completed) return;  // update lost; local training discarded

      // Real training for the accuracy signal.
      worker.set_flat_params(global_params);
      EpochStats stats;
      for (std::size_t e = 0; e < config_.local_epochs; ++e) {
        stats = train_epoch(worker, optimizers[u], train_, share, config_.batch_size,
                            client_rngs[u]);
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
    std::vector<char> rescued(n_users, 0);
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
          const double copy_compute = devices[a.host].train(
              device_model_,
              working.user_indices[a.owner].size() * config_.local_epochs);
          ro.finish_s = host_out.elapsed_s + copy_compute +
                        trip_timings[a.host].upload_s * host_out.comm_scale;
          ro.completed = true;
          if (injector.battery_enabled()) {
            batteries[a.host].drain(
                round_energy_wh(device::spec_of(phones_[a.host]), device_model_,
                                copy_compute, network_, host_out.comm_scale));
            if (batteries[a.host].dead(config_.faults.battery_floor_soc)) {
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
      for (std::size_t u = 0; u < n_users; ++u) {
        std::vector<replication::ReplicaOutcome> mine;
        for (const auto& ro : replica_outcomes) {
          if (ro.owner == u) mine.push_back(ro);
        }
        if (mine.empty()) continue;
        const bool primary_ok =
            outcomes[u].completed && !working.user_indices[u].empty();
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
      executor_.for_each_client(n_users, [&](std::size_t u, nn::Model& worker) {
        if (!rescued[u]) return;
        const auto& share = working.user_indices[u];
        worker.set_flat_params(global_params);
        EpochStats stats;
        for (std::size_t e = 0; e < config_.local_epochs; ++e) {
          stats = train_epoch(worker, optimizers[u], train_, share,
                              config_.batch_size, client_rngs[u]);
        }
        client_loss[u] = stats.mean_loss;
        trained[u] = 1;
        locals[u] = worker.flat_params();
      }, share_sizes);
    }

    double loss_sum = 0.0;
    std::size_t loss_users = 0;
    for (std::size_t u = 0; u < n_users; ++u) {
      if (!trained[u]) continue;
      loss_sum += client_loss[u];
      ++loss_users;
    }

    if (trace.enabled()) {
      for (std::size_t u = 0; u < n_users; ++u) {
        if (working.user_indices[u].empty()) continue;
        trace_client_trip(trace, round, u, trip_timings[u], outcomes[u]);
        const device::TracePoint point{
            .time_s = devices[u].clock_s(),
            .temp_c = devices[u].temperature_c(),
            .speed = devices[u].speed_factor(),
            .freq_ghz = devices[u].speed_factor() *
                        device::max_cpu_ghz(devices[u].spec())};
        trace_device_snapshot(trace, round, u, point,
                              injector.battery_enabled()
                                  ? batteries[u].state_of_charge()
                                  : -1.0);
      }
      for (const replication::ShareResolution& res : resolutions) {
        trace_replica_result(trace, round, res);
      }
    }

    // Fault bookkeeping. Survivor sample counts drive the aggregation
    // weights; with no faults they sum to total_samples exactly.
    record.client_faults.resize(n_users);
    std::size_t survivor_samples = 0;
    for (std::size_t u = 0; u < n_users; ++u) {
      record.client_faults[u] = outcomes[u].kind;
      record.retry_count += outcomes[u].retries;
      if (trained[u]) {
        ++record.completed_clients;
        survivor_samples += working.user_indices[u].size();
      } else if (!working.user_indices[u].empty()) {
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
      // executor width).
      survivor_weighted_average(aggregate, locals, trained, share_sizes,
                                survivor_samples, executor_);

      global_params = aggregate;
      global_.set_flat_params(global_params);
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
    result.total_seconds += record.round_seconds;
    record.cumulative_seconds = result.total_seconds;
    if (config_.evaluate_each_round) {
      record.test_accuracy = global_.accuracy(test_.images(), test_.labels());
    }
    trace_round_end(trace, record);

    // Self-healing: fold the round into per-client health, then let the
    // replanner swap the shard plan if the fleet drifted. All serial, all
    // derived from client-indexed slots — deterministic at any parallelism.
    if (recovery || hedging) {
      std::vector<health::HealthTracker::Observation> observed(n_users);
      for (std::size_t u = 0; u < n_users; ++u) {
        const auto& share = working.user_indices[u];
        health::HealthTracker::Observation& o = observed[u];
        o.participated = !share.empty();
        // Offline profiles for the drift baseline: the reschedule plan's when
        // recovery is on, else the replication config's (either may be
        // absent; predicted <= 0 skips the drift update).
        const sched::UserProfile* prof = nullptr;
        if (u < config_.reschedule.users.size()) {
          prof = &config_.reschedule.users[u];
        } else if (u < config_.replicate.users.size()) {
          prof = &config_.replicate.users[u];
        }
        o.predicted_s =
            prof ? prof->epoch_seconds(share.size() * config_.local_epochs) : 0.0;
        o.measured_s = outcomes[u].elapsed_s;
        o.fault = outcomes[u].kind;
        // A rescued share still means the *primary* faulted: health judges
        // the client's own trip, not whether a replica saved its share.
        o.completed = o.participated && outcomes[u].completed;
        o.retries = outcomes[u].retries;
        o.soc = injector.battery_enabled() ? batteries[u].state_of_charge() : -1.0;
      }
      tracker->observe_round(observed);
      trace_health(trace, round, *tracker);

      if (recovery && round + 1 < config_.rounds && tracker->replan_due(round)) {
        const health::ReplanOutcome outcome = replanner->replan(*tracker, *tracker);
        if (outcome.replanned) {
          record.rescheduled = true;
          record.moved_shards = outcome.moved_shards;
          // Repartition with an Rng that is a pure function of (seed, round)
          // so a resumed run rebuilds the identical partition.
          common::Rng repart_rng =
              common::Rng(config_.seed ^ 0xA11C0DEDULL).fork(round);
          working = replanner->materialize(train_, total_samples, repart_rng);
          trace_reschedule(trace, round, config_.reschedule.policy, outcome);
        }
        // Either way the decision stands until the next drift/status change:
        // rebaseline the drift detector (a failed replan otherwise retriggers
        // every round while the fleet cannot improve).
        tracker->note_replan(round);
      }
    }
    result.replica_log.insert(result.replica_log.end(), resolutions.begin(),
                              resolutions.end());
    result.rounds.push_back(std::move(record));

    if (config_.idle_between_rounds_s > 0.0) {
      for (auto& dev : devices) dev.idle(config_.idle_between_rounds_s);
    }

    // Checkpoint after the round's full effects (including idle cooling) so
    // resume continues the exact thermal trajectory. The trace event is
    // written first so it lands inside the saved prefix.
    const std::size_t completed = round + 1;
    if (ckpt.due(completed)) {
      trace_checkpoint(trace, completed, result.total_seconds);
      checkpoint::RunState state;
      state.seed = config_.seed;
      state.rounds_completed = completed;
      state.model_fingerprint = nn::layout_fingerprint(global_);
      state.global_params = global_params;
      state.velocities.resize(n_users);
      state.device_clock_s.resize(n_users);
      state.device_temp_c.resize(n_users);
      for (std::size_t u = 0; u < n_users; ++u) {
        state.velocities[u] = optimizers[u].flat_velocity();
        state.device_clock_s[u] = devices[u].clock_s();
        state.device_temp_c[u] = devices[u].temperature_c();
      }
      if (injector.battery_enabled()) {
        state.battery_soc.resize(n_users);
        for (std::size_t u = 0; u < n_users; ++u) {
          state.battery_soc[u] = batteries[u].state_of_charge();
        }
      }
      state.partition = working;
      state.rounds = result.rounds;
      state.total_seconds = result.total_seconds;
      state.recovery_active = recovery;
      state.replication_active = hedging;
      if (recovery || hedging) state.health = tracker->snapshot();
      if (recovery) {
        state.replanner_shards.assign(replanner->current_shards().begin(),
                                      replanner->current_shards().end());
      }
      state.replica_log = result.replica_log;
      state.rng_words = rng.state_words();
      if (trace.capture_enabled()) {
        state.trace_prefix = trace.captured();
        state.trace_events = trace.captured_events();
      }
      checkpoint::save_checkpoint(state, ckpt.path);
    }
    if (ckpt.halt_after_rounds > 0 && completed == ckpt.halt_after_rounds) {
      // Deterministic kill: the checkpoint above is on disk; stop cleanly
      // without the final evaluation or run_end event.
      result.halted = true;
      if (recovery || hedging) result.client_health = tracker->all();
      trace.flush();
      return result;
    }
  }

  if (recovery || hedging) result.client_health = tracker->all();
  result.final_accuracy = global_.accuracy(test_.images(), test_.labels());
  if (!result.rounds.empty() && config_.evaluate_each_round) {
    result.rounds.back().test_accuracy = result.final_accuracy;
  }
  trace_run_end(trace, result.final_accuracy, result.total_seconds,
                result.rounds.size());
  trace.flush();
  if (config_.metrics) record_run_metrics(*config_.metrics, result);
  return result;
}

}  // namespace fedsched::fl
