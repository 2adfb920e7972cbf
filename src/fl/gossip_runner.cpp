#include "fl/gossip_runner.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "device/battery.hpp"
#include "fl/report.hpp"
#include "fl/trainer.hpp"

namespace fedsched::fl {

const char* topology_name(Topology topology) noexcept {
  switch (topology) {
    case Topology::kRing: return "ring";
    case Topology::kComplete: return "complete";
  }
  return "?";
}

std::vector<std::vector<std::size_t>> build_topology(Topology topology,
                                                     std::size_t n) {
  if (n == 0) throw std::invalid_argument("build_topology: no clients");
  std::vector<std::vector<std::size_t>> neighbors(n);
  switch (topology) {
    case Topology::kRing:
      for (std::size_t u = 0; u < n; ++u) {
        if (n == 1) break;
        const std::size_t prev = (u + n - 1) % n;
        const std::size_t next = (u + 1) % n;
        neighbors[u].push_back(prev);
        if (next != prev) neighbors[u].push_back(next);
      }
      break;
    case Topology::kComplete:
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = 0; v < n; ++v) {
          if (v != u) neighbors[u].push_back(v);
        }
      }
      break;
  }
  return neighbors;
}

GossipRunner::GossipRunner(const data::Dataset& train, const data::Dataset& test,
                           nn::ModelSpec model_spec, device::ModelDesc device_model,
                           std::vector<device::PhoneModel> phones,
                           device::NetworkType network, GossipConfig config)
    : train_(train),
      test_(test),
      model_spec_(model_spec),
      device_model_(std::move(device_model)),
      phones_(std::move(phones)),
      network_(network),
      config_(config),
      executor_(model_spec, config.parallelism) {
  if (phones_.empty()) throw std::invalid_argument("GossipRunner: no devices");
}

GossipRunResult GossipRunner::run(const data::Partition& partition) {
  const std::size_t n = phones_.size();
  if (partition.users() != n) {
    throw std::invalid_argument("GossipRunner::run: partition/device count mismatch");
  }
  bool any_data = false;
  for (const auto& share : partition.user_indices) any_data |= !share.empty();
  if (!any_data) throw std::invalid_argument("GossipRunner::run: empty partition");

  // Self-healing (shared membership view): health folds each round's
  // verdicts; the replanner redistributes shares away from drifted/dead
  // peers. Off policy = bit-identical to the static-plan behaviour.
  const bool recovery = config_.reschedule.enabled();
  const bool hedging = config_.replicate.enabled();
  std::optional<health::HealthTracker> tracker;
  std::optional<health::Replanner> replanner;
  std::optional<replication::ReplicationPlanner> hedger;
  if (recovery || hedging) tracker.emplace(config_.reschedule.health, n);
  if (recovery) replanner.emplace(config_.reschedule, n);
  if (hedging) hedger.emplace(config_.replicate, n);
  data::Partition working = partition;

  const auto neighbors = build_topology(config_.topology, n);
  std::vector<device::Device> devices;
  devices.reserve(n);
  for (device::PhoneModel phone : phones_) devices.emplace_back(phone, network_);
  std::vector<nn::Sgd> optimizers(n, nn::Sgd(config_.sgd));
  common::Rng rng(config_.seed ^ 0x5151515151ULL);

  const FaultInjector injector(config_.faults, config_.seed);
  const double deadline = config_.deadline_s;
  std::vector<device::Battery> batteries;
  if (injector.battery_enabled()) {
    batteries.reserve(n);
    for (std::size_t u = 0; u < n; ++u) {
      batteries.emplace_back(device::battery_of(phones_[u]), injector.initial_soc(u));
    }
  }

  // Every client starts from the same initialization (a shared seed model,
  // as decentralized training assumes).
  common::Rng init_rng(config_.seed);
  nn::Model seed_model = nn::build_model(model_spec_, init_rng);
  std::vector<std::vector<float>> params(n, seed_model.flat_params());

  GossipRunResult result;
  std::vector<double> client_loss(n, 0.0);
  std::vector<char> has_loss(n, 0);
  std::vector<common::Rng> client_rngs(n);
  std::vector<FaultOutcome> outcomes(n);
  std::vector<RoundTimings> trip_timings(n);

  // Observability: emitted only from the serial sections, in client order
  // (see FedAvgRunner::run for the width-invariance argument).
  obs::TraceWriter null_trace;
  obs::TraceWriter& trace = config_.trace ? *config_.trace : null_trace;
  trace_run_start(trace, "gossip", n, config_.rounds, config_.seed,
                  config_.deadline_s, config_.faults.enabled);

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    RoundRecord record;
    record.round = round;
    record.client_seconds.assign(n, 0.0);
    trace_round_start(trace, round);

    // Share sizes size the hedge plan and order the executor's claims
    // (largest first).
    std::vector<std::size_t> share_sizes(n);
    for (std::size_t u = 0; u < n; ++u) share_sizes[u] = working.user_indices[u].size();

    // Hedge plan (see FedAvgRunner::run): decided serially before any lane
    // runs. Gossip trains one epoch per round.
    replication::RoundPlan hedge_plan;
    if (hedging) {
      hedge_plan = hedger->plan(*tracker, share_sizes, 1);
      record.replicas_assigned = hedge_plan.assignments.size();
      if (!hedge_plan.empty()) trace_replication_plan(trace, round, hedge_plan);
    }

    for (std::size_t u = 0; u < n; ++u) client_rngs[u] = rng.fork(round * n + u);
    std::fill(has_loss.begin(), has_loss.end(), 0);
    std::fill(outcomes.begin(), outcomes.end(), FaultOutcome{});
    std::fill(trip_timings.begin(), trip_timings.end(), RoundTimings{});

    // 1. Local training on each client's own parameters — clients only
    // write their own slots, so they run concurrently.
    std::vector<std::vector<float>> trained = params;
    executor_.for_each_client(n, [&](std::size_t u, nn::Model& worker) {
      const auto& share = working.user_indices[u];
      if (share.empty()) return;

      if (injector.battery_enabled() &&
          batteries[u].dead(config_.faults.battery_floor_soc)) {
        outcomes[u] = {.kind = FaultKind::kBatteryDead, .completed = false};
        return;
      }

      // Time: one epoch + one upload + `degree` neighbor downloads.
      const auto& link = device::link_of(network_);
      RoundTimings timings;
      timings.upload_s = device::upload_seconds(link, device_model_.size_mb);
      timings.download_s = static_cast<double>(neighbors[u].size()) *
                           device::download_seconds(link, device_model_.size_mb);
      timings.compute_s = devices[u].train(device_model_, share.size());
      timings.baseline_s = timings.compute_s;
      timings.baseline_s += timings.upload_s;
      timings.baseline_s += timings.download_s;
      trip_timings[u] = timings;

      FaultOutcome outcome = injector.evaluate(round, u, timings, deadline);
      if (injector.battery_enabled()) {
        batteries[u].drain(round_energy_wh(device::spec_of(phones_[u]), device_model_,
                                           timings.compute_s, network_,
                                           outcome.comm_scale));
        if (batteries[u].dead(config_.faults.battery_floor_soc)) {
          outcome.completed = false;
          outcome.kind = FaultKind::kBatteryDead;
        }
      }
      record.client_seconds[u] = outcome.elapsed_s;
      outcomes[u] = outcome;
      if (!outcome.completed) return;  // update lost; keeps pre-round params

      worker.set_flat_params(params[u]);
      const auto stats = train_epoch(worker, optimizers[u], train_, share,
                                     config_.batch_size, client_rngs[u]);
      client_loss[u] = stats.mean_loss;
      has_loss[u] = 1;
      trained[u] = worker.flat_params();
    }, share_sizes);

    // Speculative copies: the host re-trains the owner's share after its own
    // epoch (extra compute on its clock, extra upload, extra battery drain;
    // the host's own fault verdict applies). Serial, plan order — see
    // FedAvgRunner::run for the width-invariance argument.
    std::vector<replication::ReplicaOutcome> replica_outcomes;
    std::vector<replication::ShareResolution> resolutions;
    std::vector<char> rescued(n, 0);
    if (!hedge_plan.empty()) {
      for (const replication::ReplicaAssignment& a : hedge_plan.assignments) {
        replication::ReplicaOutcome ro;
        ro.owner = a.owner;
        ro.host = a.host;
        const FaultOutcome& host_out = outcomes[a.host];
        if (!host_out.completed) {
          ro.finish_s = host_out.elapsed_s;
          ro.kind = host_out.kind;
        } else {
          const double copy_compute = devices[a.host].train(
              device_model_, working.user_indices[a.owner].size());
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
      for (std::size_t u = 0; u < n; ++u) {
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

    // Rescue pass: re-derive the exact update the dropped primary would have
    // produced (same pre-round params, same RNG fork, same optimizer — the
    // primary's lane returned before touching either), so the fleet mixes
    // the saved share as if the owner had been online.
    if (record.shares_rescued > 0) {
      executor_.for_each_client(n, [&](std::size_t u, nn::Model& worker) {
        if (!rescued[u]) return;
        const auto& share = working.user_indices[u];
        worker.set_flat_params(params[u]);
        const auto stats = train_epoch(worker, optimizers[u], train_, share,
                                       config_.batch_size, client_rngs[u]);
        client_loss[u] = stats.mean_loss;
        has_loss[u] = 1;
        trained[u] = worker.flat_params();
      }, share_sizes);
    }

    double loss_sum = 0.0;
    std::size_t loss_users = 0;
    for (std::size_t u = 0; u < n; ++u) {
      if (!has_loss[u]) continue;
      loss_sum += client_loss[u];
      ++loss_users;
    }

    if (trace.enabled()) {
      for (std::size_t u = 0; u < n; ++u) {
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

    // Fault bookkeeping: `online[u]` = the client exchanged models this
    // round. Dataless clients are online (they mix neighbors but weigh 0);
    // dropped participants are not — neighbors renormalize without them.
    record.client_faults.resize(n);
    std::vector<char> online(n, 1);
    for (std::size_t u = 0; u < n; ++u) {
      record.client_faults[u] = outcomes[u].kind;
      record.retry_count += outcomes[u].retries;
      if (working.user_indices[u].empty()) continue;
      if (has_loss[u]) {
        ++record.completed_clients;
      } else {
        ++record.dropped_clients;
        online[u] = 0;
      }
    }
    record.skipped = record.completed_clients == 0;

    // 2. Gossip averaging over closed neighborhoods, weighted by data size.
    // Every mixed[u] reads the frozen `trained` snapshot and sums its
    // neighborhood in fixed order, so the mixing parallelizes per client.
    std::vector<std::vector<float>> mixed(n);
    executor_.for_each_index(n, [&](std::size_t u) {
      if (!online[u]) {
        mixed[u] = params[u];  // offline: local training and exchanges lost
        return;
      }
      double total_weight = static_cast<double>(working.user_indices[u].size());
      std::vector<float> acc(trained[u].size(), 0.0f);
      auto accumulate = [&](std::size_t v, double w) {
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] += static_cast<float>(w) * trained[v][i];
        }
      };
      accumulate(u, static_cast<double>(working.user_indices[u].size()));
      for (std::size_t v : neighbors[u]) {
        if (!online[v]) continue;  // dropped neighbor never sent its model
        const double w = static_cast<double>(working.user_indices[v].size());
        total_weight += w;
        accumulate(v, w);
      }
      if (total_weight <= 0.0) {
        mixed[u] = trained[u];  // isolated, dataless client keeps its params
        return;
      }
      for (float& x : acc) x /= static_cast<float>(total_weight);
      mixed[u] = std::move(acc);
    });
    params = std::move(mixed);

    // A replicated share gates at its winning arrival; losing copies never
    // hold the round (see FedAvgRunner::run).
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
    trace_round_end(trace, record);

    // Self-healing: same serial fold + replan as FedAvgRunner::run (which
    // documents the ordering); gossip has one local epoch per round.
    if (recovery || hedging) {
      std::vector<health::HealthTracker::Observation> observed(n);
      for (std::size_t u = 0; u < n; ++u) {
        const auto& share = working.user_indices[u];
        health::HealthTracker::Observation& o = observed[u];
        o.participated = !share.empty();
        const sched::UserProfile* prof = nullptr;
        if (u < config_.reschedule.users.size()) {
          prof = &config_.reschedule.users[u];
        } else if (u < config_.replicate.users.size()) {
          prof = &config_.replicate.users[u];
        }
        o.predicted_s = prof ? prof->epoch_seconds(share.size()) : 0.0;
        o.measured_s = outcomes[u].elapsed_s;
        o.fault = outcomes[u].kind;
        // Health judges the primary's own trip; a rescue doesn't absolve it.
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
          common::Rng repart_rng =
              common::Rng(config_.seed ^ 0xA11C0DEDULL).fork(round);
          working = replanner->materialize(train_, working.total(), repart_rng);
          trace_reschedule(trace, round, config_.reschedule.policy, outcome);
        }
        tracker->note_replan(round);
      }
    }
    result.replica_log.insert(result.replica_log.end(), resolutions.begin(),
                              resolutions.end());
    result.rounds.push_back(std::move(record));
  }

  if (recovery || hedging) result.client_health = tracker->all();

  // Final evaluation of every client's model + consensus gap. Each client's
  // accuracy and pairwise-gap row is independent; the mean and max reduce
  // serially in client order.
  result.client_accuracy.resize(n);
  executor_.for_each_client(n, [&](std::size_t u, nn::Model& worker) {
    worker.set_flat_params(params[u]);
    result.client_accuracy[u] = worker.accuracy(test_.images(), test_.labels());
  });
  double acc_sum = 0.0;
  for (std::size_t u = 0; u < n; ++u) acc_sum += result.client_accuracy[u];
  result.mean_accuracy = acc_sum / static_cast<double>(n);

  std::vector<double> row_gap(n, 0.0);
  executor_.for_each_index(n, [&](std::size_t u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      double sq = 0.0;
      for (std::size_t i = 0; i < params[u].size(); ++i) {
        const double diff = params[u][i] - params[v][i];
        sq += diff * diff;
      }
      row_gap[u] = std::max(row_gap[u], std::sqrt(sq));
    }
  });
  for (double gap : row_gap) result.consensus_gap = std::max(result.consensus_gap, gap);
  trace_run_end(trace, result.mean_accuracy, result.total_seconds,
                result.rounds.size());
  trace.flush();
  if (config_.metrics) record_run_metrics(*config_.metrics, result);
  return result;
}

}  // namespace fedsched::fl
