#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/json.hpp"
#include "device/battery.hpp"
#include "profile/profiler.hpp"

namespace fedsched::core {

std::vector<std::string> testbed_names(const std::vector<device::PhoneModel>& phones) {
  std::map<device::PhoneModel, char> next_suffix;
  std::vector<std::string> names;
  names.reserve(phones.size());
  for (device::PhoneModel phone : phones) {
    // The paper suffixes every user: "Nexus6(a)", even when unique.
    std::string name = device::model_name(phone);
    char& suffix = next_suffix.try_emplace(phone, 'a').first->second;
    name += '(';
    name += suffix++;
    name += ')';
    names.push_back(std::move(name));
  }
  return names;
}

std::vector<sched::UserProfile> build_profiles(
    const std::vector<device::PhoneModel>& phones, const device::ModelDesc& model,
    device::NetworkType network, std::size_t total_samples,
    const ProfileOptions& options) {
  if (phones.empty()) throw std::invalid_argument("build_profiles: no phones");
  std::vector<std::size_t> anchors = options.anchor_sizes;
  if (anchors.empty()) {
    // Geometric anchor ladder up to the full dataset: captures both the cold
    // linear regime and the hot throttled regime.
    for (double frac : {0.02, 0.05, 0.125, 0.25, 0.5, 1.0}) {
      const auto size = static_cast<std::size_t>(
          std::max(1.0, frac * static_cast<double>(total_samples)));
      if (anchors.empty() || size > anchors.back()) anchors.push_back(size);
    }
  }

  // Profiles are per phone *model* (the paper profiles device types offline),
  // so duplicates in the testbed share one measurement campaign.
  std::map<device::PhoneModel, profile::TimeModelPtr> cache;
  const auto names = testbed_names(phones);
  std::vector<sched::UserProfile> users;
  users.reserve(phones.size());
  for (std::size_t u = 0; u < phones.size(); ++u) {
    const device::PhoneModel phone = phones[u];
    auto it = cache.find(phone);
    if (it == cache.end()) {
      auto measured = profile::measure_profile(phone, model, anchors,
                                               options.measurement_noise,
                                               options.seed + static_cast<int>(phone));
      it = cache.emplace(phone, std::make_shared<profile::InterpolatedTimeModel>(
                                    std::move(measured)))
               .first;
    }
    sched::UserProfile user;
    user.name = names[u];
    user.phone = phone;
    user.time_model = it->second;
    user.comm_seconds = device::round_comm_seconds(network, model);
    users.push_back(std::move(user));
  }
  return users;
}

EpochSimulation simulate_epoch(const std::vector<device::PhoneModel>& phones,
                               const device::ModelDesc& model,
                               device::NetworkType network,
                               const std::vector<std::size_t>& sample_counts) {
  if (phones.size() != sample_counts.size()) {
    throw std::invalid_argument("simulate_epoch: phones/counts size mismatch");
  }
  return simulate_epoch_faulty(phones, model, network, sample_counts, fl::FaultConfig{})
      .epoch;
}

FaultyEpochSimulation simulate_epoch_faulty(
    const std::vector<device::PhoneModel>& phones, const device::ModelDesc& model,
    device::NetworkType network, const std::vector<std::size_t>& sample_counts,
    const fl::FaultConfig& faults, double deadline_s, std::uint64_t seed,
    obs::TraceWriter* trace) {
  if (phones.size() != sample_counts.size()) {
    throw std::invalid_argument("simulate_epoch_faulty: phones/counts size mismatch");
  }
  if (std::isnan(deadline_s) || deadline_s <= 0.0) {
    throw std::invalid_argument("simulate_epoch_faulty: deadline_s must be > 0");
  }
  const bool tracing = trace != nullptr && trace->enabled();
  const fl::FaultInjector injector(faults, seed);
  FaultyEpochSimulation sim;
  sim.epoch.client_seconds.resize(phones.size(), 0.0);
  sim.client_faults.resize(phones.size(), fl::FaultKind::kNone);

  std::vector<device::Battery> batteries;
  if (injector.battery_enabled()) {
    batteries.reserve(phones.size());
    for (std::size_t u = 0; u < phones.size(); ++u) {
      batteries.emplace_back(device::battery_of(phones[u]), injector.initial_soc(u));
    }
  }

  double sum = 0.0;
  std::size_t active = 0;
  double busiest = 0.0;
  for (std::size_t u = 0; u < phones.size(); ++u) {
    if (sample_counts[u] == 0) continue;
    if (injector.battery_enabled() && batteries[u].dead(faults.battery_floor_soc)) {
      sim.client_faults[u] = fl::FaultKind::kBatteryDead;
      ++sim.dropped;
      if (tracing) {
        common::JsonObject ev;
        ev.field("ev", "epoch_client")
            .field("client", u)
            .field("samples", sample_counts[u])
            .field("elapsed_s", 0.0)
            .field("retries", std::size_t{0})
            .field("fault", fl::fault_name(fl::FaultKind::kBatteryDead))
            .field("completed", false);
        trace->write(ev);
      }
      continue;
    }
    device::Device dev(phones[u], network);
    const auto& link = device::link_of(network);
    fl::RoundTimings timings;
    timings.download_s = device::download_seconds(link, model.size_mb);
    timings.upload_s = device::upload_seconds(link, model.size_mb);
    timings.baseline_s = dev.comm_seconds(model);
    timings.compute_s = dev.train(model, sample_counts[u]);
    timings.baseline_s += timings.compute_s;

    fl::FaultOutcome outcome = injector.evaluate(0, u, timings, deadline_s);
    if (injector.battery_enabled()) {
      batteries[u].drain(fl::round_energy_wh(device::spec_of(phones[u]), model,
                                             timings.compute_s, network,
                                             outcome.comm_scale));
      if (batteries[u].dead(faults.battery_floor_soc)) {
        outcome.completed = false;
        outcome.kind = fl::FaultKind::kBatteryDead;
      }
    }
    sim.client_faults[u] = outcome.kind;
    sim.retries += outcome.retries;
    sim.epoch.client_seconds[u] = outcome.elapsed_s;
    busiest = std::max(busiest, outcome.elapsed_s);
    sum += outcome.elapsed_s;
    ++active;
    if (outcome.completed) {
      ++sim.completed;
    } else {
      ++sim.dropped;
    }
    if (tracing) {
      common::JsonObject ev;
      ev.field("ev", "epoch_client")
          .field("client", u)
          .field("samples", sample_counts[u])
          .field("download_s", timings.download_s)
          .field("compute_s", timings.compute_s)
          .field("upload_s", timings.upload_s)
          .field("elapsed_s", outcome.elapsed_s)
          .field("retries", outcome.retries)
          .field("fault", fl::fault_name(outcome.kind))
          .field("completed", outcome.completed);
      trace->write(ev);
    }
  }
  sim.epoch.makespan = (sim.dropped > 0 && std::isfinite(deadline_s))
                           ? deadline_s
                           : busiest;
  sim.epoch.mean = active ? sum / static_cast<double>(active) : 0.0;
  if (tracing) {
    common::JsonObject ev;
    ev.field("ev", "epoch_end")
        .field("makespan_s", sim.epoch.makespan)
        .field("mean_s", sim.epoch.mean)
        .field("completed", sim.completed)
        .field("dropped", sim.dropped)
        .field("retries", sim.retries);
    trace->write(ev);
  }
  return sim;
}

void apply_battery_capacity(std::vector<sched::UserProfile>& users,
                            const device::ModelDesc& model,
                            device::NetworkType network, std::size_t shard_size,
                            double state_of_charge) {
  for (auto& user : users) {
    const device::Battery battery(device::battery_of(user.phone), state_of_charge);
    const std::size_t samples = device::max_samples_within_energy(
        user.phone, model, network, battery.schedulable_wh(), shard_size);
    user.capacity_shards = samples / shard_size;
  }
}

double straggler_gap(const std::vector<double>& client_seconds) {
  double max = 0.0, sum = 0.0;
  std::size_t active = 0;
  for (double t : client_seconds) {
    if (t <= 0.0) continue;
    max = std::max(max, t);
    sum += t;
    ++active;
  }
  if (active == 0 || sum == 0.0) return 0.0;
  const double mean = sum / static_cast<double>(active);
  return (max - mean) / mean;
}

}  // namespace fedsched::core
