#include "fleet/fleet.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"
#include "device/battery.hpp"
#include "device/device.hpp"
#include "device/network.hpp"

namespace fedsched::fleet {

namespace {

std::size_t phone_index_by_name(const std::string& name) {
  for (std::size_t i = 0; i < kPhoneModelCount; ++i) {
    std::string canonical = device::model_name(device::kAllPhoneModels[i]);
    // Accept the spec-table name with separators stripped and lowercased
    // ("Nexus 6P" -> "nexus6p") so CLI mixes stay shell-friendly.
    std::string folded;
    for (char c : canonical) {
      if (c == ' ' || c == '-' || c == '_') continue;
      folded.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    if (folded == name) return i;
  }
  throw std::invalid_argument("parse_fleet_mix: unknown device '" + name + "'");
}

}  // namespace

FleetMix parse_fleet_mix(const std::string& spec) {
  FleetMix mix;
  mix.device_weights.fill(0.0);
  bool any_device = false;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string entry =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (entry.empty()) continue;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon + 1 >= entry.size()) {
      throw std::invalid_argument("parse_fleet_mix: malformed entry '" + entry + "'");
    }
    const std::string key = entry.substr(0, colon);
    double value = 0.0;
    try {
      std::size_t consumed = 0;
      value = std::stod(entry.substr(colon + 1), &consumed);
      if (consumed != entry.size() - colon - 1) throw std::invalid_argument(entry);
    } catch (const std::exception&) {
      throw std::invalid_argument("parse_fleet_mix: bad weight in '" + entry + "'");
    }
    if (!(value >= 0.0)) {
      throw std::invalid_argument("parse_fleet_mix: negative weight in '" + entry + "'");
    }
    if (key == "lte") {
      if (value > 1.0) {
        throw std::invalid_argument("parse_fleet_mix: lte fraction > 1");
      }
      mix.lte_fraction = value;
    } else {
      mix.device_weights[phone_index_by_name(key)] = value;
      any_device = true;
    }
  }
  if (!any_device) {
    throw std::invalid_argument("parse_fleet_mix: no device weights in '" + spec + "'");
  }
  double total = 0.0;
  for (double w : mix.device_weights) total += w;
  if (total <= 0.0) {
    throw std::invalid_argument("parse_fleet_mix: all device weights zero");
  }
  return mix;
}

FleetGenerator::FleetGenerator(FleetMix mix, device::ModelDesc model,
                               std::uint64_t seed)
    : mix_(std::move(mix)), model_(std::move(model)), root_(seed) {
  if (!(mix_.soc_min >= 0.0) || !(mix_.soc_max <= 1.0) ||
      mix_.soc_min > mix_.soc_max) {
    throw std::invalid_argument("FleetGenerator: bad soc range");
  }
  if (!(mix_.speed_sigma >= 0.0)) {
    throw std::invalid_argument("FleetGenerator: negative speed sigma");
  }
  if (mix_.capacity_shards == 0) {
    throw std::invalid_argument("FleetGenerator: zero capacity");
  }
  double total_weight = 0.0;
  for (double w : mix_.device_weights) {
    if (!(w >= 0.0)) throw std::invalid_argument("FleetGenerator: negative weight");
    total_weight += w;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument("FleetGenerator: all device weights zero");
  }

  // Two-point anchor per phone against the calibrated simulator: train a
  // short and a long trajectory from cold and fit the secant. Thermal
  // throttling makes the true curve superlinear; the secant folds the
  // average drift into the slope, which is the right fidelity for a tier
  // whose per-client cost must be a closed-form affine function.
  constexpr std::size_t kShortSamples = 500;
  constexpr std::size_t kLongSamples = 2500;
  for (std::size_t i = 0; i < kPhoneModelCount; ++i) {
    const device::PhoneModel phone = device::kAllPhoneModels[i];
    device::Device dev(phone);
    const double t_short = dev.train(model_, kShortSamples);
    dev.reset();
    const double t_long = dev.train(model_, kLongSamples);
    PhoneBase& base = base_[i];
    base.per_sample_s = (t_long - t_short) /
                        static_cast<double>(kLongSamples - kShortSamples);
    base.intercept_s = std::max(
        0.0, t_short - base.per_sample_s * static_cast<double>(kShortSamples));
    base.train_power_w =
        device::training_energy_wh(phone, model_, kLongSamples) * 3600.0 / t_long;
    base.battery_capacity_wh = device::battery_of(phone).capacity_wh;
    base.ambient_c = device::spec_of(phone).thermal.ambient_c;
  }
  comm_s_by_network_[0] =
      device::round_comm_seconds(device::NetworkType::kWifi, model_);
  comm_s_by_network_[1] =
      device::round_comm_seconds(device::NetworkType::kLte, model_);
  comm_energy_by_network_[0] =
      device::comm_energy_wh(device::NetworkType::kWifi, model_);
  comm_energy_by_network_[1] =
      device::comm_energy_wh(device::NetworkType::kLte, model_);
}

void FleetGenerator::extend(FleetState& state, std::size_t target_n) const {
  const std::size_t start = state.size();
  if (target_n <= start) return;
  state.device_model.resize(target_n);
  state.network.resize(target_n);
  state.speed_factor.resize(target_n);
  state.base_s.resize(target_n);
  state.per_sample_s.resize(target_n);
  state.comm_s.resize(target_n);
  state.battery_soc.resize(target_n);
  state.battery_capacity_wh.resize(target_n);
  state.train_power_w.resize(target_n);
  state.comm_energy_wh.resize(target_n);
  state.temp_c.resize(target_n);
  state.capacity_shards.resize(target_n);
  state.alive.resize(target_n);

  const std::vector<double> weights(mix_.device_weights.begin(),
                                    mix_.device_weights.end());

  for (std::size_t j = start; j < target_n; ++j) {
    // One independent stream per client, a pure function of (seed, j): the
    // draw order below is part of the format — reordering it changes every
    // fleet ever generated. Prefix stability is what lets churn joins append
    // clients bitwise-identical to a larger initial generation.
    common::Rng rng = root_.fork(j);
    const std::size_t phone = common::weighted_choice(rng, weights);
    const bool lte = rng.bernoulli(mix_.lte_fraction);
    const double soc = rng.uniform(mix_.soc_min, mix_.soc_max);
    const double speed = std::exp(mix_.speed_sigma * rng.gaussian());
    const double temp_jitter = rng.uniform(0.0, 8.0);

    const PhoneBase& base = base_[phone];
    state.device_model[j] = static_cast<std::uint8_t>(phone);
    state.network[j] = lte ? 1 : 0;
    state.speed_factor[j] = speed;
    state.base_s[j] = base.intercept_s / speed;
    state.per_sample_s[j] = base.per_sample_s / speed;
    state.comm_s[j] = comm_s_by_network_[lte ? 1 : 0];
    state.battery_soc[j] = soc;
    state.battery_capacity_wh[j] = base.battery_capacity_wh;
    state.train_power_w[j] = base.train_power_w;
    state.comm_energy_wh[j] = comm_energy_by_network_[lte ? 1 : 0];
    state.temp_c[j] = base.ambient_c + temp_jitter;
    state.capacity_shards[j] = mix_.capacity_shards;
    state.alive[j] = 1;
  }
}

FleetState FleetGenerator::generate(std::size_t n, obs::TraceWriter* trace) const {
  FleetState state;
  extend(state, n);

  if (trace != nullptr && trace->enabled()) {
    std::array<std::size_t, kPhoneModelCount> model_counts{};
    std::size_t lte_count = 0;
    for (std::size_t j = 0; j < n; ++j) {
      ++model_counts[state.device_model[j]];
      if (state.network[j] != 0) ++lte_count;
    }
    common::JsonObject ev;
    ev.field("ev", "fleet_generate").field("clients", n).field("lte", lte_count);
    for (std::size_t i = 0; i < kPhoneModelCount; ++i) {
      std::string folded;
      for (char c : std::string(device::model_name(device::kAllPhoneModels[i]))) {
        if (c == ' ' || c == '-' || c == '_') continue;
        folded.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      }
      ev.field(folded.c_str(), model_counts[i]);
    }
    trace->write(ev);
  }
  return state;
}

sched::LinearCosts linear_costs(const FleetState& state, std::size_t shard_size,
                                double battery_floor_soc,
                                const std::function<bool(std::size_t)>& schedulable) {
  const std::size_t n = state.size();
  std::vector<double> base(n);
  std::vector<double> per_shard(n);
  std::vector<std::uint32_t> capacity(n);
  std::vector<double> base_wh(n);
  std::vector<double> per_shard_wh(n);
  std::vector<double> budget_wh(n);
  for (std::size_t j = 0; j < n; ++j) {
    base[j] = state.base_s[j] + state.comm_s[j];
    per_shard[j] = state.per_sample_s[j] * static_cast<double>(shard_size);
    capacity[j] = state.alive[j] ? state.capacity_shards[j] : 0;
    // Mirrors the simulator's drain rule exactly: training power over the
    // compute span plus the per-round exchange energy.
    base_wh[j] = state.train_power_w[j] * state.base_s[j] / 3600.0 +
                 state.comm_energy_wh[j];
    per_shard_wh[j] = state.train_power_w[j] * per_shard[j] / 3600.0;
    budget_wh[j] = std::max(0.0, state.battery_soc[j] - battery_floor_soc) *
                   state.battery_capacity_wh[j];
  }
  if (schedulable) {
    for (std::size_t j = 0; j < n; ++j) {
      if (capacity[j] != 0 && !schedulable(j)) capacity[j] = 0;
    }
  }
  sched::LinearCosts costs(std::move(base), std::move(per_shard),
                           std::move(capacity), shard_size);
  costs.set_energy(std::move(base_wh), std::move(per_shard_wh),
                   std::move(budget_wh));
  return costs;
}

}  // namespace fedsched::fleet
