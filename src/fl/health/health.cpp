#include "fl/health/health.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fedsched::fl::health {

void HealthConfig::validate() const {
  if (!(ewma_alpha > 0.0) || ewma_alpha > 1.0) {
    throw std::invalid_argument("HealthConfig: ewma_alpha must be in (0, 1]");
  }
  if (!(drift_threshold > 0.0)) {
    throw std::invalid_argument("HealthConfig: drift_threshold must be > 0");
  }
  if (probation_streak == 0) {
    throw std::invalid_argument("HealthConfig: probation_streak must be >= 1");
  }
  if (probation_rounds == 0 || probation_max_rounds < probation_rounds) {
    throw std::invalid_argument("HealthConfig: probation_rounds must be in [1, probation_max_rounds]");
  }
  if (blacklist_faults == 0) {
    throw std::invalid_argument("HealthConfig: blacklist_faults must be >= 1");
  }
  if (battery_horizon_rounds < 0.0) {
    throw std::invalid_argument("HealthConfig: battery_horizon_rounds must be >= 0");
  }
  if (battery_floor_soc < 0.0 || battery_floor_soc >= 1.0) {
    throw std::invalid_argument("HealthConfig: battery_floor_soc must be in [0, 1)");
  }
}

const char* status_name(ClientStatus status) noexcept {
  switch (status) {
    case ClientStatus::kHealthy: return "healthy";
    case ClientStatus::kProbation: return "probation";
    case ClientStatus::kBlacklisted: return "blacklisted";
    case ClientStatus::kDead: return "dead";
  }
  return "unknown";
}

HealthTracker::HealthTracker(HealthConfig config, std::size_t n_clients)
    : config_(config),
      clients_(n_clients),
      planned_multiplier_(n_clients, 1.0) {
  config_.validate();
  if (n_clients == 0) {
    throw std::invalid_argument("HealthTracker: need at least one client");
  }
}

void HealthTracker::observe_round(const std::vector<Observation>& observations) {
  if (observations.size() != clients_.size()) {
    throw std::invalid_argument("HealthTracker: observation count != client count");
  }
  // Tick probation clocks first: a benched client sits out this round whether
  // or not anyone trained, and rejoins once its clock hits zero.
  for (auto& c : clients_) {
    if (c.status == ClientStatus::kProbation && c.probation_remaining > 0) {
      if (--c.probation_remaining == 0) {
        c.status = ClientStatus::kHealthy;
        c.fault_streak = 0;
        status_dirty_ = true;
      }
    }
  }
  for (std::size_t u = 0; u < observations.size(); ++u) {
    const Observation& o = observations[u];
    ClientHealth& c = clients_[u];
    if (o.soc >= 0.0) {
      if (c.soc >= 0.0) {
        const double drop = std::max(0.0, c.soc - o.soc);
        c.soc_drop_ewma =
            (1.0 - config_.ewma_alpha) * c.soc_drop_ewma + config_.ewma_alpha * drop;
      }
      c.soc = o.soc;
    }
    if (!o.participated) continue;
    c.total_retries += o.retries;
    if (o.fault == FaultKind::kBatteryDead) {
      // Battery hit the floor mid-round: permanently out, no retry can help.
      c.status = ClientStatus::kDead;
      c.total_faults += 1;
      status_dirty_ = true;
      continue;
    }
    if (o.completed) {
      c.fault_streak = 0;
      if (o.predicted_s > 0.0 && o.measured_s > 0.0) {
        const double ratio = o.measured_s / o.predicted_s;
        c.speed_ewma = c.has_observation
                           ? (1.0 - config_.ewma_alpha) * c.speed_ewma +
                                 config_.ewma_alpha * ratio
                           : ratio;
        c.has_observation = true;
      }
      continue;
    }
    apply_fault(u);
  }
}

void HealthTracker::apply_fault(std::size_t u) {
  ClientHealth& c = clients_[u];
  c.total_faults += 1;
  c.fault_streak += 1;
  if (c.status == ClientStatus::kBlacklisted || c.status == ClientStatus::kDead) {
    return;
  }
  if (c.total_faults >= config_.blacklist_faults) {
    c.status = ClientStatus::kBlacklisted;
    c.probation_remaining = 0;
    status_dirty_ = true;
    return;
  }
  if (c.fault_streak >= config_.probation_streak) {
    c.probations += 1;
    // Retry with backoff: each successive probation doubles the bench, capped.
    std::size_t bench = config_.probation_rounds;
    for (std::size_t i = 1; i < c.probations && bench < config_.probation_max_rounds; ++i) {
      bench *= 2;
    }
    c.probation_remaining = std::min(bench, config_.probation_max_rounds);
    c.status = ClientStatus::kProbation;
    c.fault_streak = 0;
    status_dirty_ = true;
  }
}

bool HealthTracker::battery_risky(const ClientHealth& c) const {
  if (c.soc < 0.0) return false;
  const double projected =
      c.soc - config_.battery_horizon_rounds * c.soc_drop_ewma;
  return projected <= config_.battery_floor_soc;
}

bool HealthTracker::eligible(std::size_t u) const {
  const ClientHealth& c = clients_.at(u);
  if (c.status != ClientStatus::kHealthy) return false;
  return !battery_risky(c);
}

double HealthTracker::cost_multiplier(std::size_t u) const {
  return std::max(0.05, clients_.at(u).speed_ewma);
}

bool HealthTracker::replan_due(std::size_t round) const {
  if (has_plan_ && round < last_plan_round_ + config_.replan_cooldown_rounds) {
    return false;
  }
  if (status_dirty_) return true;
  for (std::size_t u = 0; u < clients_.size(); ++u) {
    if (clients_[u].status != ClientStatus::kHealthy) continue;
    if (!clients_[u].has_observation) continue;
    const double baseline = std::max(0.05, planned_multiplier_[u]);
    const double drift = std::abs(cost_multiplier(u) / baseline - 1.0);
    if (drift > config_.drift_threshold) return true;
  }
  return false;
}

void HealthTracker::note_replan(std::size_t round) {
  for (std::size_t u = 0; u < clients_.size(); ++u) {
    planned_multiplier_[u] = cost_multiplier(u);
  }
  last_plan_round_ = round;
  has_plan_ = true;
  status_dirty_ = false;
}

void HealthTracker::add_reassigned(std::size_t u, std::size_t shards) {
  clients_.at(u).reassigned_shards += shards;
}

std::size_t HealthTracker::eligible_count() const {
  std::size_t n = 0;
  for (std::size_t u = 0; u < clients_.size(); ++u) {
    if (eligible(u)) ++n;
  }
  return n;
}

HealthTracker::Snapshot HealthTracker::snapshot() const {
  Snapshot s;
  s.clients = clients_;
  s.planned_multiplier = planned_multiplier_;
  s.last_plan_round = last_plan_round_;
  s.has_plan = has_plan_;
  s.status_dirty = status_dirty_;
  return s;
}

void HealthTracker::restore(const Snapshot& snapshot) {
  if (snapshot.clients.size() != clients_.size() ||
      snapshot.planned_multiplier.size() != clients_.size()) {
    throw std::invalid_argument("HealthTracker: snapshot client count mismatch");
  }
  clients_ = snapshot.clients;
  planned_multiplier_ = snapshot.planned_multiplier;
  last_plan_round_ = snapshot.last_plan_round;
  has_plan_ = snapshot.has_plan;
  status_dirty_ = snapshot.status_dirty;
}

}  // namespace fedsched::fl::health
