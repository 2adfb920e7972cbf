#include "fl/replication/replication.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace fedsched::fl::replication {

void ReplicationConfig::validate(std::size_t n_clients) const {
  if (!enabled()) return;
  if (budget_per_round == 0) {
    throw std::invalid_argument("replication: budget_per_round must be >= 1");
  }
  if (!(risk_threshold > 0.0) || risk_threshold > 1.0) {
    throw std::invalid_argument("replication: risk_threshold must be in (0, 1]");
  }
  if (max_replicas_per_share == 0) {
    throw std::invalid_argument("replication: max_replicas_per_share must be >= 1");
  }
  if (!users.empty() && users.size() != n_clients) {
    throw std::invalid_argument("replication: users profile count (" +
                                std::to_string(users.size()) +
                                ") does not match client count (" +
                                std::to_string(n_clients) + ")");
  }
  if (n_clients < 2) {
    throw std::invalid_argument("replication: needs at least 2 clients");
  }
}

ReplicationPlanner::ReplicationPlanner(ReplicationConfig config,
                                       std::size_t n_clients)
    : config_(std::move(config)), n_clients_(n_clients) {
  config_.validate(n_clients_);
}

namespace {
[[nodiscard]] double clamp01(double x) {
  return std::min(1.0, std::max(0.0, x));
}
}  // namespace

double ReplicationPlanner::risk_score(const health::HealthTracker& tracker,
                                      std::size_t u) const {
  const health::ClientHealth& c = tracker.client(u);
  // Permanently-out clients hold no shards; nothing left to hedge.
  if (c.status == health::ClientStatus::kBlacklisted ||
      c.status == health::ClientStatus::kDead) {
    return 0.0;
  }
  const health::HealthConfig& hc = tracker.config();

  // How close the client is to being benched (consecutive faults)...
  const double streak =
      hc.probation_streak > 0
          ? clamp01(static_cast<double>(c.fault_streak) /
                    static_cast<double>(hc.probation_streak))
          : 0.0;
  // ...to being blacklisted (cumulative faults)...
  const double cumulative =
      hc.blacklist_faults > 0
          ? clamp01(static_cast<double>(c.total_faults) /
                    static_cast<double>(hc.blacklist_faults))
          : 0.0;
  // ...and how far it has drifted slow (1.0 = running at half speed).
  const double drift = clamp01(std::max(0.0, c.speed_ewma - 1.0));

  double risk = 0.45 * streak + 0.25 * cumulative + 0.30 * drift;

  // A battery projected to cross the death floor within the health horizon
  // dominates everything else: the share is about to vanish mid-round.
  if (c.soc >= 0.0 &&
      c.soc - hc.battery_horizon_rounds * c.soc_drop_ewma <= hc.battery_floor_soc) {
    risk = std::max(risk, 0.9);
  }
  return clamp01(risk);
}

RoundPlan ReplicationPlanner::plan(const health::HealthTracker& tracker,
                                   const std::vector<std::size_t>& share_sizes,
                                   std::size_t local_epochs) const {
  RoundPlan out;
  if (!enabled()) return out;
  if (share_sizes.size() != n_clients_) {
    throw std::invalid_argument("replication: share_sizes size mismatch");
  }

  out.risk.resize(n_clients_, 0.0);
  for (std::size_t u = 0; u < n_clients_; ++u) {
    out.risk[u] = risk_score(tracker, u);
  }

  // Owners worth hedging: participants at/above the risk threshold, highest
  // risk first (ties by id, so the order is a pure function of the scores).
  std::vector<std::size_t> owners;
  for (std::size_t u = 0; u < n_clients_; ++u) {
    if (share_sizes[u] > 0 && out.risk[u] >= config_.risk_threshold) {
      owners.push_back(u);
    }
  }
  out.flagged = owners.size();
  if (owners.empty()) return out;
  std::stable_sort(owners.begin(), owners.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (out.risk[a] != out.risk[b]) return out.risk[a] > out.risk[b];
                     return a < b;
                   });

  // Host candidates: eligible, unflagged participants, cheapest predicted
  // replica arrival first. With offline profiles the prediction prices the
  // host's whole hedged round (own share + the owner's share, stretched by
  // the observed drift multiplier); without them the sample counts alone
  // rank hosts. Either way ties break by id.
  struct Host {
    std::size_t id;
    double cost;
  };
  const std::size_t epochs = std::max<std::size_t>(1, local_epochs);
  auto predicted_finish = [&](std::size_t v, std::size_t owner) {
    const double mult = tracker.cost_multiplier(v);
    const auto samples = share_sizes[v] + share_sizes[owner];
    if (v < config_.users.size() && config_.users[v].time_model) {
      const sched::UserProfile& p = config_.users[v];
      return mult * (static_cast<double>(epochs) *
                         p.time_model->epoch_seconds(samples) +
                     p.comm_seconds);
    }
    return mult * static_cast<double>(samples);
  };
  std::vector<Host> hosts;
  for (std::size_t v = 0; v < n_clients_; ++v) {
    if (share_sizes[v] == 0 || !tracker.eligible(v)) continue;
    if (out.risk[v] >= config_.risk_threshold) continue;
    hosts.push_back({v, 0.0});
  }

  // Grant replicas round-robin over the ranked owners — every flagged owner
  // gets its first copy before anyone gets a second — while the per-round
  // budget and the one-replica-per-host rule hold.
  std::vector<std::size_t> copies(n_clients_, 0);
  std::vector<char> host_used(n_clients_, 0);
  std::size_t budget = config_.budget_per_round;
  for (std::size_t pass = 0; pass < config_.max_replicas_per_share && budget > 0;
       ++pass) {
    for (std::size_t u : owners) {
      if (budget == 0) break;
      if (copies[u] != pass) continue;  // missed a copy earlier: hosts ran out
      // Cheapest unused host for this owner.
      const Host* best = nullptr;
      double best_cost = 0.0;
      for (Host& h : hosts) {
        if (host_used[h.id]) continue;
        const double cost = predicted_finish(h.id, u);
        if (best == nullptr || cost < best_cost ||
            (cost == best_cost && h.id < best->id)) {
          best = &h;
          best_cost = cost;
        }
      }
      if (best == nullptr) break;  // no hosts left at all
      host_used[best->id] = 1;
      ++copies[u];
      --budget;
      out.assignments.push_back({u, best->id, best_cost});
    }
  }
  return out;
}

ShareResolution resolve_first_finisher(std::size_t owner, bool primary_completed,
                                       double primary_elapsed_s,
                                       std::span<const ReplicaOutcome> replicas) {
  ShareResolution r;
  r.owner = owner;
  r.replicas = replicas.size();
  if (primary_completed) {
    r.arrived = true;
    r.winner = owner;
    r.finish_s = primary_elapsed_s;
  }
  for (const ReplicaOutcome& rep : replicas) {
    if (!rep.completed) continue;
    ++r.replicas_completed;
    if (!r.arrived || rep.finish_s < r.finish_s ||
        (rep.finish_s == r.finish_s && rep.host < r.winner)) {
      r.winner = rep.host;
      r.finish_s = rep.finish_s;
      r.arrived = true;
    }
  }
  r.rescued = r.arrived && !primary_completed;
  return r;
}

}  // namespace fedsched::fl::replication
