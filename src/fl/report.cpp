#include "fl/report.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

namespace fedsched::fl {

common::Table round_table(const RunResult& result) {
  common::Table table({"round", "round_s", "cumulative_s", "train_loss",
                       "test_accuracy", "completed", "dropped", "retries"});
  for (const RoundRecord& record : result.rounds) {
    table.add_row({static_cast<long long>(record.round), record.round_seconds,
                   record.cumulative_seconds, record.mean_train_loss,
                   record.test_accuracy,
                   static_cast<long long>(record.completed_clients),
                   static_cast<long long>(record.dropped_clients),
                   static_cast<long long>(record.retry_count)});
  }
  return table;
}

std::string fault_summary(const RunResult& result) {
  std::size_t completed = 0, dropped = 0, retries = 0, skipped = 0;
  std::array<std::size_t, kFaultKindCount> by_kind{};
  for (const RoundRecord& record : result.rounds) {
    completed += record.completed_clients;
    dropped += record.dropped_clients;
    retries += record.retry_count;
    skipped += record.skipped;
    for (FaultKind kind : record.client_faults) {
      by_kind[static_cast<std::size_t>(kind)]++;
    }
  }
  std::ostringstream os;
  os << "faults: " << completed << " completed, " << dropped << " dropped, "
     << retries << " retries, " << skipped << " skipped rounds";
  const std::array<FaultKind, 4> kinds = {FaultKind::kCrash, FaultKind::kBatteryDead,
                                          FaultKind::kRetriesExhausted,
                                          FaultKind::kDeadlineMiss};
  // Every kind except kNone must appear in the rollup: grow `kinds` when the
  // enum grows.
  static_assert(kinds.size() + 1 == kFaultKindCount,
                "fault_summary: per-kind rollup out of sync with FaultKind");
  bool any = false;
  for (FaultKind kind : kinds) {
    const std::size_t count = by_kind[static_cast<std::size_t>(kind)];
    if (count == 0) continue;
    os << (any ? ", " : " (") << fault_name(kind) << '=' << count;
    any = true;
  }
  if (any) os << ')';
  if (!result.client_health.empty()) {
    std::size_t reschedules = 0, moved = 0;
    for (const RoundRecord& record : result.rounds) {
      reschedules += record.rescheduled;
      moved += record.moved_shards;
    }
    std::size_t probations = 0, excluded = 0;
    for (const auto& c : result.client_health) {
      probations += c.probations;
      excluded += c.status == health::ClientStatus::kBlacklisted ||
                  c.status == health::ClientStatus::kDead;
    }
    os << "\nrecovery: " << reschedules << " reschedules, " << moved
       << " shards moved, " << probations << " probations, " << excluded
       << " clients excluded";
  }
  std::size_t assigned = 0, won = 0, rescued = 0;
  for (const RoundRecord& record : result.rounds) {
    assigned += record.replicas_assigned;
    won += record.replicas_won;
    rescued += record.shares_rescued;
  }
  if (assigned > 0) {
    os << "\nreplication: " << assigned << " replicas, " << won
       << " first-finishes, " << rescued << " shares rescued, "
       << (assigned - won) << " wasted";
  }
  return os.str();
}

common::Table recovery_table(const RunResult& result,
                             const std::vector<std::string>& client_names) {
  if (result.client_health.empty()) {
    throw std::invalid_argument("recovery_table: run carries no health state");
  }
  if (client_names.size() != result.client_health.size()) {
    throw std::invalid_argument("recovery_table: name count mismatch");
  }
  common::Table table({"client", "status", "speed_mult", "faults", "retries",
                       "probations", "shards_reassigned"});
  for (std::size_t u = 0; u < result.client_health.size(); ++u) {
    const health::ClientHealth& c = result.client_health[u];
    table.add_row({client_names[u], std::string(health::status_name(c.status)),
                   c.speed_ewma, static_cast<long long>(c.total_faults),
                   static_cast<long long>(c.total_retries),
                   static_cast<long long>(c.probations),
                   static_cast<long long>(c.reassigned_shards)});
  }
  return table;
}

std::string round_timeline(const RoundRecord& record,
                           const std::vector<std::string>& client_names,
                           std::size_t width) {
  if (client_names.size() != record.client_seconds.size()) {
    throw std::invalid_argument("round_timeline: name count mismatch");
  }
  if (width == 0) throw std::invalid_argument("round_timeline: zero width");
  const double makespan = record.round_seconds;
  std::size_t name_width = 0;
  for (const auto& name : client_names) name_width = std::max(name_width, name.size());

  std::ostringstream os;
  os << "round " << record.round << " (" << makespan << " s)\n";
  for (std::size_t u = 0; u < client_names.size(); ++u) {
    const double t = record.client_seconds[u];
    os << "  " << client_names[u]
       << std::string(name_width - client_names[u].size(), ' ') << " |";
    if (t <= 0.0 || makespan <= 0.0) {
      os << " (idle)\n";
      continue;
    }
    // A deadline-dropped client stays busy past the recorded makespan (the
    // deadline), so the proportional bar must clamp to the width budget.
    const auto bars = std::min(
        width, std::max<std::size_t>(
                   1, static_cast<std::size_t>(t / makespan *
                                               static_cast<double>(width))));
    const FaultKind fault = u < record.client_faults.size() ? record.client_faults[u]
                                                            : FaultKind::kNone;
    if (fault != FaultKind::kNone) {
      os << std::string(bars, 'x') << ' ' << t << "s " << fault_name(fault) << "\n";
      continue;
    }
    const bool straggler = t >= makespan - 1e-12;
    os << std::string(bars, straggler ? '#' : '=') << ' ' << t << "s\n";
  }
  if (record.rescheduled) {
    os << "  >> rescheduled after this round (" << record.moved_shards
       << " shards moved)\n";
  }
  return os.str();
}

void trace_run_start(obs::TraceWriter& trace, std::string_view runner,
                     std::size_t clients, std::size_t rounds, std::uint64_t seed,
                     double deadline_s, bool faults_enabled) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "run_start")
      .field("runner", runner)
      .field("clients", clients)
      .field("rounds", rounds)
      .field("seed", seed)
      .field("deadline_s", deadline_s)
      .field("faults", faults_enabled);
  trace.write(ev);
}

void trace_round_start(obs::TraceWriter& trace, std::size_t round) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "round_start").field("round", round);
  trace.write(ev);
}

void trace_client_trip(obs::TraceWriter& trace, std::size_t round, std::size_t client,
                       const RoundTimings& timings, const FaultOutcome& outcome) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "client_trip")
      .field("round", round)
      .field("client", client)
      .field("download_s", timings.download_s)
      .field("compute_s", timings.compute_s)
      .field("upload_s", timings.upload_s)
      .field("elapsed_s", outcome.elapsed_s)
      .field("retries", outcome.retries)
      .field("fault", fault_name(outcome.kind))
      .field("completed", outcome.completed);
  trace.write(ev);
}

void trace_device_snapshot(obs::TraceWriter& trace, std::size_t round,
                           std::size_t client, const device::TracePoint& point,
                           double battery_soc) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "device")
      .field("round", round)
      .field("client", client)
      .field("time_s", point.time_s)
      .field("temp_c", point.temp_c)
      .field("speed", point.speed)
      .field("freq_ghz", point.freq_ghz);
  if (battery_soc >= 0.0) ev.field("soc", battery_soc);
  trace.write(ev);
}

void trace_round_end(obs::TraceWriter& trace, const RoundRecord& record) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "round_end")
      .field("round", record.round)
      .field("round_s", record.round_seconds)
      .field("cumulative_s", record.cumulative_seconds)
      .field("train_loss", record.mean_train_loss);
  if (record.test_accuracy >= 0.0) ev.field("test_accuracy", record.test_accuracy);
  ev.field("completed", record.completed_clients)
      .field("dropped", record.dropped_clients)
      .field("retries", record.retry_count)
      .field("skipped", record.skipped);
  trace.write(ev);
}

void trace_health(obs::TraceWriter& trace, std::size_t round,
                  const health::HealthTracker& tracker) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "health").field("round", round).field("eligible",
                                                       tracker.eligible_count());
  std::string statuses = "[";
  std::vector<double> mults;
  mults.reserve(tracker.clients());
  for (std::size_t u = 0; u < tracker.clients(); ++u) {
    if (u > 0) statuses += ',';
    statuses += common::json_quote(health::status_name(tracker.client(u).status));
    mults.push_back(tracker.cost_multiplier(u));
  }
  statuses += ']';
  ev.field_raw("status", statuses);
  ev.field("mult", std::span<const double>(mults));
  trace.write(ev);
}

void trace_reschedule(obs::TraceWriter& trace, std::size_t round,
                      health::ReschedulePolicy policy,
                      const health::ReplanOutcome& outcome) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "reschedule")
      .field("round", round)
      .field("policy", health::policy_name(policy))
      .field("moved_shards", outcome.moved_shards)
      .field("predicted_makespan_s", outcome.predicted_makespan)
      .field("eligible", outcome.eligible_clients)
      .field("shards",
             std::span<const std::size_t>(outcome.assignment.shards_per_user));
  trace.write(ev);
}

void trace_replication_plan(obs::TraceWriter& trace, std::size_t round,
                            const replication::RoundPlan& plan) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "replication").field("round", round).field("flagged", plan.flagged);
  std::vector<std::size_t> owners, hosts;
  std::vector<double> predicted;
  owners.reserve(plan.assignments.size());
  hosts.reserve(plan.assignments.size());
  predicted.reserve(plan.assignments.size());
  for (const replication::ReplicaAssignment& a : plan.assignments) {
    owners.push_back(a.owner);
    hosts.push_back(a.host);
    predicted.push_back(a.predicted_finish_s);
  }
  ev.field("owners", std::span<const std::size_t>(owners));
  ev.field("hosts", std::span<const std::size_t>(hosts));
  ev.field("predicted_s", std::span<const double>(predicted));
  trace.write(ev);
}

void trace_replica_result(obs::TraceWriter& trace, std::size_t round,
                          const replication::ShareResolution& resolution) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "replica")
      .field("round", round)
      .field("owner", resolution.owner)
      .field("arrived", resolution.arrived)
      .field("rescued", resolution.rescued)
      .field("winner", resolution.winner)
      .field("finish_s", resolution.finish_s)
      .field("replicas", resolution.replicas)
      .field("replicas_completed", resolution.replicas_completed);
  trace.write(ev);
}

void trace_checkpoint(obs::TraceWriter& trace, std::size_t completed,
                      double total_seconds) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "checkpoint")
      .field("round", completed)
      .field("total_seconds", total_seconds);
  trace.write(ev);
}

void trace_run_end(obs::TraceWriter& trace, double final_accuracy,
                   double total_seconds, std::size_t rounds) {
  if (!trace.enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "run_end")
      .field("final_accuracy", final_accuracy)
      .field("total_seconds", total_seconds)
      .field("rounds", rounds);
  trace.write(ev);
}

namespace {

void record_round_metrics(obs::MetricsRegistry& metrics,
                          const std::vector<RoundRecord>& rounds) {
  for (const RoundRecord& record : rounds) {
    metrics.add("fl.rounds");
    metrics.add("fl.clients_completed", record.completed_clients);
    metrics.add("fl.clients_dropped", record.dropped_clients);
    metrics.add("fl.upload_retries", record.retry_count);
    if (record.skipped) metrics.add("fl.rounds_skipped");
    metrics.observe("fl.round_seconds", record.round_seconds);
    metrics.observe("fl.train_loss", record.mean_train_loss);
    for (double t : record.client_seconds) {
      if (t > 0.0) metrics.observe("fl.client_seconds", t);
    }
  }
}

// Recovery metrics are keyed only when self-healing ran, so recovery-off
// runs produce byte-identical metric dumps to older builds.
void record_recovery_metrics(obs::MetricsRegistry& metrics,
                             const std::vector<RoundRecord>& rounds,
                             const std::vector<health::ClientHealth>& client_health) {
  if (client_health.empty()) return;
  for (const RoundRecord& record : rounds) {
    if (record.rescheduled) {
      metrics.add("fl.reschedules");
      metrics.add("fl.moved_shards", record.moved_shards);
    }
  }
  std::size_t probations = 0, excluded = 0;
  for (const auto& c : client_health) {
    probations += c.probations;
    excluded += c.status != health::ClientStatus::kHealthy &&
                c.status != health::ClientStatus::kProbation;
  }
  metrics.add("fl.probations", probations);
  metrics.set_gauge("fl.clients_excluded", static_cast<double>(excluded));
}

// Replication metrics are keyed only when some round actually assigned a
// replica, so replication-off runs (and risk-free fleets) produce
// byte-identical metric dumps.
void record_replication_metrics(obs::MetricsRegistry& metrics,
                                const std::vector<RoundRecord>& rounds) {
  std::size_t assigned = 0, won = 0, rescued = 0;
  for (const RoundRecord& record : rounds) {
    assigned += record.replicas_assigned;
    won += record.replicas_won;
    rescued += record.shares_rescued;
  }
  if (assigned == 0) return;
  metrics.add("fl.replicas_assigned", assigned);
  metrics.add("fl.replicas_won", won);
  metrics.add("fl.replica_waste", assigned - won);
  metrics.add("fl.shares_rescued", rescued);
}

}  // namespace

void record_run_metrics(obs::MetricsRegistry& metrics, const RunResult& result) {
  record_round_metrics(metrics, result.rounds);
  record_recovery_metrics(metrics, result.rounds, result.client_health);
  record_replication_metrics(metrics, result.rounds);
  metrics.set_gauge("fl.final_accuracy", result.final_accuracy);
  metrics.set_gauge("fl.total_seconds", result.total_seconds);
}

}  // namespace fedsched::fl
