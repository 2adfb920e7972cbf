#pragma once
// Reports over FedAvg runs. Human-readable: a per-round table, a textual
// Gantt timeline of client activity within a round, a fault rollup and a
// per-client recovery table. Machine-readable: JSONL trace events
// (obs::TraceWriter) and run metrics (obs::MetricsRegistry) — see docs/API.md
// "Structured observability" for the event schema.

#include <string>
#include <string_view>

#include "common/table.hpp"
#include "fl/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedsched::fl {

/// Per-round table: round, time, cumulative time, loss, accuracy, plus fault
/// counters (completed / dropped clients and upload retries).
[[nodiscard]] common::Table round_table(const RunResult& result);

/// One-line rollup of fault activity across the run: total completed and
/// dropped client-rounds, retries, skipped rounds, and a per-kind breakdown.
/// When self-healing ran (RunResult::client_health non-empty) a second line
/// summarizes recovery: reschedules, shards moved, probations, and clients
/// permanently excluded. When replication assigned any copies, a third line
/// summarizes hedging: replicas, first-finishes, rescues, waste.
[[nodiscard]] std::string fault_summary(const RunResult& result);

/// Per-client recovery table (self-healing runs): final status, speed-drift
/// multiplier, faults, upload retries, probations served, and shards the
/// replanner moved away. Throws when the run carries no health state.
[[nodiscard]] common::Table recovery_table(const RunResult& result,
                                           const std::vector<std::string>& client_names);

/// Textual Gantt chart of one round: one bar per client, proportional to its
/// busy time and never longer than `width`, '#' for the straggler. Clients
/// that dropped (any non-kNone fault) render with 'x' bars and their fault
/// name — under a finite deadline their busy time can exceed the recorded
/// makespan, which is why bars clamp.
[[nodiscard]] std::string round_timeline(const RoundRecord& record,
                                         const std::vector<std::string>& client_names,
                                         std::size_t width = 50);

// --- JSONL trace events -------------------------------------------------
//
// Every emitter is a no-op on a disabled writer. All payloads are simulated
// time only; callers must emit from serial code in fixed client order so the
// trace is byte-identical at every `parallelism` width.

/// `run_start`: runner name, fleet size, round budget, seed, deadline,
/// whether fault injection is live.
void trace_run_start(obs::TraceWriter& trace, std::string_view runner,
                     std::size_t clients, std::size_t rounds, std::uint64_t seed,
                     double deadline_s, bool faults_enabled);

/// `round_start`: emitted before any client trip of the round.
void trace_round_start(obs::TraceWriter& trace, std::size_t round);

/// `client_trip`: per-(round, client) timing split (download / compute /
/// upload / total busy), retries, fault verdict.
void trace_client_trip(obs::TraceWriter& trace, std::size_t round, std::size_t client,
                       const RoundTimings& timings, const FaultOutcome& outcome);

/// `device`: thermal/clock snapshot of one client's device after its trip
/// (the TracePoint hook of device/device.hpp). `battery_soc` < 0 omits the
/// soc field (fleet without battery tracking).
void trace_device_snapshot(obs::TraceWriter& trace, std::size_t round,
                           std::size_t client, const device::TracePoint& point,
                           double battery_soc = -1.0);

/// `round_end`: the full RoundRecord (accuracy omitted when not evaluated).
/// The schema is frozen to the pre-recovery fields; reschedule outcomes ride
/// in their own `reschedule` event so traces of recovery-off runs are
/// byte-identical to older builds.
void trace_round_end(obs::TraceWriter& trace, const RoundRecord& record);

// Self-healing events. Emitted only when recovery (or, for `health`,
// replication) is active, so traces of everything-off runs carry no new
// event kinds.

/// `health`: per-round fleet health — eligible count, per-client status
/// string array, and per-client cost multipliers.
void trace_health(obs::TraceWriter& trace, std::size_t round,
                  const health::HealthTracker& tracker);

/// `reschedule`: the replanner swapped the shard plan at the end of `round`.
void trace_reschedule(obs::TraceWriter& trace, std::size_t round,
                      health::ReschedulePolicy policy,
                      const health::ReplanOutcome& outcome);

// Replication events. Emitted only for rounds that actually assigned
// replicas, so replication-off runs (and risk-free rounds) leave the trace
// byte-identical.

/// `replication`: the round's hedge plan — flagged client count and the
/// (owner, host, predicted_finish_s) triple of every assignment.
void trace_replication_plan(obs::TraceWriter& trace, std::size_t round,
                            const replication::RoundPlan& plan);

/// `replica`: first-finisher verdict of one replicated share — winner,
/// arrival time, whether a replica rescued a faulted primary.
void trace_replica_result(obs::TraceWriter& trace, std::size_t round,
                          const replication::ShareResolution& resolution);

/// `checkpoint`: FedAvgSession::checkpoint() took the state after `completed`
/// rounds. Carries no paths or byte counts, so the event bytes are identical
/// between a run stopped there and its uninterrupted twin.
void trace_checkpoint(obs::TraceWriter& trace, std::size_t completed,
                      double total_seconds);

/// `run_end`: final accuracy + total simulated seconds + rounds executed.
void trace_run_end(obs::TraceWriter& trace, double final_accuracy,
                   double total_seconds, std::size_t rounds);

// --- metrics ------------------------------------------------------------

/// Fold a finished synchronous run into the registry: fl.* counters
/// (rounds, completions, drops, retries, skips), round/client-second and
/// loss histograms, final accuracy / total seconds gauges.
void record_run_metrics(obs::MetricsRegistry& metrics, const RunResult& result);

}  // namespace fedsched::fl
