#pragma once
// Synchronous FedAvg on the simulated mobile testbed.
//
// Each round: the server pushes the global model to every participating
// client; clients run `local_epochs` of SGD on their local share (real
// gradient computation through src/nn); the server averages the returned
// parameters weighted by sample count. Wall-clock per round is the *maximum*
// over participants of download + simulated-device compute + upload —
// synchronous aggregation waits for the straggler, which is exactly the
// quantity the paper's schedulers minimize. Test accuracy comes from the
// actually-trained global model; time comes from the device simulators. The
// two are decoupled deliberately (the paper does the same: profiles for
// time, training for accuracy).
//
// Client training within a round runs in parallel on the host (see
// fl/parallel.hpp): per-client results land in client-indexed slots and
// reduce in fixed client order, so any `parallelism` width produces
// bit-identical results.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "device/battery.hpp"
#include "device/device.hpp"
#include "fl/faults.hpp"
#include "fl/health/replanner.hpp"
#include "fl/parallel.hpp"
#include "fl/replication/replication.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"
#include "obs/trace.hpp"

namespace fedsched::obs {
class MetricsRegistry;
}  // namespace fedsched::obs

namespace fedsched::fl {

namespace checkpoint {
struct RunState;
}  // namespace checkpoint

struct FlConfig {
  std::size_t rounds = 10;
  std::size_t local_epochs = 1;
  std::size_t batch_size = 20;   // the paper's mobile batch size
  nn::SgdConfig sgd{.learning_rate = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f};
  std::uint64_t seed = 1;
  /// Evaluate test accuracy every round (slower) or only at the end.
  bool evaluate_each_round = false;
  /// Idle time between rounds (devices cool down), seconds of simulated time.
  double idle_between_rounds_s = 0.0;
  /// Lanes training clients concurrently on the process pool: 0 = hardware
  /// concurrency, 1 = inline. Results are identical for every value (the
  /// determinism contract; see docs/API.md).
  std::size_t parallelism = 0;
  /// Round deadline (simulated seconds): the server aggregates whatever
  /// arrived by then and drops the rest. Infinity = wait for everyone.
  double deadline_s = kNoDeadline;
  /// Fault injection (crash / battery death / network stall / transient
  /// upload failures). Disabled by default — see docs/API.md "Fault model".
  FaultConfig faults;
  /// Structured observability sinks (non-owning; may be null). Traces carry
  /// simulated time only and are emitted from serial sections in fixed
  /// client order, so they are byte-identical at every `parallelism` width;
  /// a null/disabled sink leaves the run bit-identical to a build without
  /// tracing. See docs/API.md "Structured observability".
  obs::TraceWriter* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Self-healing: health tracking + online rescheduling (fl/health). An
  /// off policy reproduces the static-plan behaviour bit-for-bit — no
  /// health state, no extra trace events.
  health::ReschedulePlan reschedule;
  /// Speculative shard replication (fl/replication): hedge the shares of
  /// at-risk clients onto healthy fast hosts; the first finished copy wins.
  /// An off policy reproduces replication-free runs bit-for-bit — no extra
  /// trace events, no extra metrics. Works with or without `reschedule`
  /// (either way it reads risk from a HealthTracker fed by the round loop).
  replication::ReplicationConfig replicate;
};

struct RoundRecord {
  std::size_t round = 0;
  double round_seconds = 0.0;        // makespan (deadline when clients dropped)
  double cumulative_seconds = 0.0;
  double mean_train_loss = 0.0;
  double test_accuracy = -1.0;       // -1 when not evaluated this round
  std::vector<double> client_seconds;
  /// Fault/deadline bookkeeping. Without faults every participant completes.
  std::size_t completed_clients = 0;
  std::size_t dropped_clients = 0;
  std::size_t retry_count = 0;
  /// True when zero clients survived: aggregation skipped, model unchanged.
  bool skipped = false;
  /// Per-client fault verdict this round (kNone for survivors and idle users).
  std::vector<FaultKind> client_faults;
  /// Online rescheduling: true when the replanner swapped the shard plan at
  /// the end of this round; moved_shards counts shards that changed owner.
  bool rescheduled = false;
  std::size_t moved_shards = 0;
  /// Speculative replication (zero everywhere when the policy is off):
  /// copies assigned this round, copies that were the first finisher of
  /// their share, and shares saved by a replica after the primary faulted.
  std::size_t replicas_assigned = 0;
  std::size_t replicas_won = 0;
  std::size_t shares_rescued = 0;
};

struct RunResult {
  std::vector<RoundRecord> rounds;
  double final_accuracy = 0.0;
  double total_seconds = 0.0;
  /// Final per-client health state (empty when both rescheduling and
  /// replication are off).
  std::vector<health::ClientHealth> client_health;
  /// First-finisher verdict of every replicated share, in (round, owner)
  /// order (empty when replication is off).
  std::vector<replication::ShareResolution> replica_log;

  [[nodiscard]] double mean_round_seconds() const;
};

class FedAvgRunner {
 public:
  /// `phones[u]` powers user u; partition.user_indices[u] is its local data.
  FedAvgRunner(const data::Dataset& train, const data::Dataset& test,
               nn::ModelSpec model_spec, device::ModelDesc device_model,
               std::vector<device::PhoneModel> phones,
               device::NetworkType network, FlConfig config);

  /// Train to completion over the given partition: a fresh FedAvgSession
  /// stepped to the round budget, then finished.
  [[nodiscard]] RunResult run(const data::Partition& partition);

  /// The global model after the last run() or session step (for inspection).
  [[nodiscard]] nn::Model& global_model() noexcept { return global_; }

 private:
  friend class FedAvgSession;

  const data::Dataset& train_;
  const data::Dataset& test_;
  device::ModelDesc device_model_;
  std::vector<device::PhoneModel> phones_;
  device::NetworkType network_;
  FlConfig config_;
  nn::Model global_;
  ClientExecutor executor_;  // per-lane worker models + pool
};

/// One FedAvgRunner run, a round at a time: the whole mutable round-loop
/// state between rounds. Callers own the cadence: `run()` steps to the end;
/// `fedsched_cli train` checkpoints every N rounds, halts and resumes; the
/// coordinator keeps a session resident between its steps. A session opened
/// from checkpoint() finishes bit-identical to one that was never stopped,
/// trace bytes included, provided both take checkpoints at the same rounds
/// (the `checkpoint` trace event is part of the stream). The session uses
/// the runner's model and executor, so a runner drives one session at a time;
/// after a throw the session is unusable.
class FedAvgSession {
 public:
  /// Fresh run over `partition`, from the runner's current global model:
  /// emits run_start.
  FedAvgSession(FedAvgRunner& runner, const data::Partition& partition);
  /// Continue the run `state` was taken from. Throws std::runtime_error when
  /// the state does not belong to the runner's config (seed, fleet size,
  /// model, round budget, reschedule and replication modes); otherwise
  /// restores the loop state and replays the state's trace prefix.
  FedAvgSession(FedAvgRunner& runner, checkpoint::RunState state);

  [[nodiscard]] std::size_t rounds_completed() const noexcept { return next_round_; }
  [[nodiscard]] bool done() const noexcept {
    return next_round_ >= runner_.config_.rounds;
  }

  /// Run the next round. Throws std::logic_error once done().
  void step();

  /// Emit the `checkpoint` trace event and return the complete loop state
  /// after rounds_completed() rounds. The trace writer mirrors its bytes
  /// from the session's start, so the state carries the session's trace so
  /// far (not what the writer held before), the prefix a resumed session
  /// replays.
  [[nodiscard]] checkpoint::RunState checkpoint();

  /// Rounds, simulated clock, health and replica log so far; final_accuracy
  /// stays 0 until finish().
  [[nodiscard]] RunResult result() const;

  /// Final evaluation, run_end and the run metrics; returns the complete
  /// result. Call once, after the last step() (or on a session opened from
  /// the final round's checkpoint).
  [[nodiscard]] RunResult finish();

 private:
  FedAvgSession(FedAvgRunner& runner, data::Partition working,
                std::vector<float> global_params);
  [[nodiscard]] obs::TraceWriter& trace() noexcept {
    return runner_.config_.trace ? *runner_.config_.trace : null_trace_;
  }

  FedAvgRunner& runner_;
  obs::TraceWriter null_trace_;
  std::size_t n_users_;
  // Self-healing state: health tracking feeds the replanner, which may swap
  // the working partition between rounds. Each lives only when its policy
  // is on; replication reads risk from the same tracker.
  std::optional<health::HealthTracker> tracker_;
  std::optional<health::Replanner> replanner_;
  std::optional<replication::ReplicationPlanner> hedger_;
  data::Partition working_;
  std::vector<device::Device> devices_;
  std::vector<nn::Sgd> optimizers_;
  common::Rng rng_;
  // The injector's draws are pure functions of (round, client), and
  // batteries are client-indexed, so faults keep the determinism contract.
  FaultInjector injector_;
  std::vector<device::Battery> batteries_;
  RunResult result_;
  std::vector<float> global_params_;
  std::size_t next_round_ = 0;
  // Where the session's part of the trace capture starts.
  std::size_t capture_bytes_ = 0;
  std::size_t capture_events_ = 0;
};

}  // namespace fedsched::fl
