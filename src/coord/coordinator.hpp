#pragma once
// Long-lived multi-run coordinator: registry + worker pool + admission.
//
// One Coordinator serves many concurrent experiments from a single process.
// Each admitted run is decomposed into round-sized steps
// (coord/train_job.hpp, coord/fleet_job.hpp); a pool of workers drains a
// FIFO ready queue, runs one step, parks the run behind its fresh
// checkpoint, and requeues it at the tail. Interleaving therefore happens
// only at round boundaries, and every step derives its randomness from the
// run's own spec'd seed — a run's RunResult and trace bytes are identical
// whether it ran alone or multiplexed with arbitrary neighbors, and across
// any number of coordinator kill/restart cycles (the constructor rescans the
// registry root and requeues every in-flight run from its checkpoint; a
// corrupt run directory is quarantined by the scan instead of blocking the
// healthy runs' recovery).
//
// Admission control: a spec whose resident client count exceeds the cap, a
// duplicate id, or a full queue is rejected before any registry write — a
// rejected submit leaves zero trace on disk or in memory. Queued runs wait;
// dispatch additionally respects max_concurrent_rounds and the resident-
// client budget across in-flight steps (head-of-queue order, so admission
// order is completion-capacity order).
//
// Resident sessions: every run's RunSession (coord/session.hpp) — a
// TrainSession or a FleetSession — stays in its run slot between steps, so
// a step neither rebuilds the run nor reads its checkpoint. A worker opens
// the session when the slot is empty, moves it out at dispatch and back only
// with a successful, unfinished outcome; failure, a watchdog kill, a chaos
// crash, or completion drop it. Parked sessions count against
// max_resident_clients together with in-flight steps. Dispatch never waits
// for them: when a dispatch or a finished step would overrun the budget,
// parked sessions are evicted from the back of the ready queue, and those
// runs restore from their checkpoint (FSC1 or FSF2) at their next step.
//
// The wire entry point is handle_frame(): decode (hardened, coord/wire.hpp)
// happens strictly before dispatch, so a malformed frame provably cannot
// change coordinator state — it yields an {"ok":false,...} reply frame.
//
// Robustness plane (coord/chaos.hpp):
//   * config.chaos arms the deterministic fault injector. A ChaosCrash
//     thrown at a write point freezes the coordinator — stop flag set, no
//     further registry writes, chaos_crashed() true — simulating SIGKILL
//     while staying in-process; recovery is constructing a fresh Coordinator
//     over the same root, exactly the real restart path.
//   * config.watchdog_s > 0 starts a watchdog that marks any step exceeding
//     that wall-clock budget failed, releases its capacity, and replaces the
//     (possibly wedged) worker thread so the queue keeps draining.
//   * durable_writes gates fsync-before-rename in the registry, step
//     checkpoints included.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "coord/chaos/chaos.hpp"
#include "coord/registry.hpp"
#include "coord/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedsched::coord {

class RunSession;

struct CoordinatorConfig {
  std::string root;                    // registry directory (required)
  std::size_t workers = 2;             // worker threads (min 1)
  std::size_t max_concurrent_rounds = 2;   // steps in flight at once
  /// Summed over in-flight steps and resident sessions.
  std::size_t max_resident_clients = 1'000'000;
  std::size_t max_queued_runs = 16;    // admitted runs awaiting a worker
  /// Coordinator operations trace (coord_admit / coord_reject /
  /// coord_round_dispatch JSONL). Empty = disabled. This is an operational
  /// log — dispatch order depends on host scheduling — and is deliberately
  /// separate from the per-run traces, which stay byte-deterministic.
  std::string trace_path;
  /// fsync temp files and directories around registry renames, step
  /// checkpoints included (power-loss durability). Off by default so tests
  /// stay fast.
  bool durable_writes = false;
  /// > 0 starts the per-run wall-clock watchdog: a step older than this many
  /// real seconds is marked failed and its worker replaced. 0 = off.
  double watchdog_s = 0.0;
  double watchdog_poll_ms = 20.0;
  /// Deterministic fault injection (disabled config = byte-inert).
  chaos::ChaosConfig chaos;
};

enum class RunStatus { kSubmitted, kAdmitted, kRunning, kCheckpointed, kDone, kFailed };
[[nodiscard]] const char* run_status_name(RunStatus status);

struct RunInfo {
  RunSpec spec;
  RunStatus status = RunStatus::kSubmitted;
  std::size_t rounds_completed = 0;
  std::string error;  // set when status == kFailed
};

struct SubmitOutcome {
  bool accepted = false;
  std::string error;  // set when rejected
};

class Coordinator {
 public:
  /// Scans `config.root`, requeues every non-terminal run (checkpoint
  /// resume, or round zero if it never stepped), quarantines corrupt run
  /// directories, and starts the workers (and watchdog, when configured).
  explicit Coordinator(CoordinatorConfig config);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Admit `spec` or reject it (duplicate id, oversized fleet, full queue).
  /// Admission persists spec.json before returning; rejection writes nothing.
  SubmitOutcome submit(const RunSpec& spec);

  [[nodiscard]] std::optional<RunInfo> status(const std::string& id) const;
  [[nodiscard]] std::vector<RunInfo> list() const;

  /// Disk-backed artifacts; throw std::runtime_error when not yet available.
  [[nodiscard]] std::string trace_bytes(const std::string& id) const;
  [[nodiscard]] std::string result_document(const std::string& id) const;
  [[nodiscard]] std::string checkpoint_bytes(const std::string& id) const;

  /// Block until the ready queue is empty and no step is in flight (or the
  /// coordinator stopped / chaos-crashed).
  void wait_all_done();

  /// Stop dispatching; in-flight steps finish (and checkpoint) first. Safe
  /// to call repeatedly; the destructor calls it.
  void stop();

  /// Protocol dispatch: a request document {"verb": ...} to a reply
  /// document {"ok": bool, ...}. Never throws; errors become replies.
  [[nodiscard]] std::string handle_request_json(const std::string& request);
  /// Wire entry point: decode → dispatch → encode. A frame that fails
  /// decoding yields an error reply frame without touching any state.
  [[nodiscard]] std::string handle_frame(const std::string& frame);

  /// Set once a "shutdown" verb has been handled; the socket server polls
  /// this to leave its accept loop.
  [[nodiscard]] bool shutdown_requested() const;

  /// True once an injected ChaosCrash "killed" the process: all dispatch and
  /// registry writes are frozen; the only way forward is a fresh Coordinator
  /// over the same root.
  [[nodiscard]] bool chaos_crashed() const;

  /// The fault injector (shared with the socket server for frame chaos).
  [[nodiscard]] chaos::ChaosInjector& chaos() noexcept { return chaos_; }

  /// Run directories the startup scan set aside, in scan order.
  [[nodiscard]] std::vector<QuarantineRecord> quarantined() const;

  /// Service counters (submits, steps, failures, watchdog kills, ...) as a
  /// deterministic JSON document.
  [[nodiscard]] std::string metrics_json() const;

  /// Record a service-plane event (used by the socket server for connection
  /// drops) in the operations trace, bumping `counter` when non-null.
  void record_event(const common::JsonObject& event, const char* counter);

  [[nodiscard]] const RunRegistry& registry() const noexcept { return registry_; }
  [[nodiscard]] const CoordinatorConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    RunSpec spec;
    RunStatus status = RunStatus::kAdmitted;
    std::size_t rounds_completed = 0;
    std::string error;
    /// The run's live state between steps; null until its first step,
    /// while a worker holds it, and after an eviction or a failure.
    std::unique_ptr<RunSession> session;
  };

  /// One dispatched step, keyed by token so the watchdog and the worker can
  /// race for its completion: whoever erases the token owns the outcome.
  struct InFlight {
    std::string id;
    std::size_t resident = 0;
    std::chrono::steady_clock::time_point started;
  };

  /// A session for `spec`: fresh at round 0, else from its checkpoint.
  [[nodiscard]] std::unique_ptr<RunSession> open_session(const RunSpec& spec,
                                                         std::size_t round) const;
  void worker_loop(std::size_t worker_index);
  void watchdog_loop();
  void enter_crashed_state();                    // callers hold mu_
  [[nodiscard]] bool head_dispatchable() const;  // callers hold mu_
  void evict_sessions_over_budget();             // callers hold mu_
  void emit(const common::JsonObject& event);    // callers hold mu_
  [[nodiscard]] RunInfo info_of(const Entry& e) const;
  [[nodiscard]] std::string reply_status(const std::string& id);

  CoordinatorConfig config_;
  RunRegistry registry_;
  chaos::ChaosInjector chaos_;
  obs::TraceWriter trace_;        // guarded by mu_
  obs::MetricsRegistry metrics_;  // guarded by mu_

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::condition_variable watchdog_cv_;
  std::map<std::string, Entry> runs_;
  std::deque<std::string> ready_;
  std::map<std::uint64_t, InFlight> inflight_;
  std::uint64_t next_token_ = 0;
  std::vector<QuarantineRecord> quarantined_;
  std::size_t running_ = 0;
  std::size_t running_resident_ = 0;
  std::size_t held_resident_ = 0;  // clients in sessions parked in runs_
  bool stop_ = false;
  bool shutdown_requested_ = false;
  bool crashed_ = false;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace fedsched::coord
