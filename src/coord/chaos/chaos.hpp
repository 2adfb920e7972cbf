#pragma once
// Deterministic service-plane fault injection for the coordinator.
//
// The FL runners already treat client hazards as pure functions of
// (seed, round, client) — fl/faults.hpp. ChaosInjector extends the same
// discipline to the *coordinator's* own hazards: process death at a durable
// write point, a mangled or withheld wire reply, a job that fails or hangs
// at a given round. Every decision is a pure function of (seed, op-counter):
// the injector keeps one atomic counter per hazard family (registry write
// ops, reply frames), each operation claims the next index, and the verdict
// for that index is a stateless splitmix64 hash of (seed, family, index).
// With a single worker the op sequence — and therefore the whole fault
// schedule — is deterministic and replayable from the seed alone.
//
// Contract (mirrors fl/faults):
//   1. With ChaosConfig::enabled == false every hook is a no-op that burns
//      no counter and draws nothing — a disabled injector is byte-inert:
//      coordinator results, traces and checkpoints are bit-identical to a
//      build without the chaos subsystem.
//   2. Crash points model SIGKILL, not failure: an armed crash throws
//      ChaosCrash, which deliberately does NOT derive from std::exception so
//      ordinary error handling (write error.txt, mark the run failed) cannot
//      swallow a simulated process death. The coordinator catches it at the
//      top of each worker, freezes all registry activity, and reports
//      chaos_crashed() — the restart story is then exactly the real one:
//      construct a new Coordinator over the same root.
//
// Crash-point catalog (docs/API.md "Chaos injection"): every atomic write —
// spec.json / meta.json / result.json / error.txt, and each step's
// checkpoint in RunSession::step, all via write_file_atomic — claims one
// write op and exposes three phases: kBeforeTmp (nothing durable yet),
// kAfterTmp (temp file written, rename pending — the torn state a stale-tmp
// sweep must clean), kAfterRename (new bytes durable, everything after the
// rename lost).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace fedsched::coord::chaos {

/// Where inside one atomic (tmp + rename) write a crash lands.
enum class CrashPhase : std::uint8_t { kBeforeTmp = 0, kAfterTmp, kAfterRename };

[[nodiscard]] const char* crash_phase_name(CrashPhase phase) noexcept;
/// "before-tmp" | "after-tmp" | "after-rename"; throws std::invalid_argument
/// on anything else.
[[nodiscard]] CrashPhase parse_crash_phase(const std::string& name);

struct ChaosConfig {
  /// Master switch. Off (default) = every hook is a byte-inert no-op.
  bool enabled = false;
  std::uint64_t seed = 0;

  /// Deterministic crash scheduling: >= 0 arms exactly one crash at that
  /// registry-write op index, at `crash_phase`. The soak harness enumerates
  /// (op, phase) pairs to kill the coordinator at every write point.
  std::int64_t crash_at_write = -1;
  CrashPhase crash_phase = CrashPhase::kBeforeTmp;
  /// Seeded mode: independent P[crash] per (seed, op, phase) hashed draw.
  double crash_prob = 0.0;

  /// Wire-frame chaos applied to server replies, one hashed draw per frame:
  /// truncate = send a strict prefix then close (the lost-ack case), close =
  /// close without replying, delay = pause frame_delay_s before sending,
  /// split = send in two bursts frame_delay_s apart (the reassembly case).
  /// Probabilities must sum to <= 1.
  double frame_truncate_prob = 0.0;
  double frame_close_prob = 0.0;
  double frame_delay_prob = 0.0;
  double frame_split_prob = 0.0;
  double frame_delay_s = 0.05;
  /// Targeted variant: close the connection instead of sending reply frame
  /// op N (deterministic lost-ack for the idempotent-resubmit tests). -1 =
  /// off.
  std::int64_t close_reply_at = -1;

  /// Job chaos: fail (throw from the step) or hang (sleep hang_s of real
  /// wall clock, for the watchdog) the matching run at round index N.
  /// Empty id = any run.
  std::int64_t fail_round = -1;
  std::string fail_run_id;
  std::int64_t hang_round = -1;
  std::string hang_run_id;
  double hang_s = 0.0;

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const;
};

/// Simulated process death at a durable write point. Intentionally NOT a
/// std::exception: a catch(const std::exception&) failure path must not be
/// able to "handle" a SIGKILL.
struct ChaosCrash {
  CrashPhase phase = CrashPhase::kBeforeTmp;
  std::uint64_t op = 0;
  std::string path;  // the artifact being written when the process "died"
};

enum class FrameAction : std::uint8_t { kNone, kTruncate, kSplit, kDelay, kClose };

struct FramePlan {
  FrameAction action = FrameAction::kNone;
  /// Byte boundary for kTruncate / kSplit: always in [1, frame_size - 1].
  std::size_t boundary = 0;
  double delay_s = 0.0;  // for kDelay / kSplit
};

class ChaosInjector {
 public:
  /// Disabled injector: every hook is a no-op.
  ChaosInjector() = default;
  /// Validates the config.
  explicit ChaosInjector(ChaosConfig config);

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }
  [[nodiscard]] const ChaosConfig& config() const noexcept { return config_; }

  /// Claim the next registry-write op index. Disabled injectors return 0
  /// without advancing anything.
  [[nodiscard]] std::uint64_t begin_write() noexcept;

  /// Crash point inside write op `op`: throws ChaosCrash when the armed
  /// (crash_at_write, crash_phase) matches or the seeded per-(op, phase)
  /// draw fires. No-op when disabled.
  void crash_point(std::uint64_t op, CrashPhase phase, const std::string& path) const;

  /// Plan the fate of the next reply frame: claims a frame op and hashes the
  /// verdict from (seed, op). `frame_size` bounds the truncate/split
  /// boundary. Disabled injectors always return kNone.
  [[nodiscard]] FramePlan plan_frame(std::size_t frame_size) noexcept;

  /// Job hooks, pure functions of the config (no counters).
  [[nodiscard]] bool should_fail_round(const std::string& id,
                                       std::size_t round) const noexcept;
  /// Real seconds the step must sleep before round `round`, 0 = none.
  [[nodiscard]] double hang_before_round(const std::string& id,
                                         std::size_t round) const noexcept;

  /// Registry write ops claimed so far (diagnostics).
  [[nodiscard]] std::uint64_t write_ops() const noexcept { return write_op_.load(); }
  [[nodiscard]] std::uint64_t frame_ops() const noexcept { return frame_op_.load(); }

 private:
  ChaosConfig config_;
  std::atomic<std::uint64_t> write_op_{0};
  std::atomic<std::uint64_t> frame_op_{0};
};

}  // namespace fedsched::coord::chaos
