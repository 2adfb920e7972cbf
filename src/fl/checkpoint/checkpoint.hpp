#pragma once
// Deterministic checkpoint/resume for federated runs.
//
// A checkpoint captures *every* piece of mutable round-loop state — global
// model weights, per-client optimizer velocity, device clocks and thermal
// state, battery charge, the (possibly rescheduled) data partition, the
// round records so far, health-tracker state, RNG stream words, and the
// trace bytes written so far — so a run killed after round r and resumed
// from the checkpoint finishes bit-identical to one that was never
// interrupted: same RunResult floats, same trace bytes (docs/API.md
// "Checkpoint format" and tests/fl/test_checkpoint.cpp pin this).
//
// Format: a little-endian binary file (magic "FSC1", explicit version field;
// readers reject unknown versions rather than guess) plus a human-readable
// `<path>.meta.jsonl` sidecar describing the checkpoint for tooling — the
// sidecar is advisory and never read back. Since version 2 the header also
// carries the payload length and an FNV-1a checksum of the payload, and the
// loader parses out of a bounds-checked in-memory buffer: a truncated,
// bit-flipped, or otherwise mangled file is rejected with a clean
// std::runtime_error — never a crash, a huge allocation, a partial restore,
// or silent acceptance (tests/fl/test_checkpoint_corruption.cpp pins this).
//
// The fault injector needs no entry here: its draws are pure functions of
// (config, seed, round, client), so rebuilding it from the config reproduces
// the exact same fault schedule the interrupted run was on.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "fl/health/health.hpp"
#include "fl/runner.hpp"

namespace fedsched::fl::checkpoint {

/// On-disk format version this build writes and accepts.
/// v2: checksummed payload + replication state (replica log, active flag).
inline constexpr std::uint32_t kFormatVersion = 2;

/// Complete mutable state of a synchronous run after `rounds_completed`
/// rounds. Everything a resumed run cannot re-derive from its config.
struct RunState {
  std::uint64_t seed = 0;
  std::uint64_t rounds_completed = 0;

  /// Global model: flat weights + the architecture fingerprint they belong
  /// to (load refuses a mismatched model, same as nn::load_weights).
  std::uint64_t model_fingerprint = 0;
  std::vector<float> global_params;

  /// Per-client optimizer momentum buffers (empty inner vectors when the
  /// client never trained or momentum is off).
  std::vector<std::vector<float>> velocities;

  /// Per-client device simulator state: the (clock, temperature) pair is the
  /// complete mutable state of a noise-free device.
  std::vector<double> device_clock_s;
  std::vector<double> device_temp_c;

  /// Per-client battery state of charge; empty when battery faults are off.
  std::vector<double> battery_soc;

  /// The data partition in force (differs from the caller's partition once
  /// the replanner has rescheduled).
  data::Partition partition;

  /// Round history and the accumulated simulated clock.
  std::vector<RoundRecord> rounds;
  double total_seconds = 0.0;

  /// Self-healing state. `health` is meaningful when either recovery or
  /// replication is active (both read risk from the same tracker).
  bool recovery_active = false;
  health::HealthTracker::Snapshot health;
  std::vector<std::uint64_t> replanner_shards;

  /// Speculative replication: config-match flag plus the first-finisher log
  /// accumulated so far, so a resumed run's RunResult::replica_log matches
  /// the uninterrupted run's.
  bool replication_active = false;
  std::vector<replication::ShareResolution> replica_log;

  /// The runner's base RNG stream words (defensive: fork() never advances
  /// the parent, but serializing them keeps the format honest if that
  /// changes).
  std::array<std::uint64_t, 4> rng_words{};

  /// Trace bytes written before the checkpoint (the capture buffer) and how
  /// many JSONL events they contain. A resumed run replays them verbatim so
  /// the final trace file is byte-identical to an uninterrupted run's.
  std::string trace_prefix;
  std::uint64_t trace_events = 0;
};

/// The sealed FSC1 bytes of `state` (no sidecar): what save_checkpoint
/// writes, for callers with their own atomic write path.
[[nodiscard]] std::string encode_checkpoint(const RunState& state);

/// Write `state` to `path` (parent directories created) plus the
/// `<path>.meta.jsonl` sidecar. Throws std::runtime_error on I/O failure.
void save_checkpoint(const RunState& state, const std::string& path);

/// Load a checkpoint written by save_checkpoint. Throws std::runtime_error
/// on I/O failure, bad magic, or an unsupported format version.
[[nodiscard]] RunState load_checkpoint(const std::string& path);

}  // namespace fedsched::fl::checkpoint
