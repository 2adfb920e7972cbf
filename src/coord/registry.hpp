#pragma once
// On-disk run registry: one directory per run under the coordinator root.
//
//   <root>/<id>/spec.json    the validated spec, written once at admission
//   <root>/<id>/meta.json    {"rounds_completed": n}, rewritten after each step
//   <root>/<id>/ckpt.bin     the run's resume point (FSC1 train / FSF2 fleet),
//                            written by the run's session (coord/session.hpp)
//   <root>/<id>/trace.jsonl  the run's trace, rewritten per step from the
//                            checkpointed prefix
//   <root>/<id>/result.json  terminal success document (presence = done)
//   <root>/<id>/error.txt    terminal failure message (presence = failed)
//
// Every write goes through a temp file + rename, so a coordinator killed
// mid-transition leaves either the old document or the new one, never a torn
// file. scan() reconstructs each run's lifecycle position from which files
// exist — that is the whole restart story: result.json wins, then error.txt,
// then a checkpoint to resume, else the run restarts from round zero.
//
// A directory scan() cannot make sense of — torn spec/meta, an id that does
// not match its directory, a checkpoint whose sealed checksum fails — is
// *quarantined*: renamed to `<id>.quarantined` (collisions get `.2`, `.3`,
// ...) with the reason recorded in `quarantine.txt` inside, and the scan
// keeps going. One corrupt run must never block recovery of the healthy
// ones. Stale `*.tmp` files (a write that died between tmp and rename) are
// swept at scan time.

#include <cstddef>
#include <string>
#include <vector>

#include "coord/spec.hpp"
#include "fl/checkpoint/codec.hpp"

namespace fedsched::coord {

namespace chaos {
class ChaosInjector;
}  // namespace chaos

/// Where scan() found a run in its lifecycle.
enum class RecoveredState { kDone, kFailed, kResumable, kFresh };

struct RecoveredRun {
  RunSpec spec;
  RecoveredState state = RecoveredState::kFresh;
  std::size_t rounds_completed = 0;  // meaningful for kResumable
  std::string error;                 // meaningful for kFailed
};

/// One corrupt run directory set aside by scan().
struct QuarantineRecord {
  std::string id;        // the directory name the run claimed
  std::string moved_to;  // quarantine directory name under root
  std::string reason;
};

struct ScanOutcome {
  std::vector<RecoveredRun> runs;              // sorted by id
  std::vector<QuarantineRecord> quarantined;   // sorted by id
  std::size_t stale_tmp_removed = 0;
};

struct AtomicWriteOptions {
  bool durable = false;
  chaos::ChaosInjector* chaos = nullptr;  // may be null or disabled
};

class RunRegistry {
 public:
  /// Creates `root` (and parents) if missing.
  explicit RunRegistry(std::string root);

  [[nodiscard]] const std::string& root() const noexcept { return root_; }
  [[nodiscard]] std::string run_dir(const std::string& id) const;
  [[nodiscard]] std::string spec_path(const std::string& id) const;
  [[nodiscard]] std::string meta_path(const std::string& id) const;
  [[nodiscard]] std::string ckpt_path(const std::string& id) const;
  [[nodiscard]] std::string trace_path(const std::string& id) const;
  [[nodiscard]] std::string result_path(const std::string& id) const;
  [[nodiscard]] std::string error_path(const std::string& id) const;

  [[nodiscard]] bool exists(const std::string& id) const;

  /// fsync the temp file and its directory around every rename (power-loss
  /// durability). Off by default so tests stay fast.
  void set_durable(bool durable) noexcept { options_.durable = durable; }
  /// Optional fault injector threaded through every atomic write. The
  /// registry does not own it; nullptr (default) and a disabled injector are
  /// byte-equivalent.
  void set_chaos(chaos::ChaosInjector* chaos) noexcept { options_.chaos = chaos; }

  /// Create the run directory and persist spec.json (atomic).
  void persist_spec(const RunSpec& spec) const;
  /// Rewrite meta.json with the step's progress (atomic).
  void write_meta(const std::string& id, std::size_t rounds_completed) const;
  /// Mark the run done / failed (atomic; presence is the state).
  void write_result(const std::string& id, const std::string& json) const;
  void write_error(const std::string& id, const std::string& message) const;

  /// Whole-file reads; throw std::runtime_error when the file is missing.
  [[nodiscard]] std::string read_result(const std::string& id) const;
  [[nodiscard]] std::string read_trace(const std::string& id) const;
  [[nodiscard]] std::string read_checkpoint(const std::string& id) const;

  /// Rebuild every persisted run's lifecycle position, sorted by id so a
  /// restarted coordinator requeues in-flight runs in a deterministic order.
  /// Corrupt directories are quarantined instead of aborting the scan;
  /// previously-quarantined directories are skipped. Never throws for
  /// per-run damage — only for an unreadable root.
  [[nodiscard]] ScanOutcome scan();

  /// Move a run directory to `<id>.quarantined` and record `reason` in its
  /// quarantine.txt. Exposed for scan(); safe to call directly.
  QuarantineRecord quarantine_run(const std::string& id,
                                  const std::string& reason);

  /// The durability and chaos every registry write uses; run sessions write
  /// their step checkpoints with it too.
  [[nodiscard]] const AtomicWriteOptions& write_options() const noexcept {
    return options_;
  }

 private:
  std::string root_;
  AtomicWriteOptions options_;
};

/// Shared atomic-write helper (temp file + rename within the directory).
/// With options.durable the temp file and its directory are fsync'd so the
/// rename survives power loss; options.chaos threads the write through the
/// injector's before-tmp / after-tmp / after-rename crash points.
void write_file_atomic(const std::string& path, const std::string& bytes,
                       const AtomicWriteOptions& options = {});
/// Whole-file read; throws std::runtime_error when missing/unreadable.
using fl::checkpoint::read_file;
/// Validate a sealed artifact's generic framing (header length, declared
/// payload size, FNV-1a checksum) without knowing its magic. Throws
/// std::runtime_error with `context` on damage.
void validate_sealed_artifact(const std::string& bytes,
                              const std::string& context);

}  // namespace fedsched::coord
